"""The memoized parser against the unmemoized reference: same formula, same
declarations and ids on the caller's registry, same error. Then a program
made from texts (`check_program`, then `build_program`): the check raises
exactly what the build raises, its rendering is the texts' own
(`render_texts`) and parses back to itself, and the closed world refuses a
non-Horn premise."""

from __future__ import annotations

from collections import Counter
from copy import deepcopy
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import symdrift.fol.parser as parser_module
from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.errors import ArityMismatch, FolError, NotHorn
from symdrift.fol.parser import (
    ProgramTexts,
    build_program,
    check_program,
    parse_formula,
    parse_shape,
)
from symdrift.fol.render import render_program, render_text, render_texts
from symdrift.fol.terms import CLOSED_WORLD, OPEN_WORLD, SymbolRegistry, horn_parts
from symdrift.harness.config import SyntheticConfig, TranslatorConfig
from symdrift.harness.datasets import load_dataset, save_dataset
from symdrift.harness.evaluate import run_evaluation
from symdrift.harness.serialize import read_records
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import make_translator, propose_from_templates

from .helpers import reference_parse

# Predicate and constant pools overlap, so a name may be both kinds.
PREDICATES = ("P", "Q", "Kind", "a")
CONSTANTS = ("a", "b", "Anne", "P")
VARIABLES = ("x", "y")
BINARY = ("&", "|", "->", "<->")


@st.composite
def formula_texts(draw, depth: int = 3, bound: tuple[str, ...] = ()) -> str:
    roll = draw(st.integers(0, 9))
    if depth <= 0 or roll < 4:
        name = draw(st.sampled_from(PREDICATES))
        arity = draw(st.integers(0, 2))
        if arity == 0 and draw(st.booleans()):
            return name
        terms = draw(st.lists(st.sampled_from(CONSTANTS + bound), min_size=arity,
                              max_size=arity))
        return f"{name}({', '.join(terms)})" if terms else name
    if roll < 6:
        var = draw(st.sampled_from(VARIABLES))
        quantifier = draw(st.sampled_from(("all", "exists")))
        body = draw(formula_texts(depth - 1, bound + (var,)))
        return f"{quantifier} {var} ({body})"
    if roll == 6:
        return "~" + draw(formula_texts(depth - 1, bound))
    left = draw(formula_texts(depth - 1, bound))
    right = draw(formula_texts(depth - 1, bound))
    return f"({left} {draw(st.sampled_from(BINARY))} {right})"


@st.composite
def parse_inputs(draw) -> str:
    text = draw(formula_texts())
    mode = draw(st.sampled_from(("plain", "plain", "dot", "cut", "junk", "empty")))
    if mode == "dot":
        return text + "."
    if mode == "cut":
        return text[:draw(st.integers(0, len(text)))]
    if mode == "junk":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(("@", ")", ",", "&", "all"))) + text[at:]
    if mode == "empty":
        return draw(st.sampled_from(("", " ", "\t\n")))
    return text


@st.composite
def registries(draw) -> SymbolRegistry:
    """A registry with some pool names declared, at random arities, so ids do
    not start at zero."""
    registry = SymbolRegistry()
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("predicate", "constant")))
        pool = PREDICATES if kind == "predicate" else CONSTANTS
        name = draw(st.sampled_from(pool + ("Other",)))
        if registry.lookup(name, kind) is not None:
            continue
        arity = draw(st.integers(0, 2)) if kind == "predicate" else 0
        registry.declare(name, arity, kind)
    return registry


def _outcome(parse, text: str, registry: SymbolRegistry):
    try:
        result = ("ok", parse(text, registry))
    except Exception as exc:  # compared by type and message
        result = ("error", type(exc), str(exc))
    state = [(sid, registry.info(sid)) for sid in registry.symbols()]
    next_id = deepcopy(registry).declare("Fresh_", 0, "constant")
    return result, state, next_id


@settings(max_examples=400, deadline=None)
@given(text=parse_inputs(), registry=registries())
def test_memoized_parse_matches_reference(text, registry):
    """A parse that succeeds matches the reference in every respect. One that
    fails raises the reference's error type, and its message unless the text
    clashes with itself, when the text's own clash is named; the registry
    keeps what it held and gains only names of the text, in its order."""
    expected = _outcome(reference_parse, text, deepcopy(registry))
    before = [(sid, registry.info(sid)) for sid in registry.symbols()]
    # The first call may fill the memo; the second reads it.
    for _ in range(2):
        got = _outcome(parse_formula, text, deepcopy(registry))
        if expected[0][0] == "ok":
            assert got == expected
            continue
        (status, error_type, message), state, _ = got
        assert (status, error_type) == expected[0][:2]
        if message != expected[0][2]:
            assert error_type is ArityMismatch
            assert _outcome(parse_formula, text, SymbolRegistry())[0] == got[0]
        assert state[:len(before)] == before
        added = [info for _, info in state[len(before):]]
        if added:
            own = [info for _, info in parse_shape(text).symbols
                   if registry.lookup(info.name, info.kind) is None]
            assert added == own[:len(added)]


def test_arity_clash_on_prepopulated_registry():
    """A text that clashes with itself raises its own clash and declares
    nothing; one that clashes only with the registry raises at its first
    clashing name, with the names before it declared. Cached or not."""
    for _ in range(2):
        registry = SymbolRegistry()
        registry.declare("P", 2, "predicate")
        with pytest.raises(ArityMismatch, match=r"^symbol 'P' declared with arity 1, used with 2$"):
            parse_formula("P(a) & P(a, b)", registry)
        assert registry.symbols() == ["p0"]
        with pytest.raises(ArityMismatch, match=r"^symbol 'P' declared with arity 2, used with 1$"):
            parse_formula("Q(a) & P(b)", registry)
        assert [registry.info(sid).name for sid in registry.symbols()] == ["P", "a", "Q", "b"]


def test_fresh_registry_shares_cached_formula():
    first = parse_formula("all x (Slot0(x) -> Slot1(x))", SymbolRegistry())
    assert parse_formula("all x (Slot0(x) -> Slot1(x))", SymbolRegistry()) is first


def test_generated_and_diversified_formulas_match_reference():
    """Every gold formula and template skeleton of a generated set and of its
    full diversification parses as the reference does, into one registry per
    program as the loader does and into a fresh one per skeleton, on the
    first call and from the memo."""
    resources = Resources.load()
    programs, skeletons = [], []
    for p in generate_synthetic(SyntheticConfig(n_problems=60, seed=7)):
        d = diversify_problem(p, DiversifyConfig(resources=resources))
        for problem in (p, d.problem):
            gold = problem.gold_logic  # the texts a saved set holds
            programs.append([*map(render_text, gold.premises), render_text(gold.query)])
            skeletons += [prop.skeleton for prop in propose_from_templates(problem)]
    parse_shape.cache_clear()
    for _ in range(2):
        for texts in programs:
            memo, reference = SymbolRegistry(), SymbolRegistry()
            for text in texts:
                assert _outcome(parse_formula, text, memo) == \
                    _outcome(reference_parse, text, reference)
        for text in skeletons:
            assert _outcome(parse_formula, text, SymbolRegistry()) == \
                _outcome(reference_parse, text, SymbolRegistry())
    assert parse_shape.cache_info().hits >= len(skeletons)


def _raised(step):
    try:
        return "ok", step()
    except Exception as exc:  # compared by type and message
        return "error", type(exc), str(exc)


# A text that clashes with itself after an earlier name clashes with an
# earlier text: the check and the build name the text's own clash.
DOUBLY_WRONG = (["Kind(Anne, Bob)", "Kind(Anne) & Smart(Anne) & Smart(Anne, Bob)"],
                "Kind(Anne, Bob)")


@settings(max_examples=400, deadline=None)
@given(st.lists(formula_texts(), min_size=0, max_size=4), formula_texts(),
       st.sampled_from((OPEN_WORLD, CLOSED_WORLD)))
@example(*DOUBLY_WRONG, OPEN_WORLD)
def test_check_raises_exactly_what_the_build_raises(premises, query, mode):
    texts = ProgramTexts(tuple(premises), query, mode)
    checked = _raised(lambda: check_program(*texts) == texts)
    assert checked == _raised(lambda: build_program(texts).check_world() is not None)
    if (premises, query) == DOUBLY_WRONG:
        assert checked == ("error", ArityMismatch,
                           "symbol 'Smart' declared with arity 1, used with 2")


def test_each_distinct_text_is_parsed_once(tmp_path):
    """Loading a generated and diversified set, translating it with every
    offline translator, solving, saving the records and reading them back,
    and saving the set: each distinct text that parses is parsed once."""
    resources = Resources.load()
    problems = generate_synthetic(SyntheticConfig(n_problems=30, seed=7))
    save_dataset(tmp_path / "in.jsonl",
                 [diversify_problem(p, DiversifyConfig(resources=resources)) for p in problems])
    parse_shape.cache_clear()
    made = mock.Mock(wraps=parser_module._Parser)
    with mock.patch.object(parser_module, "_Parser", made):
        items = load_dataset(tmp_path / "in.jsonl")
        for i, cfg in enumerate((TranslatorConfig(kind="gold"),
                                 TranslatorConfig(kind="split-adversary"),
                                 TranslatorConfig(kind="naive", mental=False),
                                 TranslatorConfig(kind="naive", mental=True))):
            run_evaluation(items, make_translator(cfg, resources), cfg, "auto", resources,
                           out_dir=tmp_path / f"run{i}")
            read_records(tmp_path / f"run{i}" / "records.jsonl")
        save_dataset(tmp_path / "out.jsonl", items)
    parsed = Counter(call.args[0] for call in made.call_args_list)
    parses = {text for text in parsed if _raised(lambda: parse_shape(text))[0] == "ok"}
    assert len(parses) == parse_shape.cache_info().currsize > 0
    assert {parsed[text] for text in parses} == {1}


@settings(max_examples=300, deadline=None)
@given(st.lists(formula_texts(), min_size=0, max_size=3), formula_texts())
def test_rendered_program_parses_back_to_itself(premises, query):
    try:
        program = build_program(check_program(premises, query, OPEN_WORLD))
    except FolError:
        assume(False)
    texts = render_program(program)
    rendered = render_texts(check_program(premises, query, OPEN_WORLD))
    assert (*rendered.premises, rendered.query) == texts
    again = build_program(check_program(texts[:-1], texts[-1], OPEN_WORLD))
    assert render_program(again) == texts
    assert (again.premises, again.query) == (program.premises, program.query)
    assert [(s, again.registry.info(s)) for s in again.registry.symbols()] == \
        [(s, program.registry.info(s)) for s in program.registry.symbols()]
    if all(horn_parts(premise) is not None for premise in program.premises):
        closed = build_program(check_program(texts[:-1], texts[-1], CLOSED_WORLD))
        assert render_program(closed) == texts
    else:
        with pytest.raises(NotHorn, match="premise is not a fact or Horn implication"):
            build_program(check_program(texts[:-1], texts[-1], CLOSED_WORLD))
