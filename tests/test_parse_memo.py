"""The memoized parser against the unmemoized reference: same formula, same
declarations and ids on the caller's registry, same error and message. Then
`parse_program`, which makes a program from texts: its rendering parses back
to itself, and the closed world refuses a non-Horn premise."""

from __future__ import annotations

from copy import deepcopy

import pytest
from hypothesis import assume, given, settings, strategies as st

from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.errors import FolError, NotHorn
from symdrift.fol.parser import parse_formula, parse_program, parse_shape
from symdrift.fol.render import render_program, render_text
from symdrift.fol.terms import CLOSED_WORLD, OPEN_WORLD, SymbolRegistry, horn_parts
from symdrift.harness.config import SyntheticConfig
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import propose_from_templates

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
    expected = _outcome(reference_parse, text, deepcopy(registry))
    # The first call may fill the memo; the second reads it.
    assert _outcome(parse_formula, text, deepcopy(registry)) == expected
    assert _outcome(parse_formula, text, deepcopy(registry)) == expected


def test_arity_clash_on_prepopulated_registry():
    """A name declared with another arity than the text uses: the error and
    the declarations left behind are the plain parse's, cached or not."""
    for _ in range(2):
        registry = SymbolRegistry()
        registry.declare("P", 2, "predicate")
        reference = SymbolRegistry()
        reference.declare("P", 2, "predicate")
        for text in ("P(a) & P(a, b)", "Q(a) & P(b)"):
            assert _outcome(parse_formula, text, registry) == \
                _outcome(reference_parse, text, reference)
        assert registry.symbols() == reference.symbols()


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


@settings(max_examples=300, deadline=None)
@given(st.lists(formula_texts(), min_size=0, max_size=3), formula_texts())
def test_rendered_program_parses_back_to_itself(premises, query):
    try:
        program = parse_program(premises, query, OPEN_WORLD)
    except FolError:
        assume(False)
    texts = render_program(program)
    again = parse_program(texts[:-1], texts[-1], OPEN_WORLD)
    assert render_program(again) == texts
    assert (again.premises, again.query) == (program.premises, program.query)
    assert [(s, again.registry.info(s)) for s in again.registry.symbols()] == \
        [(s, program.registry.info(s)) for s in program.registry.symbols()]
    if all(horn_parts(premise) is not None for premise in program.premises):
        closed = parse_program(texts[:-1], texts[-1], CLOSED_WORLD)
        assert render_program(closed) == texts
    else:
        with pytest.raises(NotHorn, match="premise is not a fact or Horn implication"):
            parse_program(texts[:-1], texts[-1], CLOSED_WORLD)
