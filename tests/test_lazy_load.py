"""Loading builds only what a command reads. A row's gold logic is checked
as text (`check_program`) and built only when solved: the translators that
read it build nothing; a unit's tokens come from `tokenize` when first
asked for. The check fails exactly when the parse does, the built program is
the parsed one, the lazy tokens are the eager ones, and a saved set is
byte-identical to one written by building every program on load."""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import symdrift.fol.parser as parser_module
from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.errors import FormatError
from symdrift.fol.parser import build_program, check_program
from symdrift.harness.config import SyntheticConfig
from symdrift.harness.datasets import load_dataset, save_dataset
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import GoldTranslator, SplitAdversaryTranslator
from symdrift.textproc import tokenize

from .helpers import reference_program_from_json
from .test_parse_memo import CONSTANTS, PREDICATES, formula_texts


def _outcome(step):
    try:
        return step(), None
    except Exception as exc:  # both paths must fail alike
        return None, (type(exc).__name__, str(exc))


def _same_program(a, b) -> None:
    assert (a.premises, a.query, a.semantics_mode) == (b.premises, b.query, b.semantics_mode)
    assert [(s, a.registry.info(s)) for s in a.registry.symbols()] == \
        [(s, b.registry.info(s)) for s in b.registry.symbols()]


# ---------------------------------------------------------------------------
# The load check against the parse


@st.composite
def horn_texts(draw) -> str:
    """A fact, or a rule under `all x` whose body is a conjunction of atoms.
    Each atom takes one or two arguments, so one name's arity often differs
    between two formulas of a program."""
    def atom(terms: tuple[str, ...]) -> str:
        name = draw(st.sampled_from(PREDICATES))
        return f"{name}({', '.join(draw(st.lists(st.sampled_from(terms), min_size=1, max_size=2)))})"

    if draw(st.booleans()):
        return atom(CONSTANTS)
    body = " & ".join(atom(("x",) + CONSTANTS) for _ in range(draw(st.integers(1, 2))))
    return f"all x ({body} -> {atom(('x',) + CONSTANTS)})"


@st.composite
def gold_texts(draw) -> str:
    """A formula text as a hand-written gold file may hold it."""
    kind = draw(st.sampled_from(("formula", "horn", "horn", "cut", "dot", "blank")))
    if kind == "blank":
        return draw(st.sampled_from(("", " ", "\t\n")))
    text = draw(horn_texts() if kind in ("horn", "dot") else formula_texts())
    if kind == "cut":
        return text[:draw(st.integers(0, len(text)))]
    return text + "." if kind == "dot" else text


@st.composite
def gold_logic(draw) -> dict:
    logic = {"premises": draw(st.lists(gold_texts(), max_size=4)), "query": draw(gold_texts())}
    mode = draw(st.sampled_from((None, "open_world", "closed_world", "closed_world")))
    if mode is not None:
        logic["mode"] = mode
    return logic


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("gold")


@settings(max_examples=400, deadline=None)
@given(gold_logic())
@example({"premises": ["Kind(Anne)", "all x (Kind(x, Bob) -> Tall(x))"], "query": "Tall(Anne)",
          "mode": "closed_world"})  # an arity clash across formulas
@example({"premises": ["Kind(Anne)"], "query": "Kind(Anne, Bob)"})  # ... with the query
@example({"premises": ["Kind(Anne)", "Kind(Bob) | Tall(Bob)"], "query": "Tall(Anne)",
          "mode": "closed_world"})  # a non-Horn closed-world premise
@example({"premises": ["Kind(Anne) | Tall(Anne)"], "query": "Kind(Anne)"})  # open: loads
@example({"premises": ["all x (Kind(x) -> Tall("], "query": "Tall(Anne)"})  # truncated
@example({"premises": ["Kind(Anne)", " "], "query": "Kind(Anne)"})  # blank
@example({"premises": [], "query": "(Kind(Anne))."})  # not canonical, but parses
def test_loading_fails_exactly_when_the_build_does(workdir, logic):
    row = {"id": "g", "sentences": ["Anne is kind."], "question": "Is Anne kind?",
           "answer": "true", "task_kind": "proofwriter", "gold_logic": logic}
    path = workdir / "problems.jsonl"
    path.write_text("\n" + json.dumps(row) + "\n")
    loaded, error = _outcome(lambda: load_dataset(path))
    mode = logic.get("mode", "open_world")
    parsed, parse_error = _outcome(lambda: build_program(check_program(
        logic["premises"], logic["query"], mode)))
    # The plain parse that builds every formula, then validates the program.
    reference, reference_error = _outcome(lambda: reference_program_from_json(logic))
    assert parse_error == reference_error
    assert error == (parse_error and (
        "FormatError", str(FormatError(f"bad gold_logic: {parse_error[1]}", line=2))))
    if loaded is not None:
        program = build_program(loaded[0].gold_logic)
        _same_program(program, parsed)
        _same_program(program, reference)


# ---------------------------------------------------------------------------
# The lazy parts


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    resources = Resources.load()
    problems = generate_synthetic(SyntheticConfig(n_problems=24, seed=3))
    diversified = [diversify_problem(p, DiversifyConfig(resources=resources)) for p in problems]
    root = tmp_path_factory.mktemp("sets")
    save_dataset(root / "problems.jsonl", problems)
    save_dataset(root / "diversified.jsonl", diversified)
    return problems, diversified, root


def test_loading_a_diversified_set_tokenizes_nothing(sets):
    _, _, root = sets
    tokenize.cache_clear()
    items = load_dataset(root / "diversified.jsonl")
    assert items and tokenize.cache_info().misses == 0
    assert items[0].problem.question.tokens
    assert tokenize.cache_info().misses == 1


def test_unit_tokens_are_the_eager_tokenization(sets):
    problems, diversified, root = sets
    loaded = load_dataset(root / "diversified.jsonl")
    every = [*problems, *(d.problem for d in diversified), *(d.problem for d in loaded)]
    for problem in every:
        for _, unit in problem.units():
            assert unit.tokens == tokenize.__wrapped__(unit.text)


def test_gold_readers_build_nothing_and_do_not_check_again(sets):
    """The gold translator hands over the gold texts, and split-adversary
    instantiates each text's memoized shape: neither parses a formula."""
    _, _, root = sets
    items = load_dataset(root / "diversified.jsonl")
    built = mock.Mock(wraps=parser_module.build_program)
    parsed = mock.Mock(wraps=parser_module.parse_formula)
    refuse = mock.Mock(side_effect=AssertionError("checked again"))
    with mock.patch.object(parser_module, "build_program", built), \
            mock.patch.object(parser_module, "parse_formula", parsed), \
            mock.patch.object(parser_module, "_well_formed", refuse):
        for translator in (GoldTranslator(), SplitAdversaryTranslator()):
            for item in items:
                assert translator.translate(item).logic is not None
    assert (built.call_count, parsed.call_count) == (0, 0)


def test_generate_parses_each_formula_once():
    parsed = mock.Mock(wraps=parser_module.parse_formula)
    with mock.patch.object(parser_module, "parse_formula", parsed):
        problems = generate_synthetic(SyntheticConfig(n_problems=12, seed=5))
    assert parsed.call_count == sum(len(p.sentences) + 1 for p in problems)


# Hand-written gold texts that are not canonical (a trailing `.`, extra
# parentheses, spacing), and the exact bytes that loading and saving them
# wrote when every program was built on load and rendered on save.
HAND_WRITTEN = [
    {"id": "hand1", "sentences": ["Anne is kind.", "All kind people are smart."],
     "question": "Is Anne smart?", "answer": "true", "task_kind": "proofwriter",
     "gold_logic": {"premises": ["Kind(Anne).", "all x ((Kind(x)) -> (Smart(x)))"],
                    "query": "(Smart( Anne ))", "mode": "closed_world"}},
    {"id": 7, "sentences": ["Some student is kind."], "question": "Is some student kind?",
     "answer": "unknown", "task_kind": "folio",
     "gold_logic": {"premises": ["exists x(Student(x)&Kind(x))",
                                 "~~Tall(Bob) | (Kind(Bob) & Tall(Bob))"],
                    "query": "((exists y (Student(y) & Kind(y)))) <-> "
                             "(Tall(Bob) -> Kind(Bob) -> Smart(Bob))."}},
]
SAVED = (
    b'{"answer": "true", "gold_logic": {"mode": "closed_world", "premises": ["Kind(Anne)", '
    b'"all x (Kind(x) -> Smart(x))"], "query": "Smart(Anne)"}, "id": "hand1", '
    b'"question": "Is Anne smart?", "sentences": ["Anne is kind.", '
    b'"All kind people are smart."], "task_kind": "proofwriter"}\n'
    b'{"answer": "unknown", "gold_logic": {"mode": "open_world", "premises": '
    b'["exists x (Student(x) & Kind(x))", "~~Tall(Bob) | Kind(Bob) & Tall(Bob)"], '
    b'"query": "exists y (Student(y) & Kind(y)) <-> Tall(Bob) -> Kind(Bob) -> Smart(Bob)"}, '
    b'"id": "7", "question": "Is some student kind?", "sentences": ["Some student is kind."], '
    b'"task_kind": "folio"}\n'
)


def test_hand_written_gold_texts_save_as_their_canonical_rendering(tmp_path):
    source, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    source.write_text("".join(json.dumps(row) + "\n" for row in HAND_WRITTEN))
    save_dataset(out, load_dataset(source))
    assert out.read_bytes() == SAVED
    save_dataset(tmp_path / "again.jsonl", load_dataset(out))
    assert (tmp_path / "again.jsonl").read_bytes() == SAVED
