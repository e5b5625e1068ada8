"""A run's records hold their logic as text. A built program lives only from
translation to solving; reading records back checks their texts and builds
nothing; the strings that repeat across loaded rows are held once. Every
artifact stays what it was when each record kept its built program; that
`solve` over saved `translate` output writes `evaluate`'s records is
`tests/test_cli.py::TestExitCodes::test_translate_then_solve_reproduces_evaluate`."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest

import symdrift.fol.parser as parser_module
import symdrift.harness.evaluate as evaluate_module
import symdrift.harness.synthetic as synthetic_module
from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.errors import FormatError
from symdrift.fol.terms import LogicProgram
from symdrift.harness.cli import EXIT_OK, main
from symdrift.harness.config import SyntheticConfig, TranslatorConfig
from symdrift.harness.datasets import load_dataset
from symdrift.harness.evaluate import run_evaluation
from symdrift.harness.serialize import read_records, record_from_json, record_to_json
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import make_translator


def _quiet(*argv: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == EXIT_OK
    return buffer.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Solving drops the built program


@pytest.fixture(scope="module")
def resources() -> Resources:
    return Resources.load()


@pytest.fixture(scope="module")
def seed7_sets(resources):
    """The seed-7, 60-problem set, plain and fully diversified."""
    problems = generate_synthetic(SyntheticConfig(n_problems=60, seed=7))
    cfg = DiversifyConfig(resources)
    return problems, [diversify_problem(p, cfg) for p in problems]


def _reachable(roots):
    """Every object reachable from `roots` through `gc.get_referents`, short
    of classes: an instance refers to its class, and a class to its module."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


@pytest.mark.parametrize("kind, mental", [("naive", False), ("naive", True), ("gold", False)])
def test_solved_records_hold_no_built_program(seed7_sets, resources, kind, mental):
    problems, diversified = seed7_sets
    cfg = TranslatorConfig(kind=kind, mental=mental)
    report = run_evaluation(problems if kind == "gold" else diversified,
                            make_translator(cfg, resources), cfg, "auto", resources)
    assert sum(r.logic is not None for r in report.records) > 0
    assert not [obj for obj in _reachable(report.records) if isinstance(obj, LogicProgram)]


# ---------------------------------------------------------------------------
# Loading builds nothing


@pytest.fixture(scope="module")
def saved_runs(tmp_path_factory):
    """The seed-1, 60-problem set: naive runs without and with the table over
    its full diversification, and a gold run of the plain set."""
    root = tmp_path_factory.mktemp("saved_runs")
    _quiet("generate", "--n", "60", "--seed", "1", "--out", str(root / "p.jsonl"))
    _quiet("diversify", "--in", str(root / "p.jsonl"), "--intensity", "full",
           "--seed", "1", "--out", str(root / "d.jsonl"))
    for mental in ("off", "on"):
        _quiet("evaluate", "--in", str(root / "d.jsonl"), "--translator", "naive",
               "--mental", mental, "--seed", "1", "--out", str(root / f"run_{mental}"))
    _quiet("evaluate", "--in", str(root / "p.jsonl"), "--translator", "gold",
           "--solver", "resolution", "--seed", "1", "--out", str(root / "run_gold"))
    return root


@contextlib.contextmanager
def _counting_builds():
    """Count every `build_program` and `parse_formula` call, wherever bound."""
    built = mock.Mock(wraps=parser_module.build_program)
    parsed = mock.Mock(wraps=parser_module.parse_formula)
    with contextlib.ExitStack() as stack:
        for module in (parser_module, evaluate_module, synthetic_module):
            stack.enter_context(mock.patch.object(module, "build_program", built))
        stack.enter_context(mock.patch.object(parser_module, "parse_formula", parsed))
        yield lambda: (built.call_count, parsed.call_count)


def test_record_readers_build_nothing(saved_runs, tmp_path):
    root = saved_runs
    with _counting_builds() as calls:
        for run in ("run_off", "run_on", "run_gold"):
            assert read_records(root / run / "records.jsonl")
        sds = _quiet("sds", "--records", str(root / "run_on" / "records.jsonl"))
        compare = _quiet("compare", "--before", str(root / "run_off"),
                         "--after", str(root / "run_on"))
        _quiet("export-sft", "--run", str(root / "run_on"), "--out", str(tmp_path / "sft.jsonl"))
        assert calls() == (0, 0)
    # The digests `tests/test_cli.py` pins for the same runs.
    assert hashlib.sha256(sds.encode()).hexdigest() == \
        "b34fc580aa4d8d38691adfaade5a9029fc48e78c6665765a65c2c1bc9a422abc"
    assert hashlib.sha256(compare.encode()).hexdigest() == \
        "cff1f9fd9d771b1253e68d806ee825ce910e85b00f6673b85e54a14b576d27e0"
    assert _sha256(tmp_path / "sft.jsonl") == \
        "4acfe44fd78ddafbc026e7665d1feef13a46f8070c122cba5329c45537b3978f"


@pytest.mark.parametrize("run", ["run_off", "run_on", "run_gold"])
def test_a_record_row_round_trips(saved_runs, run):
    lines = (saved_runs / run / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        row = record_to_json(record_from_json(json.loads(line)))
        assert json.dumps(row, sort_keys=True) == line


@pytest.mark.parametrize("premise, message", [
    ("Kind(Anne", "bad program.logic: unexpected end of input at position 9"),
    ("Happy(Bob, Gail)", "bad program.logic: symbol 'Happy' declared with arity 1, used with 2"),
])
def test_a_stored_formula_that_does_not_parse_fails_on_load(tmp_path, premise, message):
    row = {"problem_id": "a", "gold": "true", "parse_error": None,
           "program": {"logic": {"premises": ["Happy(Bob)", premise], "query": "Happy(Bob)",
                                 "mode": "closed_world"}}}
    path = tmp_path / "records.jsonl"
    path.write_text("\n" + json.dumps(row) + "\n")
    with pytest.raises(FormatError) as info:
        read_records(path)
    assert str(info.value) == str(FormatError(message, line=2))


# ---------------------------------------------------------------------------
# Repeated strings are held once


def _held_once(strings: list[str]) -> None:
    """Equal strings are one object, and some string does repeat."""
    assert len(set(strings)) < len(strings)
    assert len({id(s) for s in strings}) == len(set(strings))


def test_loaded_rows_share_their_repeated_strings(saved_runs):
    items = load_dataset(saved_runs / "d.jsonl")
    problems = [item.problem for item in items]
    _held_once([unit.text for p in problems for _, unit in p.units()])
    _held_once([text for p in problems for text in (*p.gold_logic.premises, p.gold_logic.query)])
    _held_once([*(cid for item in items for cid in item.provenance),
                *(cid for p in problems for cid in p.gold_concepts.values())])
    _held_once([e.surface for item in items for entries in item.provenance.values()
                for e in entries])
    records = [*read_records(saved_runs / "run_on" / "records.jsonl"),
               *read_records(saved_runs / "run_off" / "records.jsonl")]
    _held_once([text for r in records if r.logic for text in (*r.logic.premises, r.logic.query)])
    _held_once([cid for r in records for cid in r.alignment])
