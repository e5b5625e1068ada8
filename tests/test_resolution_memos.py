"""The resolution prover's process-wide memos: verdicts do not depend on what
earlier proofs left in them, on the order of proofs or on worker threads, and
the wrapped entry points are still reached through their module globals."""

from __future__ import annotations

import json
import random
import sys

import pytest

from symdrift.diversify import Resources
from symdrift.fol import Const, LogicProgram, Not, SymbolRegistry, parse_formula, to_cnf
from symdrift.fol.cnf import SkolemAllocator
from symdrift.harness import (
    GoldTranslator,
    SyntheticConfig,
    TranslatorConfig,
    generate_synthetic,
    record_to_json,
    run_evaluation,
)
from symdrift.solver import prove_resolution, resolution
from symdrift.solver.resolution import DEFAULT_MAX_STEPS

from .helpers import (
    random_decidable_program,
    random_program,
    random_relational_program,
    reference_prove_resolution,
)


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty memos for the test; the process-wide ones come back after it."""
    monkeypatch.setattr(resolution, "_INTERNED", {})
    monkeypatch.setattr(resolution, "_TERMS", {})


def _reference_programs():
    """The programs of `test_matches_reference_prover`."""
    rng = random.Random(5_303)
    programs = [random_program(rng) if i % 2 else random_decidable_program(rng)
                for i in range(300)]
    programs += [random_relational_program(rng) for _ in range(300)]
    return programs


def test_verdicts_match_reference_with_memos_cold_and_warm(cold_memos):
    """Each case runs twice in one process, in a different shuffled order
    each time: first against empty memos, then against the memos every
    other case filled."""
    cases = [(p, max_steps) for p in _reference_programs()
             for max_steps in (3, 50, DEFAULT_MAX_STEPS)]
    expected = [reference_prove_resolution(p, max_steps) for p, max_steps in cases]
    order = list(range(len(cases)))
    for seed in (1, 2):
        random.Random(seed).shuffle(order)
        for i in order:
            assert prove_resolution(*cases[i]) == expected[i]
    assert resolution._INTERNED


def _gold_records(problems, resources, workers: int) -> list[str]:
    report = run_evaluation(problems, GoldTranslator(), TranslatorConfig(kind="gold"),
                            "resolution", resources=resources, workers=workers)
    return [json.dumps(record_to_json(r), sort_keys=True) for r in report.records]


def test_gold_resolution_records_do_not_depend_on_workers(cold_memos, monkeypatch):
    """Worker threads fill the shared memos concurrently, from empty, with
    thread switches forced often; every record stays byte-identical to the
    sequential run's."""
    resources = Resources.load()
    problems = generate_synthetic(SyntheticConfig(n_problems=60, seed=1))
    sequential = _gold_records(problems, resources, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(resolution, "_INTERNED", {})
            assert _gold_records(problems, resources, workers=4) == sequential
    finally:
        sys.setswitchinterval(interval)


def test_wrapped_functions_are_reached_through_module_globals(cold_memos, monkeypatch):
    """A wrapper installed on `resolution.subsumes` and on the `to_cnf` that
    `resolution` calls sees every call, as the benchmark tracer's does. The
    premises are clausified once for both phases: a proof costs one `to_cnf`
    per premise plus one per phase run."""
    calls = {"subsumes": 0, "to_cnf": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(resolution, "subsumes", counting("subsumes", resolution.subsumes))
    monkeypatch.setattr(resolution, "to_cnf", counting("to_cnf", resolution.to_cnf))
    rng = random.Random(41)
    for _ in range(40):
        p = random_relational_program(rng)
        calls["to_cnf"] = 0
        verdict = prove_resolution(p)
        phases = 1 if verdict.value == "proved" else 2
        assert calls["to_cnf"] == len(p.premises) + phases
    assert calls["subsumes"] > 0


def _clausify_afresh(p, negate_query: bool):
    """Both phases' clauses as they were made before the premises were
    shared: a fresh registry copy and allocator for each phase."""
    registry = p.registry.copy()
    alloc = SkolemAllocator(registry)
    clauses = []
    for i, premise in enumerate(p.premises):
        clauses.extend(to_cnf(premise, registry, alloc, start_index=i * 100).clauses)
    goal = Not(p.query) if negate_query else p.query
    clauses.extend(to_cnf(goal, registry, alloc, start_index=10_000).clauses)
    return clauses


def _skolems(clauses) -> set[str]:
    return {a.symbol for c in clauses for l in c for a in l.args
            if isinstance(a, Const) and a.symbol.startswith("!sk")}


def test_shared_premise_clauses_match_a_fresh_clausification():
    """Skolem constants in premises and goals come out as they did when each
    phase clausified the premises again, also when both goals need one."""
    rng = random.Random(77)
    registry = SymbolRegistry()
    both_goals = LogicProgram(
        registry,
        tuple(parse_formula(t, registry) for t in ("exists x P(x)", "all x (P(x) -> Q(x))")),
        parse_formula("(exists x Q(x)) & (all y P(y))", registry),
    ).validate()
    skolemized = 0
    for p in [random_program(rng) for _ in range(300)] + [both_goals]:
        premises, alloc = resolution._premise_clauses(p)
        first = resolution._goal_clauses(p.query, alloc, negate_query=True)
        second = resolution._goal_clauses(p.query, alloc, negate_query=False)
        assert premises + first == _clausify_afresh(p, negate_query=True)
        assert premises + second == _clausify_afresh(p, negate_query=False)
        ours = _skolems(premises)
        skolemized += bool(ours and _skolems(first) - ours and _skolems(second) - ours)
    assert skolemized
