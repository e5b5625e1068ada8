"""The resolution prover's process-wide memos: verdicts do not depend on what
earlier proofs left in them, on the order of proofs or on worker threads,
clausification is served from its memo only when a fresh conversion would
give the same clauses, and the wrapped entry points are still reached
through their module globals. Its set-of-support start settles every case
that full resolution settles, with the same value."""

from __future__ import annotations

import json
import random
import sys
from copy import deepcopy

import pytest

from symdrift.diversify.resources import Resources
from symdrift.fol.cnf import SkolemAllocator, to_cnf
from symdrift.fol.parser import parse_formula
from symdrift.fol.terms import Const, LogicProgram, Not, SymbolRegistry
from symdrift.harness.config import SyntheticConfig, TranslatorConfig
from symdrift.harness.evaluate import run_evaluation
from symdrift.harness.serialize import record_to_json
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import GoldTranslator
from symdrift.solver import resolution
from symdrift.solver.resolution import DEFAULT_MAX_STEPS, prove_resolution
from symdrift.solver.verdict import Verdict

from .helpers import (
    random_decidable_program,
    random_program,
    random_relational_program,
    reference_clausify,
    reference_phase_clauses,
    reference_prove_resolution,
    reference_satisfiable_by_sign,
)


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty memos for the test; the process-wide ones come back after it."""
    monkeypatch.setattr(resolution, "_INTERNED", {})
    monkeypatch.setattr(resolution, "_TERMS", {})
    monkeypatch.setattr(resolution, "_CLAUSIFIED", {})


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
    assert resolution._INTERNED and resolution._CLAUSIFIED


def test_set_of_support_settles_what_full_resolution_settles():
    """Wherever the plain loop that also resolves premises with each other
    stays within its budget, the prover does too and gives the same value.
    Both starts are taken: some premises pass the sign test and some fail
    it, and some cases the plain loop cuts off are settled."""
    signs = set()
    settled_only_here = 0
    for p in _reference_programs():
        signs.add(reference_satisfiable_by_sign(reference_phase_clauses(p, True)[0]))
        for max_steps in (3, 50, DEFAULT_MAX_STEPS):
            full = reference_prove_resolution(p, max_steps, full=True)
            ours = prove_resolution(p, max_steps)
            if not full.limit_hit:
                assert (ours.value, ours.limit_hit) == (full.value, False)
            settled_only_here += full.limit_hit and not ours.limit_hit
    assert signs == {True, False}
    assert settled_only_here


def test_premises_unsatisfiable_by_sign_are_resolved_with_each_other():
    """`P(a)` and `~P(a)` fail the sign test, so they are queued with the
    goal and refute each other as full resolution does, `Q(b)` unrelated."""
    p = _program("P(a)", "~P(a)", "Q(b)")
    assert not reference_satisfiable_by_sign(reference_phase_clauses(p, True)[0])
    assert prove_resolution(p) == Verdict("proved", steps=2)
    assert reference_prove_resolution(p, full=True) == Verdict("proved", steps=2)


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


def _conversions(p, phases: int) -> list:
    """The formula of each conversion a proof makes: one per premise, then
    one per phase run."""
    return list(p.premises) + [Not(p.query), p.query][:phases]


def test_wrapped_functions_are_reached_through_module_globals(cold_memos, monkeypatch):
    """A wrapper installed on `resolution.subsumes` and on the `to_cnf` that
    `resolution` calls sees every call, as the benchmark tracer's does. A
    proof calls `to_cnf` once for each conversion the memo does not hold: a
    formula that no earlier conversion had without a Skolem constant. Every program runs twice, so a second proof of a Skolem-free
    program calls it not at all."""
    calls = {"subsumes": 0, "to_cnf": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(resolution, "subsumes", counting("subsumes", resolution.subsumes))
    monkeypatch.setattr(resolution, "to_cnf", counting("to_cnf", resolution.to_cnf))
    rng = random.Random(41)
    programs = [random_relational_program(rng) for _ in range(40)]
    programs += [random_program(rng) for _ in range(40)]
    held = set()
    skolemizing = repeats_for_free = 0
    for rerun, p in [(False, p) for p in programs] + [(True, p) for p in programs]:
        calls["to_cnf"] = 0
        verdict = prove_resolution(p)
        expected = 0
        for f in _conversions(p, 1 if verdict.value == "proved" else 2):
            if f in held:
                continue
            expected += 1
            alloc = SkolemAllocator(deepcopy(p.registry))
            to_cnf(f, alloc)
            if alloc.allocated:
                skolemizing += 1
            else:
                held.add(f)
        assert calls["to_cnf"] == expected
        if rerun and expected == 0:
            repeats_for_free += 1
    assert calls["subsumes"] > 0
    assert skolemizing and repeats_for_free
    assert set(resolution._CLAUSIFIED) == held


def _skolems(kepts) -> set[str]:
    return {a.symbol for k in kepts for l in k.clause for a in l.args
            if isinstance(a, Const) and a.symbol.startswith("!sk")}


def _canonical(clauses) -> tuple:
    return tuple(resolution._canonical(c) for c in clauses)


def _phases(p):
    """The premises' interned clauses, then each phase's, as
    `prove_resolution` makes them."""
    premises, alloc = resolution._premise_clauses(p)
    return (premises,
            premises + resolution._goal_clauses(p.query, alloc, negate_query=True),
            premises + resolution._goal_clauses(p.query, alloc, negate_query=False))


def _program(*texts: str) -> LogicProgram:
    """Premises, then the query, parsed into one registry."""
    registry = SymbolRegistry()
    formulas = [parse_formula(t, registry) for t in texts]
    return LogicProgram(registry, tuple(formulas[:-1]), formulas[-1]).check_world()


def test_shared_premise_clauses_match_a_fresh_clausification(cold_memos):
    """Skolem constants in premises and goals come out as they do when each
    phase is clausified afresh, also when both goals need one, and the
    clauses served by the memo are a fresh conversion's, interned: every
    program runs twice, the second time in shuffled order."""
    rng = random.Random(77)
    both_goals = _program("exists x P(x)", "all x (P(x) -> Q(x))",
                          "(exists x Q(x)) & (all y P(y))")
    programs = [random_program(rng) for _ in range(300)] + [both_goals]
    skolemized = 0
    for p in programs + rng.sample(programs, len(programs)):
        premises, first, second = _phases(p)
        assert first == _canonical(reference_clausify(p, negate_query=True))
        assert second == _canonical(reference_clausify(p, negate_query=False))
        ours = _skolems(premises)
        skolemized += bool(ours and _skolems(first) - ours and _skolems(second) - ours)
    assert skolemized
    assert resolution._CLAUSIFIED


def test_a_skolem_name_taken_by_the_program_is_never_served_from_the_memo(cold_memos):
    """The same existential premise, first in a program where `sk0` is free,
    then in one that declares a constant `sk0`: the second must name its
    witness `sk1`, as a fresh clausification does."""
    free = _program("exists x P(x)", "Q(a)", "P(a)")
    taken = _program("exists x P(x)", "Q(sk0)", "P(sk0)")
    assert free.premises[0] == taken.premises[0]
    for p in (free, taken):
        premises, first, second = _phases(p)
        assert first == _canonical(reference_clausify(p, negate_query=True))
        assert second == _canonical(reference_clausify(p, negate_query=False))
        assert _skolems(premises) == ({"!sk0"} if p is free else {"!sk1"})
    assert taken.premises[0] not in resolution._CLAUSIFIED
    assert prove_resolution(taken) == reference_prove_resolution(taken)


@pytest.mark.parametrize("text", ["all x (P(x) & all x Q(x))", "all x (P(x) | all x Q(x))"])
def test_a_conversion_does_not_depend_on_earlier_ones(cold_memos, text):
    """A formula that binds one variable name twice converts to the same
    clauses through a fresh allocator and through one that converted other
    formulas first, and the memo serves those clauses interned, whichever
    allocator asks."""
    registry = SymbolRegistry()
    f = parse_formula(text, registry)
    others = [parse_formula(t, registry) for t in
              ("all x all y (R(x, y) -> R(y, x))", "all z (Q(z) | ~P(z))", "R(a, b)")]
    fresh = to_cnf(f, SkolemAllocator(deepcopy(registry)))
    late = SkolemAllocator(deepcopy(registry))
    for other in others:
        to_cnf(other, late)
    assert to_cnf(f, late) == fresh
    served = resolution._clausify(f, SkolemAllocator(deepcopy(registry)))
    assert served is resolution._CLAUSIFIED[f]
    assert served == _canonical(fresh)
    assert resolution._clausify(f, late) is served
