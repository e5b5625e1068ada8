"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary values alongside the pass/fail status.
"""

from __future__ import annotations

import random
import time

import pytest

from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.fol.parser import parse_formula
from symdrift.fol.terms import LogicProgram, SymbolRegistry
from symdrift.harness.config import SyntheticConfig, TranslatorConfig
from symdrift.harness.evaluate import intensity_sweep, run_evaluation
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import GoldTranslator, NaiveTranslator, SplitAdversaryTranslator
from symdrift.mental.oracles import LexiconOracle
from symdrift.mental.translate import Proposal, translate_with_mental
from symdrift.metrics.records import EXEC_ERROR, LOGIC_ERROR, PARSE_ERROR, TranslationRecord
from symdrift.metrics.taxonomy import CORRECTED_VIA_CONSISTENCY, attribute_errors, classify_error
from symdrift.problem import QUESTION_UNIT, Problem, TextUnit
from symdrift.solver.chaining import forward_chain_cwa
from symdrift.solver.enumeration import enumerate_models
from symdrift.solver.resolution import prove_resolution

from .helpers import random_decidable_program


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def resources() -> Resources:
    return Resources.load()


@pytest.fixture(scope="module")
def synthetic_200():
    return generate_synthetic(SyntheticConfig(n_problems=200, seed=1234))


@pytest.fixture(scope="module")
def diversified_200(synthetic_200, resources):
    return [
        diversify_problem(p, DiversifyConfig(theta=0.90, resources=resources))
        for p in synthetic_200
    ]


def test_criterion_1_solver_oracle_agreement():
    """500 random programs: refutation verdicts match the enumeration oracle
    on every decided instance, within the time budget."""
    started = time.monotonic()
    rng = random.Random(20_240_901)
    decided = agreements = 0
    for _ in range(500):
        program = random_decidable_program(rng)
        oracle = enumerate_models(program)
        verdict = prove_resolution(program)
        if oracle.value in ("proved", "disproved"):
            decided += 1
            agreements += verdict.value == oracle.value
        else:
            assert verdict.value == "unknown"
    elapsed = time.monotonic() - started
    assert agreements == decided
    assert elapsed < 60.0
    report("criterion 1", f"{agreements}/{decided} decided agree in {elapsed:.1f}s")


def test_criterion_2_cwa_correctness(synthetic_200):
    started = time.monotonic()
    matches = sum(
        1 for p in synthetic_200
        if forward_chain_cwa(p.gold_program()).value == p.gold_answer
    )
    elapsed = time.monotonic() - started
    assert matches == len(synthetic_200) == 200
    assert elapsed < 10.0
    report("criterion 2", f"{matches}/200 gold labels reproduced in {elapsed:.1f}s")


def test_criterion_3_diversification_logic_invariance(synthetic_200, diversified_200,
                                                      resources):
    translator = GoldTranslator()
    base = run_evaluation(synthetic_200, translator, TranslatorConfig(kind="gold"),
                          "auto", resources=resources)
    diversified = run_evaluation(diversified_200, translator,
                                 TranslatorConfig(kind="gold"), "auto",
                                 resources=resources)
    base_verdicts = [r.predicted for r in base.records]
    div_verdicts = [r.predicted for r in diversified.records]
    assert base_verdicts == div_verdicts
    assert diversified.sds is not None and diversified.sds.value == 0.0
    report("criterion 3",
           f"200/200 verdicts preserved, pooled SDS = {diversified.sds.value}")


def _analytic_sds(diversified, resources) -> float:
    """Independent dispersion prediction for the split adversary, straight
    from provenance: distinct surfaces per symbol-bearing concept, with
    dropped concepts contributing zero but counted in the denominator."""
    from symdrift.harness.translators import _gold_concept_symbols

    total = 0
    drift = 0
    for item in diversified:
        symbols = _gold_concept_symbols(item.problem, item.problem.gold_program().registry)
        for cid, entries in item.provenance.items():
            total += 1
            if cid not in symbols:
                continue
            drift += len({e.surface.lower() for e in entries}) - 1
    return drift / total


def test_criterion_4_drift_induction(diversified_200, resources):
    translator = SplitAdversaryTranslator()
    run = run_evaluation(diversified_200, translator,
                         TranslatorConfig(kind="split-adversary"), "auto",
                         resources=resources)
    analytic = _analytic_sds(diversified_200, resources)
    assert run.sds is not None
    assert abs(run.sds.value - analytic) < 1e-9
    assert run.accuracy < 1.0
    failures = [r for r in run.records if classify_error(r) != "Correct"]
    assert failures, "drift must break at least one problem"
    assert all(classify_error(r) == LOGIC_ERROR for r in failures)
    report("criterion 4",
           f"SDS {run.sds.value:.4f} == analytic {analytic:.4f}, "
           f"accuracy {run.accuracy:.3f} < 1.0, {len(failures)} LogicErrors")


def test_criterion_5_table_guided_mitigation(diversified_200, resources):
    plain = run_evaluation(diversified_200, NaiveTranslator(),
                           TranslatorConfig(kind="naive"), "auto",
                           resources=resources)
    oracle = LexiconOracle(resources.synonyms)
    guided = run_evaluation(diversified_200, NaiveTranslator(oracle=oracle),
                            TranslatorConfig(kind="naive", mental=True), "auto",
                            resources=resources)
    assert plain.sds is not None and plain.sds.value > 0.3
    assert guided.sds is not None and guided.sds.value <= 0.02
    assert guided.accuracy >= 1.0 - 0.01  # within one point of the gold 1.0
    report("criterion 5",
           f"SDS {plain.sds.value:.3f} -> {guided.sds.value:.3f}, "
           f"accuracy {plain.accuracy:.3f} -> {guided.accuracy:.3f}")


def test_criterion_6_intensity_trend(synthetic_200, resources):
    problems = synthetic_200[:60]
    points = intensity_sweep(problems, NaiveTranslator(),
                             TranslatorConfig(kind="naive"), "auto",
                             levels=[0.0, 0.25, 0.5, 0.75, 1.0],
                             resources=resources)
    noise_band = 0.02
    for earlier, later in zip(points, points[1:]):
        assert later.accuracy <= earlier.accuracy + noise_band
    curve = ", ".join(f"{pt.level:.2f}:{pt.accuracy:.3f}" for pt in points)
    report("criterion 6", f"non-increasing accuracy curve [{curve}]")


def test_criterion_7_refinement_soundness(resources):
    """Verdicts survive refinement: units translated through the table, where
    `popular show` is refined by `show` or `popular` (before or after it),
    give the verdict of the same units translated with one symbol per
    surface plus the definition of the compound."""
    rng = random.Random(99)
    oracle = LexiconOracle(resources.synonyms)
    problem = Problem(id="c7", sentences=(), question=TextUnit.from_text("?"),
                      gold_answer="proved", task_kind="folio")
    surfaces = ("popular show", "show", "popular", "fun")
    preserved, orders = 0, set()
    for _ in range(50):
        proposals = []
        for unit in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                proposals.append(Proposal(unit, "all x (Slot0(x) -> Slot1(x))",
                                          (rng.choice(surfaces), rng.choice(surfaces))))
            else:
                negation = "~" if rng.random() < 0.25 else ""
                proposals.append(Proposal(unit, f"{negation}Slot0({rng.choice(('Idol', 'Gala'))})",
                                          (rng.choice(surfaces),)))
        proposals.append(Proposal(QUESTION_UNIT, f"Slot0({rng.choice(('Idol', 'Gala'))})",
                                  (rng.choice(surfaces),)))
        routed = [surface for p in proposals for surface in p.slots]
        if "popular show" in routed and "show" in routed:
            orders.add(routed.index("popular show") < routed.index("show"))
        refined, _, _ = translate_with_mental(problem, proposals, oracle)
        plain, _, _ = translate_with_mental(problem, proposals, None)
        definition = parse_formula("all x (PopularShow(x) <-> Popular(x) & Show(x))",
                                   plain.registry)
        unrefined = LogicProgram(plain.registry, (definition, *plain.premises),
                                 plain.query).validate()
        preserved += enumerate_models(refined).value == enumerate_models(unrefined).value
    assert preserved == 50
    assert orders == {True, False}
    report("criterion 7", "50/50 refinement fixtures preserve verdicts, "
           "compound both before and after its atom")


def test_criterion_8_error_taxonomy(resources):
    from symdrift.harness.translators import extract_csp_block, extract_program_block
    from symdrift.solver.csp import solve_csp

    records: list[tuple[TranslationRecord, str]] = []

    # 10 parse failures: malformed raw outputs through the block extractor.
    bad_outputs = [
        "premise: Kind(Anne",  # no fence at all
        "```\npremise: Kind(Anne\nquery: Kind(Anne)\n```",  # unbalanced parens
        "```\npremise: Kind(Anne))\nquery: Kind(Anne)\n```",
        "```\nquery missing colon\n```",
        "```\npremise: & Kind(Anne)\nquery: Kind(Anne)\n```",
        "```\npremise: Kind(Anne)\n```",  # no query line
        "```\npremise: all (Kind(x))\nquery: Kind(Anne)\n```",
        "```\npremise: Kind(Anne) ->\nquery: Kind(Anne)\n```",
        "no block, just prose",
        "```\nnonsense line\n```",
    ]
    for i, raw in enumerate(bad_outputs):
        try:
            program = extract_program_block(raw, "closed_world")
            error = None
        except Exception as exc:
            program, error = None, str(exc)
        record = TranslationRecord(problem_id=f"parse{i}", gold="true",
                                   raw_output=raw, program=program,
                                   parse_error=error)
        records.append((record, PARSE_ERROR))

    # 10 execution failures, including the undefined-object constraint case.
    for i in range(5):
        spec, options = extract_csp_block(
            "```\nobjects: A, B\nconstraint: LeftOf(A, Z)\noption 0: A at 1\n```"
        )
        record = TranslationRecord(problem_id=f"exec_csp{i}", gold=0, program=spec)
        try:
            solve_csp(spec, options)
        except Exception as exc:
            record.exec_error = f"{type(exc).__name__}: {exc}"
        records.append((record, EXEC_ERROR))
    for i in range(5):
        registry = SymbolRegistry()
        premises = (parse_formula("all x (Kind(x) -> Smart(x) | Tall(x))", registry),)
        program = LogicProgram(registry, premises,
                               parse_formula("Smart(Anne)", registry), "open_world")
        record = TranslationRecord(problem_id=f"exec_horn{i}", gold="true",
                                   program=program)
        try:
            forward_chain_cwa(LogicProgram(program.registry, program.premises,
                                           program.query, "closed_world").validate())
        except Exception as exc:
            record.exec_error = f"{type(exc).__name__}: {exc}"
        records.append((record, EXEC_ERROR))

    # 10 logic failures: well-formed programs, wrong label.
    for i in range(10):
        registry = SymbolRegistry()
        program = LogicProgram(
            registry,
            (parse_formula("Tall(Anne)", registry),),
            parse_formula("Kind(Anne)", registry),
            "closed_world",
        ).validate()
        record = TranslationRecord(problem_id=f"logic{i}", gold="true",
                                   program=program)
        record.verdict = forward_chain_cwa(program)
        record.predicted = record.verdict.label()
        records.append((record, LOGIC_ERROR))

    correct = sum(1 for record, expected in records
                  if classify_error(record) == expected)
    assert correct == len(records) == 30
    report("criterion 8", "30/30 crafted outputs classified correctly")


def test_criterion_9_error_attribution(diversified_200, resources):
    before = run_evaluation(diversified_200, SplitAdversaryTranslator(),
                            TranslatorConfig(kind="split-adversary"), "auto",
                            resources=resources)
    oracle = LexiconOracle(resources.synonyms)
    after = run_evaluation(diversified_200, NaiveTranslator(oracle=oracle),
                           TranslatorConfig(kind="naive", mental=True), "auto",
                           resources=resources)
    counts = attribute_errors(before.records, after.records)
    corrected = counts[CORRECTED_VIA_CONSISTENCY] + counts["corrected via other"]
    assert corrected > 0
    share = counts[CORRECTED_VIA_CONSISTENCY] / corrected
    assert share >= 0.90
    report("criterion 9",
           f"{counts[CORRECTED_VIA_CONSISTENCY]}/{corrected} corrections "
           f"attributed to symbol consistency ({share:.0%})")


def test_criterion_10_byte_identical_reports(tmp_path, diversified_200, resources):
    cfg = TranslatorConfig(kind="naive")
    for name in ("runA", "runB"):
        run_evaluation(diversified_200[:40], NaiveTranslator(), cfg, "auto",
                       out_dir=tmp_path / name, resources=resources)
    artifacts = ("config", "records.jsonl", "report", "traces.jsonl")
    for artifact in artifacts:
        a = (tmp_path / "runA" / artifact).read_bytes()
        b = (tmp_path / "runB" / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"
    report("criterion 10", f"all {len(artifacts)} artifacts byte-identical")
