"""Run orchestration: translate, solve, classify, aggregate, persist.

`evaluate_one` is exactly `translate_one` then `solve_one`, the two steps the
CLI's `translate` and `solve` subcommands run separately; so a saved
translation re-solved later gives the record `evaluate` would have written.
`intensity_sweep` repeats `run_evaluation` over diversification levels.

Each engine decides a program in its own world (`ENGINES`), and each task is
read in the world `problem.TASK_KINDS` gives it. When an open-world engine
serves a closed-world task, an atom it cannot prove reads as false.

A run directory holds four artifacts: `config` (flat key=value snapshot),
`records.jsonl`, `report` (canonical JSON), and `traces.jsonl`. Everything
written there is byte-reproducible for deterministic translators; wall-clock
time is reported on stderr only, so reruns diff clean.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from ..diversify.pipeline import DiversifyConfig, diversify_problem
from ..diversify.resources import Resources
from ..errors import (
    EmptyDataset,
    FolError,
    MissingGold,
    NotHorn,
    SolverError,
    SolverMismatch,
    TranslationFailure,
)
from ..fol.terms import CLOSED_WORLD, CSP_MODE, LogicProgram, Not, OPEN_WORLD
from ..metrics.records import TranslationRecord
from ..metrics.sds import SdsResult, align_symbols, compute_sds
from ..metrics.taxonomy import accuracy, error_histogram
from ..problem import DiversifiedProblem, Problem, TASK_KINDS
from ..solver.chaining import forward_chain_cwa
from ..solver.csp import CSPSpec, solve_csp
from ..solver.enumeration import enumerate_models
from ..solver.resolution import prove_resolution
from ..solver.verdict import Verdict
from .config import TranslatorConfig, write_config_file
from .datasets import write_jsonl
from .serialize import write_records
from .translators import program_block, translation_record

AUTO = "auto"


class Engine(NamedTuple):
    world: str  # the semantics the engine decides a program under
    decide: Callable[[LogicProgram | CSPSpec, list], Verdict]


# Engines call the solvers through their module-level names, so a solver
# rebound at run time (as a profiler does) is the one that runs.
ENGINES: dict[str, Engine] = {
    "cwa": Engine(CLOSED_WORLD, lambda p, _: forward_chain_cwa(p)),
    "resolution": Engine(OPEN_WORLD, lambda p, _: prove_resolution(p)),
    "enumerate": Engine(OPEN_WORLD, lambda p, _: enumerate_models(p)),
    "csp": Engine(CSP_MODE, lambda p, options: solve_csp(p, options)),
}

# Task-to-engine pairings; the first entry is the `auto` choice.
ALLOWED_SOLVERS: dict[str, tuple[str, ...]] = {
    "proofwriter": ("cwa", "resolution", "enumerate"),
    "prontoqa": ("cwa",),
    "folio": ("resolution", "enumerate"),
    "proverqa": ("resolution", "enumerate"),
    "deduction": ("csp",),
}


class RunReport(NamedTuple):
    run_id: str
    config: dict[str, str]
    records: list[TranslationRecord]
    accuracy: float
    sds: SdsResult
    histogram: dict[str, int]
    tokens_in: int
    tokens_out: int
    wall_clock_s: float


def solver_for(task_kind: str, solver: str) -> str:
    allowed = ALLOWED_SOLVERS[task_kind]
    if solver == AUTO:
        return allowed[0]
    if solver not in allowed:
        raise SolverMismatch(
            f"solver {solver!r} is not paired with {task_kind!r} (allowed: {allowed})"
        )
    return solver


def _solve(record: TranslationRecord, engine: Engine) -> Verdict:
    """Decide the record's program in the engine's world. Every producer of a
    record's program validated it, so only what the engine's world adds is
    checked here."""
    program = record.program
    if engine.world == CSP_MODE:
        if not isinstance(program, CSPSpec):
            raise SolverMismatch("constraint solving needs a constraint spec")
    else:
        assert isinstance(program, LogicProgram)
        if program.semantics_mode != engine.world:
            program = LogicProgram(program.registry, program.premises, program.query,
                                   engine.world).check_world()
    return engine.decide(program, record.options)


def _predicted_label(record: TranslationRecord, task_kind: str,
                     engine: Engine) -> str | int:
    verdict = record.verdict
    label = verdict.label()
    if (label == "unknown" and not verdict.limit_hit
            and engine.world == OPEN_WORLD and TASK_KINDS[task_kind] == CLOSED_WORLD):
        # A closed-world task reads an atom that cannot be proved as false
        # (negation as failure), so its negation holds.
        return "true" if isinstance(record.program.query, Not) else "false"
    return label


def normalize_items(items: list[Problem | DiversifiedProblem],
                    resources: Resources) -> list[DiversifiedProblem]:
    """Wrap plain problems as zero-intensity diversifications over the run's
    `resources`, so provenance (and therefore alignment) exists for every
    record."""
    cfg = DiversifyConfig(resources, intensity=0)
    return [item if isinstance(item, DiversifiedProblem) else diversify_problem(item, cfg)
            for item in items]


def translate_one(item: DiversifiedProblem, translator) -> TranslationRecord:
    """Translate one problem: the one place a translation that raises (no
    template, no gold, a failed table, formula or world check) becomes a
    parse-error record. An oracle that fails is an outage and propagates."""
    try:
        return translator.translate(item)
    except (TranslationFailure, MissingGold, FolError, NotHorn) as exc:
        return translation_record(item.problem, parse_error=str(exc))


def solve_one(record: TranslationRecord, item: DiversifiedProblem,
              solver: str) -> TranslationRecord:
    """Solve and align a translated record in place. What an earlier solve
    set is cleared first, so solving a solved record again changes nothing."""
    problem = item.problem
    engine = ENGINES[solver_for(problem.task_kind, solver)]
    record.verdict = record.predicted = record.exec_error = None
    record.alignment = {}
    record.alignment_misses = []
    if record.program is not None:
        try:
            record.verdict = _solve(record, engine)
            record.predicted = _predicted_label(record, problem.task_kind, engine)
        except (SolverError, FolError, SolverMismatch) as exc:
            record.exec_error = f"{type(exc).__name__}: {exc}"
        align_symbols(record, item)
    return record


def evaluate_one(item: DiversifiedProblem, translator, solver: str) -> TranslationRecord:
    return solve_one(translate_one(item, translator), item, solver)


def run_evaluation(dataset: list[Problem | DiversifiedProblem], translator,
                   translator_cfg: TranslatorConfig, solver: str, resources: Resources,
                   out_dir: str | Path | None = None,
                   extra_config: dict[str, str] | None = None,
                   workers: int = 1) -> RunReport:
    """Translate and solve every item, score the run, and persist it to
    `out_dir` when given. Plain problems are normalized over the run's
    `resources` (`normalize_items`).

    `workers` threads only help I/O-bound `llm` runs. The offline translators
    and solvers are pure Python and hold the interpreter lock, so two workers
    on the `mitigate` benchmark workload measured a 0.99x speedup.
    """
    if not dataset:
        raise EmptyDataset("no problems to evaluate")
    started = time.monotonic()
    items = normalize_items(dataset, resources)
    # Fail fast on a disallowed pairing before any translation work happens.
    for item in items:
        solver_for(item.problem.task_kind, solver)

    if workers > 1:
        # Problems are independent; records come back in dataset order so
        # the artifacts stay byte-reproducible.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(
                lambda item: evaluate_one(item, translator, solver), items
            ))
    else:
        records = [evaluate_one(item, translator, solver) for item in items]

    config = dict(extra_config or {})
    config.update(translator_cfg.snapshot())
    config["solver"] = solver
    config["dataset.size"] = str(len(items))
    run_id = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]

    report = RunReport(
        run_id=run_id,
        config=config,
        records=records,
        accuracy=accuracy(records),
        sds=compute_sds(records),
        histogram=error_histogram(records),
        tokens_in=sum(r.tokens_in for r in records),
        tokens_out=sum(r.tokens_out for r in records),
        wall_clock_s=time.monotonic() - started,
    )
    if out_dir is not None:
        persist_run(Path(out_dir), report, items)
        print(f"run {run_id}: {report.wall_clock_s:.2f}s wall clock", file=sys.stderr)
    return report


class SweepPoint(NamedTuple):
    level: float  # requested level (fraction or absolute count)
    k_mean: float  # realized mean sentences rewritten per problem
    accuracy: float
    sds: float | None  # None when dispersion was not measured


def intensity_sweep(dataset, translator, translator_cfg, solver: str,
                    levels: list[int | float], resources: Resources) -> list[SweepPoint]:
    """Evaluate at each intensity level (ints are absolute sentence counts,
    floats are fractions of each problem's sentence count). Levels must be
    sorted ascending. The rewrite pass is deterministic, so the curve depends
    on no seed."""
    if levels != sorted(levels):
        raise ValueError("levels must be sorted ascending")
    points = []
    for level in levels:
        cfg = DiversifyConfig(resources, intensity=level)
        diversified = [diversify_problem(p, cfg) for p in dataset]
        report = run_evaluation(diversified, translator, translator_cfg, solver, resources)
        points.append(SweepPoint(
            level=float(level),
            k_mean=sum(d.intensity for d in diversified) / len(diversified),
            accuracy=report.accuracy,
            sds=report.sds.value,
        ))
    return points


def sweep_to_csv(points: list[SweepPoint]) -> str:
    lines = ["level,k_mean,accuracy,sds"]
    for pt in points:
        sds = "n/a" if pt.sds is None else pt.sds
        lines.append(f"{pt.level},{pt.k_mean},{pt.accuracy},{sds}")
    return "\n".join(lines) + "\n"


def report_to_json(report: RunReport) -> dict:
    """Canonical report payload; volatile fields (wall clock) excluded so
    identical runs serialize byte-identically."""
    sds_payload = None
    if report.sds.value is not None:
        sds_payload = {
            "value": report.sds.value,
            "concepts": report.sds.concepts,
            "drifted_concepts": report.sds.drifted_concepts,
            "dropped_concepts": report.sds.dropped_concepts,
            "per_problem": report.sds.per_problem,
        }
    return {
        "run_id": report.run_id,
        "config": report.config,
        "n_records": len(report.records),
        "accuracy": report.accuracy,
        "sds": sds_payload,
        "histogram": report.histogram,
        "tokens_in": report.tokens_in,
        "tokens_out": report.tokens_out,
    }


def render_report_text(report: RunReport) -> str:
    sds = report.sds
    limit_hits = sum(1 for r in report.records if r.verdict is not None and r.verdict.limit_hit)
    lines = [
        f"run        {report.run_id}",
        f"records    {len(report.records)}",
        f"accuracy   {report.accuracy:.4f}",
        "sds        n/a" if sds.value is None else f"sds        {sds.value:.4f}",
        f"dropped    {sds.dropped_concepts}/{sds.concepts} concepts",
        f"limit hits {limit_hits}",
        "errors     " + "  ".join(f"{k}={v}" for k, v in sorted(report.histogram.items())),
        f"tokens     in={report.tokens_in} out={report.tokens_out}",
    ]
    return "\n".join(lines)


def persist_run(out_dir: Path, report: RunReport,
                items: list[DiversifiedProblem]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_file(out_dir / "config", report.config)
    write_records(out_dir / "records.jsonl", report.records)
    (out_dir / "report").write_text(
        json.dumps(report_to_json(report), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    by_id = {item.problem.id: item for item in items}
    write_jsonl(out_dir / "traces.jsonl", ({
        "problem_id": record.problem_id,
        "instruction": by_id[record.problem_id].problem.text(),
        "table": record.table_text,
        "trace": [list(event) for event in record.mental_trace],
        "program": program_block(record.rendering) if record.rendering else "",
        "gold": record.gold,
        "correct": record.predicted == record.gold,
    } for record in report.records if record.mental_trace))
