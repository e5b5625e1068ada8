"""The symdrift benchmark: one workload per invocation.

    python3 perfbench/run.py --workload drift --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Inputs are made from `--seed` (and cached
per seed and source tree under `perfbench/.work/`); the program receives only
those inputs, through `symdrift.harness.cli.main(argv)`. Every job runs in a
fresh interpreter started from here (see `worker.py`): repetitions of the
timed CLI stages repeat until `--seconds` of them have been measured.

`--trace 0` reports the end-to-end metrics from untraced processes, timed
against a reference loop so that the shared host's changing speed cancels
(see `calibrate.py`).
`--trace 1` reports the per-layer metrics from traced processes, plus
untraced repetitions for the tracing overhead. Output checks that fail make
the command exit non-zero without a result line. The last line of standard
output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "symdrift"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from catalogue import END_TO_END, PER_LAYER, UNGATED  # noqa: E402
from workloads import DEFAULT_SEED, STAGES, WORKLOADS  # noqa: E402

SETUP_PROBES = 7
MIN_REPS = 2
# Prepared input sets kept per workload (the newest ones).
PREP_CACHE_SIZE = 8
# Keeps every invocation inside the 180 s a run may take: no job outlives the
# deadline, and no repetition starts in its last minute.
DEADLINE_S = 150.0
LAST_START_S = 60.0


class BenchmarkError(RuntimeError):
    pass


def _source_key(workload: str, n: int, seed: int) -> str:
    """Prepared inputs are reused only for the same program, recipe and seed."""
    digest = hashlib.sha256(f"{workload}:{n}:{seed}".encode())
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    digest.update((HERE / "workloads.py").read_bytes())
    return digest.hexdigest()[:16]


def _worker_argv(job: str, args, prep: Path, work: Path, trace: int = 0) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), job, "--workload", args.workload,
            "--seed", str(args.seed), "--n", str(args.n), "--prep", str(prep),
            "--work", str(work), "--trace", str(trace)]


def _job(job: str, args, prep: Path, work: Path, trace: int = 0) -> dict:
    argv = _worker_argv(job, args, prep, work, trace)
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, args.deadline - time.monotonic()))
    if done.returncode != 0:
        raise BenchmarkError(f"{job} job failed ({done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _prepare(args) -> Path:
    prep = WORK / "prep" / f"{args.workload}-{_source_key(args.workload, args.n, args.seed)}"
    if not prep.is_dir():
        staging = prep.with_name(prep.name + f".tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        _job("prepare", args, staging, staging)
        staging.rename(prep)
        stale = sorted(prep.parent.glob(f"{args.workload}-*"), key=lambda p: p.stat().st_mtime)
        for old in stale[:-PREP_CACHE_SIZE]:
            shutil.rmtree(old, ignore_errors=True)
    return prep


def _setup_probes(args, prep: Path) -> list[dict]:
    """Fresh interpreters that each time their own set-up (see `worker.py`)."""
    return [_job("setup", args, prep, prep) for _ in range(SETUP_PROBES)]


def _repetitions(args, prep: Path, work: Path, seconds: float, traces: tuple[int, ...],
                 min_rounds: int) -> list[list[dict]]:
    """Run one repetition per flag in `traces`, round after round, until
    `seconds` of them are measured; returns the repetitions per flag. In a
    round the traced and untraced repetitions run back to back, so they meet
    about the same host speed."""
    rounds: list[list[dict]] = []
    measured = 0.0
    while True:
        rounds.append([_job("run", args, prep, work, trace) for trace in traces])
        measured += sum(rep["wall_s"] for rep in rounds[-1])
        if ((measured >= seconds and len(rounds) >= min_rounds)
                or time.monotonic() >= args.deadline - LAST_START_S):
            break
    digests = {rep["digest"] for reps in rounds for rep in reps}
    if len(digests) != 1:
        raise BenchmarkError(f"artifacts differ between repetitions, traced or not: "
                             f"{sorted(digests)}")
    return [list(reps) for reps in zip(*rounds)]


def _median(reps: list[dict], key) -> float:
    return statistics.median(key(rep) for rep in reps)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, prep: Path, work: Path) -> tuple[dict, list[dict], list[str]]:
    setup = _setup_probes(args, prep)
    (reps,) = _repetitions(args, prep, work, args.seconds, (0,), MIN_REPS)
    first = reps[0]
    notes = [
        f"# unscaled: setup_s {_median(setup, lambda r: r['wall_s']):.6g} s, problems_per_s "
        f"{first['attempted'] / _median(reps, lambda r: r['wall_s']):.6g} problems/s",
        f"# reference loop: {1e3 * _median(setup, lambda r: r['reference_s']):.4g} ms in set-up, "
        f"{1e3 * _median(reps, lambda r: r['reference_s']):.4g} ms in the stages "
        f"(scaled to {1e3 * REFERENCE_S:g} ms)",
        "# problems_per_s of each repetition: "
        + " ".join(f"{first['attempted'] / rep['scaled_s']:.4g}" for rep in reps),
    ]
    values = {
        "setup_s": _median(setup, lambda r: r["scaled_s"]),
        "problems_per_s": first["attempted"] / _median(reps, lambda r: r["scaled_s"]),
        "peak_rss_mb": _median(reps, lambda r: r["rss_mb"]),
        "accuracy": first["accuracy"],
        "failed_share": first["failed"] / first["attempted"],
    }
    units = {name: unit for name, unit, *_ in END_TO_END + UNGATED}
    return {name: _metric(values[name], units[name]) for name in values}, reps, notes


def per_layer(args, prep: Path, work: Path) -> tuple[dict, list[dict], list[str]]:
    untraced, traced = _repetitions(args, prep, work, args.seconds * 3 / 4, (0, 1), 1)
    values = {name: _median(traced, lambda r, name=name: r["layers"][name])
              for name in traced[0]["layers"]}
    for stage in STAGES:
        values[f"harness.stage.{stage}.wall_s"] = _median(traced, lambda r: r["stages"][stage])
    traced_wall = _median(traced, lambda r: r["wall_s"])
    values["bench.traced_wall_s"] = traced_wall
    values["bench.trace_overhead_ratio"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced))
    # Measured on `mitigate` only; 0 elsewhere means "not measured".
    values["harness.workers2_speedup"] = (
        _job("workers", args, prep, work)["speedup"] if args.workload == "mitigate" else 0.0
    )
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    if self_total > traced_wall:
        raise BenchmarkError(f"self times add up to {self_total:.3f} s, "
                             f"more than the traced wall time {traced_wall:.3f} s")
    metrics = {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}
    return metrics, untraced + traced, []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="symdrift benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time of the timed stages, summed over repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--problems", type=int,
                        help="override the workload's problem count (self-test only)")
    args = parser.parse_args(argv)
    if not (SRC / "harness" / "cli.py").is_file():
        print(f"error: the program's source is missing ({SRC.relative_to(ROOT)}); "
              "run from the root of a symdrift checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    args.n = args.problems or workload.n_problems
    args.deadline = time.monotonic() + DEADLINE_S
    work = WORK / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        prep = _prepare(args)
        if args.trace:
            metrics, reps, notes = per_layer(args, prep, work)
        else:
            metrics, reps, notes = end_to_end(args, prep, work)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    first = reps[0]
    print(f"workload {args.workload}  seed {args.seed}  problems {first['attempted']}  "
          f"repetitions {len(reps)}")
    print(f"sha256 {args.workload} {first['digest']}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    for note in notes:
        print(note)
    gated = {name: metric for name, metric in metrics.items()
             if name not in {u[0] for u in UNGATED}}
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": gated}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
