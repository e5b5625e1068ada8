"""One benchmark process: prepare inputs, probe set-up, run one repetition,
or time the evaluation thread pool.

Started by `run.py` in a fresh interpreter for every job, so each measured
repetition pays what a CLI user pays and memory is that job's own. The
program under test is imported from the checkout's `src/`. Only `--trace 1`
imports the tracer; untraced processes never load it.

The last line of standard output is one JSON object with the job's result.
A failed check raises, which exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from calibrate import Calibrated  # noqa: E402
from workloads import STAGES, WORKLOADS, Workload, fill  # noqa: E402

# Sampling period of the set-up probe, which lasts a few tenths of a second.
SETUP_PERIOD_S = 0.02

# Canonical run artifacts (the report's JSONL twin repeats the report).
RUN_ARTIFACTS = ("config", "records.jsonl", "report", "traces.jsonl")


class CheckFailed(RuntimeError):
    pass


def _argv(stage: tuple[str, ...], args) -> list[str]:
    return fill(stage, n=args.n, seed=args.seed, prep=args.prep, work=args.work)


def _call_cli(argv: list[str]) -> None:
    from symdrift.harness.cli import main

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = main(argv)
    if code != 0:
        raise CheckFailed(f"`symdrift {' '.join(argv)}` exited {code}: {captured.getvalue()[-500:]}")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def prepare(w: Workload, args) -> dict:
    prep = Path(args.prep)
    prep.mkdir(parents=True, exist_ok=True)
    for name, text in w.prep_files:
        (prep / name).write_text(text, encoding="utf-8")
    for stage in w.prep_stages:
        _call_cli(_argv(stage, args))
    return {"prepared": str(prep)}


def _translator(w: Workload, resources):
    from symdrift.harness.config import translator_config_from
    from symdrift.harness.translators import make_translator

    cfg = translator_config_from({"translator.kind": w.translator,
                                  "translator.mental": "on" if w.mental else "off"})
    return cfg, make_translator(cfg, resources=resources)


def setup_probe(w: Workload, args) -> dict:
    """Fresh interpreter to ready: import the CLI, load the resources and
    build the workload's translator, timed as `Calibrated` seconds."""
    with Calibrated(SETUP_PERIOD_S) as timed:
        import symdrift.harness.cli  # noqa: F401
        from symdrift.diversify.resources import Resources

        _translator(w, Resources.load())
    return {"scaled_s": timed.scaled_s, "wall_s": timed.wall_s,
            "reference_s": timed.reference_s}


def _check_outputs(w: Workload, args) -> dict:
    """Output checks of one repetition, and a digest of its artifacts."""
    input_path = Path(_argv((w.input_path,), args)[0])
    input_ids = []
    for line in input_path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            data = json.loads(line)
            input_ids.append(data["problem"]["id"] if "provenance" in data else data["id"])
    run_dir = Path(args.work) / "run"
    digest = hashlib.sha256()
    outputs = [run_dir / name for name in RUN_ARTIFACTS]
    outputs += sorted(p for p in Path(args.work).glob("*.jsonl"))
    for path in outputs:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    report = json.loads((run_dir / "report").read_text(encoding="utf-8"))
    records = [json.loads(line) for line in
               (run_dir / "records.jsonl").read_text(encoding="utf-8").splitlines() if line.strip()]
    if report["n_records"] != len(input_ids):
        raise CheckFailed(f"report.n_records {report['n_records']} != {len(input_ids)} input problems")
    by_id = {r["problem_id"]: r for r in records}
    failed = 0
    correct = 0
    for pid in input_ids:
        record = by_id.get(pid)
        verdict = record and record.get("verdict")
        if record is None or record.get("exec_error") or (verdict and verdict.get("limit_hit")):
            failed += 1
        elif record.get("program") is not None and record.get("predicted") == record.get("gold"):
            correct += 1
    if abs(correct / len(input_ids) - report["accuracy"]) > 1e-12:
        raise CheckFailed(f"report.accuracy {report['accuracy']} != recomputed "
                          f"{correct / len(input_ids)}")
    return {
        "digest": digest.hexdigest(),
        "attempted": len(input_ids),
        "failed": failed,
        "accuracy": report["accuracy"],
    }


def run_once(w: Workload, args) -> dict:
    import symdrift.harness.cli  # noqa: F401  (import cost is set-up, not timed)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    Path(args.work).mkdir(parents=True, exist_ok=True)
    stages = {name: 0.0 for name in STAGES}
    scaled = 0.0
    samples: list[float] = []
    try:
        for stage in w.timed_stages:
            argv = _argv(stage, args)
            if tracer is None:
                with Calibrated() as timed:
                    _call_cli(argv)
                stages[argv[0]] += timed.wall_s
                scaled += timed.scaled_s
                samples += timed.samples
            else:  # the sampling would land in the spans' self times
                started = time.perf_counter()
                _call_cli(argv)
                stages[argv[0]] += time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"wall_s": sum(stages.values()), "scaled_s": scaled, "stages": stages,
              "rss_mb": _rss_mb(),
              "reference_s": statistics.fmean(samples) if samples else 0.0}
    result.update(_check_outputs(w, args))
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer)
        tracer.write_spans(Path(args.work) / "spans.tsv")
    return result


def workers_speedup(w: Workload, args) -> dict:
    """Wall time of `run_evaluation` with one worker over the same with two
    threads; records must not depend on the worker count."""
    from symdrift.diversify.resources import Resources
    from symdrift.harness.datasets import load_dataset
    from symdrift.harness.evaluate import report_to_json, run_evaluation

    resources = Resources.load()
    cfg, translator = _translator(w, resources)
    dataset = load_dataset(_argv((w.input_path,), args)[0])
    walls = {}
    reports = {}
    for workers in (1, 2):
        started = time.perf_counter()
        report = run_evaluation(dataset, translator, cfg, "auto", resources=resources,
                                workers=workers)
        walls[workers] = time.perf_counter() - started
        reports[workers] = json.dumps(report_to_json(report), sort_keys=True)
    if reports[1] != reports[2]:
        raise CheckFailed("run_evaluation report differs between 1 and 2 workers")
    return {"speedup": walls[1] / walls[2]}


JOBS = {"prepare": prepare, "setup": setup_probe, "run": run_once, "workers": workers_speedup}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=sorted(JOBS))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--prep", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    result = JOBS[args.job](WORKLOADS[args.workload], args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
