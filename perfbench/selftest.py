"""Fast self-test of the benchmark at a tiny problem count.

    python3 perfbench/selftest.py

Checks that every workload prints every metric of the catalogue with its
unit (end-to-end untraced, per-layer traced), that `BENCHMARK.json` lists the
same metrics and workloads, that the tracer restores every name it patched,
that the calibrated timer samples and then restores the `SIGALRM` handler,
and that the benchmark refuses to run without the program's source.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / ".work" / "selftest"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from catalogue import END_TO_END, PER_LAYER, UNGATED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = "6"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def run_benchmark(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--problems", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    check(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: "
                                f"{done.stderr[-1500:]}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_printed_metrics() -> None:
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            lines, result = run_benchmark(workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"result keys {sorted(result)}")
            check(result["correct"] is True and result["attempted"] >= 1,
                  f"{workload}: correct/attempted {result}")
            units = {name: unit for name, unit, *_ in expected}
            check(list(result["metrics"]) == list(units),
                  f"{workload} trace={trace}: metrics {list(result['metrics'])}")
            for name, metric in result["metrics"].items():
                check(metric["unit"] == units[name] and isinstance(metric["value"], float | int),
                      f"{workload}: {name} printed as {metric}")
            table = {line.split()[0]: line.split()[-1] for line in lines[2:-1]}
            for name, unit in units.items():
                check(table.get(name) == unit, f"{workload}: table line for {name}")
            if trace == 0:
                for name, unit, _better in UNGATED:
                    check(table.get(name) == unit, f"{workload}: table line for {name}")
                check(result["metrics"]["accuracy"]["value"] > 0, f"{workload}: accuracy 0")
            else:
                layers = {k: v["value"] for k, v in result["metrics"].items()}
                self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
                check(self_sum <= layers["bench.traced_wall_s"],
                      f"{workload}: self times {self_sum} exceed traced wall")
            check(lines[1].startswith(f"sha256 {workload} "), f"{workload}: no digest line")
        print(f"ok   {workload}: every metric printed with its unit")


def check_benchmark_json() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        print("skip BENCHMARK.json not present")
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    for w in spec["workloads"]:
        check(w["why"] == WORKLOADS[w["name"]].why, f"why of {w['name']}")
    check([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
          == [tuple(row) for row in END_TO_END], "end_to_end metrics")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [tuple(row) for row in PER_LAYER], "per_layer metrics")
    print("ok   BENCHMARK.json matches the catalogue")


def _bindings(targets) -> list[tuple[object, str, object]]:
    """Every binding a patch may touch: (owner, name, object bound now)."""
    from tracer import _resolve

    out = []
    for _name, module, attr in targets:
        owner, key = _resolve(module, attr)
        if isinstance(owner, type):
            out.append((owner, key, owner.__dict__[key]))
            continue
        original = getattr(owner, key)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("symdrift") and mod is not None:
                out += [(mod, k, v) for k, v in vars(mod).items() if v is original]
    return out


def _bound(owner, key):
    return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)


def check_tracer_restores() -> None:
    import symdrift.harness.evaluate as evaluate
    from symdrift.harness import cli
    from tracer import COUNTED, TARGETS, Tracer, layer_metrics

    originals = {"evaluate_one": evaluate.evaluate_one, "cli.evaluate_one": cli.evaluate_one}
    before = _bindings(TARGETS + COUNTED)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    tracer = Tracer()
    tracer.install()
    try:
        check(evaluate.evaluate_one is not originals["evaluate_one"], "evaluate_one not patched")
        check(cli.evaluate_one is evaluate.evaluate_one, "cli's evaluate_one binding not patched")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in (["generate", "--n", TINY, "--seed", "3", "--out", f"{SCRATCH}/p.jsonl"],
                         ["evaluate", "--in", f"{SCRATCH}/p.jsonl", "--translator", "gold",
                          "--solver", "resolution", "--out", f"{SCRATCH}/run"]):
                check(cli.main(argv) == 0, f"cli {argv[0]} failed under tracing")
    finally:
        tracer.restore()
    layers = layer_metrics(tracer)
    check(layers["solver.prove_resolution.calls"] == int(TINY), "spans were not recorded")
    check(layers["solver.resolution.unify_atoms.calls"] > 0, "counts were not recorded")
    left = [f"{getattr(owner, '__name__', owner)}.{key}" for owner, key, obj in before
            if _bound(owner, key) is not obj]
    check(not left, f"names left patched: {left}")
    check(evaluate.evaluate_one is originals["evaluate_one"], "evaluate_one not restored")
    check(cli.evaluate_one is originals["cli.evaluate_one"], "cli.evaluate_one not restored")
    print(f"ok   tracer restored all {len(tracer.patched)} patched names")


def check_calibration_restores() -> None:
    from calibrate import Calibrated

    handler = signal.getsignal(signal.SIGALRM)
    with Calibrated(0.01) as timed:
        sum(i * i for i in range(2_000_000))
    check(signal.getsignal(signal.SIGALRM) is handler, "SIGALRM handler not restored")
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "interval timer left running")
    check(len(timed.samples) > 2, f"{len(timed.samples)} reference samples in the block")
    check(0 < timed.wall_s and 0 < timed.scaled_s, f"times {timed.wall_s}, {timed.scaled_s}")
    print(f"ok   calibration took {len(timed.samples)} samples and restored the timer")


def check_refuses_without_source() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "drift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    check(done.returncode != 0 and not done.stdout.strip(),
          f"ran without the source: {done.returncode} {done.stdout[-300:]}")
    shutil.rmtree(bare)
    print("ok   refuses to run without the program's source")


def main() -> int:
    check_benchmark_json()
    check_tracer_restores()
    check_calibration_restores()
    check_refuses_without_source()
    check_printed_metrics()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
