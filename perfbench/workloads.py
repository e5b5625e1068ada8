"""The benchmark's workloads: input recipes and the timed CLI stages.

Every workload is a closed loop over `symdrift.harness.cli.main(argv)`: the
next stage starts when the previous one returns. Inputs that are not part of
the timed path are prepared once per seed (and per source tree) beforehand.
`{seed}`, `{prep}` and `{work}` in an argv are filled in by the worker.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed of the recorded baselines (README.md names the held-out seed).
DEFAULT_SEED = 1

# Small Herbrand domain for the model-enumeration workload: 3 constants and
# 5 predicates with chains of depth 1..3 give at most 15 ground atoms, so each
# program costs tens of milliseconds instead of seconds.
ORACLE_CONFIG = """\
synthetic.n_constants = 3
synthetic.n_predicates = 5
synthetic.depth = 3
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_problems: int
    # (file name, text) pairs written into the prep directory first
    prep_files: tuple[tuple[str, str], ...]
    prep_stages: tuple[tuple[str, ...], ...]
    timed_stages: tuple[tuple[str, ...], ...]
    # dataset the timed `evaluate` reads; counts the input problems
    input_path: str
    translator: str
    mental: bool


WORKLOADS: dict[str, Workload] = {
    "drift": Workload(
        name="drift",
        why="induce-and-measure path: generate, full diversify, naive evaluate; "
            "text layer and JSONL I/O dominate, solver and mental do almost nothing",
        n_problems=600,
        prep_files=(),
        prep_stages=(),
        timed_stages=(
            ("generate", "--n", "{n}", "--seed", "{seed}", "--out", "{work}/problems.jsonl"),
            ("diversify", "--in", "{work}/problems.jsonl", "--intensity", "full",
             "--seed", "{seed}", "--out", "{work}/diversified.jsonl"),
            ("evaluate", "--in", "{work}/diversified.jsonl", "--translator", "naive",
             "--solver", "auto", "--seed", "{seed}", "--out", "{work}/run"),
        ),
        input_path="{work}/diversified.jsonl",
        translator="naive",
        mental=False,
    ),
    "mitigate": Workload(
        name="mitigate",
        why="table-guided translation (mental on) over pre-diversified inputs; "
            "oracle calls and the largest records/traces artifacts dominate",
        n_problems=800,
        prep_files=(),
        prep_stages=(
            ("generate", "--n", "{n}", "--seed", "{seed}", "--out", "{prep}/problems.jsonl"),
            ("diversify", "--in", "{prep}/problems.jsonl", "--intensity", "full",
             "--seed", "{seed}", "--out", "{prep}/diversified.jsonl"),
        ),
        timed_stages=(
            ("evaluate", "--in", "{prep}/diversified.jsonl", "--translator", "naive",
             "--mental", "on", "--seed", "{seed}", "--out", "{work}/run"),
        ),
        input_path="{prep}/diversified.jsonl",
        translator="naive",
        mental=True,
    ),
    "prove": Workload(
        name="prove",
        why="gold programs through the resolution prover; CNF conversion and "
            "resolution dominate, diversify runs only as intensity-0 normalisation",
        n_problems=400,
        prep_files=(),
        prep_stages=(
            ("generate", "--n", "{n}", "--seed", "{seed}", "--out", "{prep}/problems.jsonl"),
        ),
        timed_stages=(
            ("evaluate", "--in", "{prep}/problems.jsonl", "--translator", "gold",
             "--solver", "resolution", "--seed", "{seed}", "--out", "{work}/run"),
        ),
        input_path="{prep}/problems.jsonl",
        translator="gold",
        mental=False,
    ),
    "oracle": Workload(
        name="oracle",
        why="gold programs over a small Herbrand domain through model enumeration, "
            "whose cost grows with 2^(ground atoms) rather than clause count",
        n_problems=900,
        prep_files=(("oracle.cfg", ORACLE_CONFIG),),
        prep_stages=(
            ("generate", "--n", "{n}", "--seed", "{seed}", "--config", "{prep}/oracle.cfg",
             "--out", "{prep}/problems.jsonl"),
        ),
        timed_stages=(
            ("evaluate", "--in", "{prep}/problems.jsonl", "--translator", "gold",
             "--solver", "enumerate", "--seed", "{seed}", "--out", "{work}/run"),
        ),
        input_path="{prep}/problems.jsonl",
        translator="gold",
        mental=False,
    ),
}

# Stage names that `harness.stage.<name>.wall_s` reports on every workload.
STAGES = ("generate", "diversify", "evaluate")


def fill(argv: tuple[str, ...], *, n: int, seed: int, prep: str, work: str) -> list[str]:
    return [a.format(n=n, seed=seed, prep=prep, work=work) for a in argv]
