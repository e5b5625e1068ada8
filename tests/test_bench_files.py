"""Every recorded benchmark file at the repository root is well formed: it
parses, every run passed its output checks, and the parent and the change
wrote the same artifacts for each workload and seed."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _runs(doc: dict) -> list[dict]:
    runs = doc["runs"] + doc.get("earlier_runs", [])
    # Files recording one workload name it once, at the top.
    return [{"workload": doc.get("workload"), **run} for run in runs]


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_runs_are_correct_and_agree(path):
    runs = _runs(json.loads(path.read_text(encoding="utf-8")))
    assert runs
    digests: dict[tuple[str, int], dict[str, set[str]]] = {}
    for run in runs:
        assert run["result"]["correct"] is True, (run["workload"], run["seed"], run["pair"])
        sides = digests.setdefault((run["workload"], run["seed"]), {})
        sides.setdefault(run["side"], set()).add(run["sha256"])
    for key, sides in digests.items():
        assert set(sides) == {"parent", "change"}, key
        assert len(sides["parent"]) == 1 and sides["parent"] == sides["change"], key
