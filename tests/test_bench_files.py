"""Every recorded benchmark file at the repository root is well formed: it
parses, every run passed its output checks, and the parent and the change
wrote the same artifacts for each workload and seed, unless the file lists
that workload and seed under `digest_changes` with the one digest of each
side."""

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


def _check_runs(doc: dict) -> None:
    runs = _runs(doc)
    assert runs
    changes = {(c["workload"], c["seed"]): {"parent": {c["parent"]}, "change": {c["change"]}}
               for c in doc.get("digest_changes", [])}
    digests: dict[tuple[str, int], dict[str, set[str]]] = {}
    for run in runs:
        assert run["result"]["correct"] is True, (run["workload"], run["seed"], run["pair"])
        sides = digests.setdefault((run["workload"], run["seed"]), {})
        sides.setdefault(run["side"], set()).add(run["sha256"])
    assert set(changes) <= set(digests)
    for key, sides in digests.items():
        assert set(sides) == {"parent", "change"}, key
        if key in changes:
            assert sides == changes[key] and sides["parent"] != sides["change"], key
        else:
            assert len(sides["parent"]) == 1 and sides["parent"] == sides["change"], key


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_runs_are_correct_and_agree(path):
    _check_runs(json.loads(path.read_text(encoding="utf-8")))


def _doc(digests: list[tuple[str, int, str, str]], changes=()) -> dict:
    """A file of one run per (workload, seed, side, sha256)."""
    runs = [{"workload": w, "seed": seed, "pair": 0, "side": side, "sha256": sha,
             "result": {"correct": True}} for w, seed, side, sha in digests]
    return {"runs": runs, "digest_changes": [
        {"workload": w, "seed": seed, "parent": parent, "change": change}
        for w, seed, parent, change in changes]}


def test_a_listed_digest_change_passes_and_an_unlisted_one_fails():
    runs = [("prove", 1, "parent", "aa"), ("prove", 1, "change", "bb"),
            ("drift", 1, "parent", "cc"), ("drift", 1, "change", "cc")]
    _check_runs(_doc(runs, [("prove", 1, "aa", "bb")]))
    with pytest.raises(AssertionError):
        _check_runs(_doc(runs))
    with pytest.raises(AssertionError):
        _check_runs(_doc(runs, [("prove", 7, "aa", "bb")]))


def test_a_listed_digest_change_with_a_third_digest_fails():
    runs = [("prove", 1, "parent", "aa"), ("prove", 1, "change", "bb"),
            ("prove", 1, "change", "dd")]
    with pytest.raises(AssertionError):
        _check_runs(_doc(runs, [("prove", 1, "aa", "bb")]))
    with pytest.raises(AssertionError):
        _check_runs(_doc(runs[:2] + [("prove", 1, "parent", "dd")], [("prove", 1, "aa", "bb")]))
