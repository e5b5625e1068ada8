"""Concept windows memoized per distinct text against the per-problem scan:
the same inventories, rewrite sites and intensity-0 pass-throughs, whether
the memo is cold or warm."""

from __future__ import annotations

import pytest

from symdrift.diversify import concepts
from symdrift.diversify.concepts import identify_repeated, select_sites
from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.harness.config import SyntheticConfig
from symdrift.harness.synthetic import generate_synthetic
from symdrift.problem import Problem

from .helpers import (
    HAND_CASES,
    plain_problem,
    reference_identify_repeated,
    reference_passthrough,
    reference_unit_sites,
)

NOTHING_REPEATS = plain_problem(["Anne is kind.", "Bob is tall."], "Is Gail smart?")
# "kind" repeats only inside the first sentence, "big" only across two.
REPEAT_IN_ONE_UNIT = plain_problem(["Anne is kind and Bob is kind.", "Gail is big.",
                                    "Dave is big."], "Is Anne smart?")


@pytest.fixture(scope="module")
def resources() -> Resources:
    return Resources.load()


@pytest.fixture(scope="module")
def problems(resources) -> list[Problem]:
    out = [*HAND_CASES, NOTHING_REPEATS, REPEAT_IN_ONE_UNIT]
    for p in generate_synthetic(SyntheticConfig(n_problems=60, seed=7)):
        out += [p, diversify_problem(p, DiversifyConfig(resources=resources)).problem]
    return out


def _assert_matches_reference(problems: list[Problem], resources: Resources) -> None:
    for p in problems:
        inventory = identify_repeated(p)
        reference = reference_identify_repeated(p)
        assert list(inventory.items()) == list(reference.items())
        sites = select_sites(p, inventory)
        for unit_index, _unit in p.units():
            expected = reference_unit_sites(reference, unit_index)
            assert sites.get(unit_index, []) == expected
            assert (unit_index in sites) == bool(expected)
        d = diversify_problem(p, DiversifyConfig(intensity=0, resources=resources))
        ref = reference_passthrough(p)
        assert list(d.provenance.items()) == list(ref.provenance.items())
        assert (d.problem, d.base_id, d.intensity, d.no_repeats) == \
            (ref.problem, ref.base_id, ref.intensity, ref.no_repeats)


def test_windows_match_the_per_problem_scan(problems, resources, monkeypatch):
    """As other tests left the memo, then cleared (every text's windows
    computed anew), then warm (every one read back)."""
    _assert_matches_reference(problems, resources)
    monkeypatch.setattr(concepts, "_WINDOWS", {})
    _assert_matches_reference(problems, resources)
    assert concepts._WINDOWS
    _assert_matches_reference(problems, resources)


def test_inputs_exercise_their_edges(problems, resources):
    d = diversify_problem(NOTHING_REPEATS, DiversifyConfig(intensity=0, resources=resources))
    assert d.no_repeats and d.provenance == {}
    kind = identify_repeated(REPEAT_IN_ONE_UNIT)["kind"]
    assert [occ.unit for occ in kind.occurrences] == [0, 0]
    # Overlapping repeated grams, so precedence decides some sites.
    assert any(len(occ.surface.split()) > 1 for p in problems
               for rows in select_sites(p, identify_repeated(p)).values() for _, occ in rows)
