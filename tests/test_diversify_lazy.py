"""The lazy rewrite pass against the eager reference: the same chosen texts
and provenance, the same concept inventories, and the same similarity
scores, with fewer candidates scored."""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from symdrift.diversify import pipeline
from symdrift.diversify.concepts import identify_repeated, select_sites
from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources, SynonymLexicon
from symdrift.diversify.similarity import FallbackScorer, make_scorer
from symdrift.harness.config import SyntheticConfig
from symdrift.harness.synthetic import generate_synthetic
from symdrift.problem import Problem, TextUnit
from symdrift.textproc import STOPWORDS

from .helpers import (
    reference_diversify_choice,
    reference_identify_repeated,
    reference_unit_sites,
)


@pytest.fixture(scope="module")
def resources() -> Resources:
    return Resources.load()


@pytest.fixture(scope="module")
def generated() -> list[Problem]:
    return generate_synthetic(SyntheticConfig(n_problems=60, seed=7))


class HashScorer:
    """Rejects about half of all candidate texts, by a stable hash."""

    def score(self, a: str, b: str) -> float:
        return 1.0 if zlib.crc32(b.encode()) % 2 else 0.0


class CountingScorer:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def score(self, a: str, b: str) -> float:
        self.calls += 1
        return self.inner.score(a, b)


def _intensities(p: Problem) -> list[int | None]:
    """Intensities 0 (the pass-through), 1, 0.5 and full, as sentence counts."""
    return [0, 1, pipeline.sentence_count(0.5, len(p.sentences)), None]


def _assert_same_choice(problems, resources, monkeypatch, scorer_for, theta: float) -> int:
    """Every problem at every intensity picks what the eager pass picks;
    returns how many problems the pass rewrote."""
    rewritten = 0
    for p in problems:
        for intensity in _intensities(p):
            lazy_scorer, eager_scorer = scorer_for(), scorer_for()
            monkeypatch.setattr(pipeline, "make_scorer", lambda *a, **k: lazy_scorer)
            d = diversify_problem(p, DiversifyConfig(theta=theta, intensity=intensity,
                                                     resources=resources))
            texts, provenance = reference_diversify_choice(
                p, theta, intensity, eager_scorer, resources)
            assert {u: unit.text for u, unit in d.problem.units()} == texts
            assert d.provenance == provenance
            rewritten += d.intensity > 0
    return rewritten


@pytest.mark.parametrize("theta", [0.3, 0.9, 1.0])
def test_lazy_choice_matches_eager_with_fallback_scorer(generated, resources,
                                                        monkeypatch, theta):
    scorer_for = lambda: make_scorer("fallback", lexicon=resources.synonyms)
    assert _assert_same_choice(generated, resources, monkeypatch, scorer_for, theta) > 0


def test_lazy_choice_matches_eager_when_first_choices_fail(generated, resources,
                                                           monkeypatch):
    assert _assert_same_choice(generated, resources, monkeypatch, HashScorer, 0.9) > 0


def test_lazy_choice_scores_fewer_candidates_than_the_pool(generated, resources,
                                                           monkeypatch):
    scorer = CountingScorer(make_scorer("fallback", lexicon=resources.synonyms))
    monkeypatch.setattr(pipeline, "make_scorer", lambda *a, **k: scorer)
    pooled = 0
    generate = pipeline.generate_candidates

    def counting_generate(*args):
        nonlocal pooled
        pool = generate(*args)
        pooled += len(pool) - 1  # the original is never scored
        return pool

    monkeypatch.setattr(pipeline, "generate_candidates", counting_generate)
    for p in generated:
        diversify_problem(p, DiversifyConfig(resources=resources))
    assert 0 < scorer.calls < pooled


def _problem(sentences: list[str], question: str) -> Problem:
    return Problem(
        id="t",
        sentences=tuple(TextUnit.from_text(s) for s in sentences),
        question=TextUnit.from_text(question),
        gold_answer="true",
        task_kind="proofwriter",
    )


HAND_CASES = [
    # a punctuation gap inside a would-be gram: "kind, smart" is not "kind smart"
    _problem(["Anne is kind, smart and tall.", "Bob is kind smart."], "Is Anne kind smart?"),
    # repeated grams made only of stopwords, next to repeated mixed grams
    _problem(["It is not the kind one.", "It is not the kind."], "Is it the kind one?"),
    # a gram whose only repeat is in the question
    _problem(["Anne is kind.", "Bob is tall."], "Is Gail very kind?"),
]


def test_identify_repeated_matches_reference(generated, resources):
    problems = list(HAND_CASES)
    for p in generated:
        problems += [p, diversify_problem(p, DiversifyConfig(resources=resources)).problem]
    for max_n in (1, 2, 3, 4):
        for p in problems:
            new, old = identify_repeated(p, max_n), reference_identify_repeated(p, max_n)
            assert list(new.items()) == list(old.items())


def test_hand_cases_exercise_their_edge():
    gap, stopwords, question = (identify_repeated(p) for p in HAND_CASES)
    assert "kind smart" in gap and len(gap["kind smart"].occurrences) == 2
    assert all(any(l not in STOPWORDS for l in cid.split()) for cid in stopwords)
    assert "the kind" in stopwords and "it be not" not in stopwords
    assert [occ.unit for occ in question["kind"].occurrences] == [0, -1]


def test_select_sites_matches_the_per_unit_scan(generated, resources):
    """One pass over the inventory gives every unit the sites that scanning
    all entries for that unit gives; a unit with no occurrence has no key."""
    problems = list(HAND_CASES)
    for p in generated:
        problems += [p, diversify_problem(p, DiversifyConfig(resources=resources)).problem]
    keyless = 0
    for p in problems:
        inventory = identify_repeated(p)
        sites = select_sites(inventory)
        occupied = {occ.unit for entry in inventory.values() for occ in entry.occurrences}
        assert set(sites) == occupied
        for unit_index, _unit in p.units():
            assert sites.get(unit_index, []) == reference_unit_sites(inventory, unit_index)
            keyless += unit_index not in sites
    assert keyless > 0


LEMMAS = st.sampled_from(["anne", "be", "kind", "benevolent", "smart", "clever", "the", "x"])


@settings(max_examples=300, deadline=None)
@given(st.lists(LEMMAS, max_size=8), st.lists(LEMMAS, max_size=8))
def test_fallback_score_equals_counter_jaccard(a, b):
    scorer = FallbackScorer(SynonymLexicon())
    text_a, text_b = " ".join(a), " ".join(b)
    ca, cb = scorer._bag(text_a), scorer._bag(text_b)
    union = sum((ca | cb).values())
    expected = 1.0 if union == 0 else sum((ca & cb).values()) / union
    assert scorer.score(text_a, text_b) == expected
    assert scorer.score(text_b, text_a) == expected
