"""The lazy rewrite pass against the eager reference: the same chosen texts
and provenance, and the same similarity scores, with fewer candidates
spliced and scored."""

from __future__ import annotations

import itertools
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from symdrift.diversify import pipeline
from symdrift.diversify.concepts import identify_repeated, select_sites
from symdrift.diversify.pipeline import (
    Candidate,
    CandidatePool,
    DiversifyConfig,
    diversify_problem,
    generate_candidates,
)
from symdrift.diversify.resources import (
    ParaphraseTable,
    Resources,
    SynonymLexicon,
)
from symdrift.diversify.variants import build_variants
from symdrift.diversify.similarity import FallbackScorer, make_scorer
from symdrift.harness.config import SyntheticConfig
from symdrift.harness.synthetic import generate_synthetic
from symdrift.problem import ConceptOccurrence, Problem, TextUnit
from symdrift.textproc import STOPWORDS

from .helpers import (
    HAND_CASES,
    plain_problem,
    pool_candidates,
    reference_diversify_choice,
    reference_identify_repeated,
    reference_raw_candidates,
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


def _intensities(p: Problem) -> list[int]:
    """Intensities 0 (the pass-through), 1, 0.5 and full, as sentence counts."""
    return [0, 1, pipeline.sentence_count(0.5, len(p.sentences)), len(p.sentences)]


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
    scorer_for = lambda: make_scorer("fallback", resources)
    assert _assert_same_choice(generated, resources, monkeypatch, scorer_for, theta) > 0


def test_lazy_choice_matches_eager_when_first_choices_fail(generated, resources,
                                                           monkeypatch):
    assert _assert_same_choice(generated, resources, monkeypatch, HashScorer, 0.9) > 0


def test_lazy_choice_scores_fewer_candidates_than_the_pool(generated, resources,
                                                           monkeypatch):
    scorer = CountingScorer(make_scorer("fallback", resources))
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


def test_hand_cases_exercise_their_edge():
    gap, stopwords, question = (identify_repeated(p) for p in HAND_CASES)
    assert "kind smart" in gap and len(gap["kind smart"].occurrences) == 2
    assert all(any(l not in STOPWORDS for l in cid.split()) for cid in stopwords)
    assert "the kind" in stopwords and "it be not" not in stopwords
    assert [occ.unit for occ in question["kind"].occurrences] == [0, -1]


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


class AcceptAll:
    def score(self, a: str, b: str) -> float:
        return 1.0


# "large" + " " + "red auto" and "large red" + " " + "auto" splice to one
# text in "Gail has a big car.", whose sites "big" and "car" are one space
# apart. Earlier units use "large" and "red auto", so the later twin of the
# two combinations costs less than the first and is ranked before it.
TWIN_RESOURCES = Resources(
    SynonymLexicon(),
    ParaphraseTable({("big",): [("large", 1.0), ("large red", 0.9)],
                     ("car",): [("red auto", 1.0), ("auto", 0.9)]}),
)
TWIN_PROBLEM = plain_problem(["Anne is big.", "Bob looks big.", "Anne owns one car.",
                         "Bob sees the car.", "Gail has a big car."], "Is Gail big?")


def test_pool_keeps_the_first_of_two_combinations_with_one_text():
    p = TWIN_PROBLEM
    inventory = identify_repeated(p)
    variants = build_variants(inventory, TWIN_RESOURCES.synonyms, TWIN_RESOURCES.paraphrases)
    unit = p.sentences[4]
    raw = reference_raw_candidates(unit, 4, inventory, variants)
    pool = generate_candidates(unit, select_sites(p, inventory)[4], inventory, variants)
    twins = [c for c in raw if c.text == "Gail has a large red auto."]
    assert [s.surface for c in twins for s in c.sites] == ["Gail", "large", "red auto",
                                                            "Gail", "large red", "auto"]
    assert [c for c in pool_candidates(pool) if c.text == twins[0].text] == twins[:1]
    assert [c.text for c in pool_candidates(pool)] == list(dict.fromkeys(c.text for c in raw))
    assert len(pool) == len(raw) - 1


@pytest.mark.parametrize("scorer_for", [AcceptAll, HashScorer])
def test_lazy_choice_passes_over_a_cheaper_twin(monkeypatch, scorer_for):
    """The lazy pass reaches the later twin first and must drop it as the
    eager pool does, choosing what the eager pass chooses."""
    assert _assert_same_choice([TWIN_PROBLEM], TWIN_RESOURCES, monkeypatch, scorer_for, 0.5)
    monkeypatch.setattr(pipeline, "make_scorer", lambda *a, **k: AcceptAll())
    d = diversify_problem(TWIN_PROBLEM, DiversifyConfig(theta=0.5, resources=TWIN_RESOURCES))
    # Taking the twin would give "Gail has a large red auto." at cost 0.
    assert d.problem.sentences[4].text == "Gail has a big auto."


def test_splices_only_what_assembly_asks_about(generated, resources, monkeypatch):
    """At full intensity a pool's `candidate` runs at most once per `accept`
    call, once per unit (its choice, when no candidate was accepted), and
    once per duplicate passed over; the eager pool spliced every
    combination."""
    units = duplicates = raw_size = 0
    for p in generated:
        inventory = reference_identify_repeated(p)
        variants = build_variants(inventory, resources.synonyms, resources.paraphrases)
        for unit_index, unit in p.units():
            raw = reference_raw_candidates(unit, unit_index, inventory, variants)
            units += 1
            raw_size += len(raw)
            duplicates += len(raw) - len({c.text for c in raw})
    scorer = CountingScorer(make_scorer("fallback", resources))
    monkeypatch.setattr(pipeline, "make_scorer", lambda *a, **k: scorer)
    splices = 0
    candidate = CandidatePool.candidate

    def counting_candidate(pool, index):
        nonlocal splices
        splices += 1
        return candidate(pool, index)

    monkeypatch.setattr(CandidatePool, "candidate", counting_candidate)
    for p in generated:
        diversify_problem(p, DiversifyConfig(resources=resources))
    assert 0 < splices <= scorer.calls + units + duplicates < raw_size


# Surfaces that overlap across the one-space gap between sites, so that
# different combinations of them splice to the same text.
SURFACES = st.sampled_from(["x", "y", "x y", "y x", "x y x"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(SURFACES, max_size=4, unique=True), min_size=1, max_size=4),
       st.lists(st.integers(min_value=0, max_value=299), max_size=4))
# 256 combinations, cut at 64; the rewrites repeat combinations 200 and 64
# only, both past the cut, the second at a raw index just past 64.
@example([["x", "y", "x y"]] * 4, [200, 64])
def test_pool_drops_exactly_the_later_twins(variant_lists, rewrite_picks):
    """A pool keeps the first candidate of each distinct text, in
    raw order, however the options overlap and whether or not the product
    is cut at `MAX_CANDIDATES_PER_UNIT`; rewrites repeating a combination,
    one inside the cut or past it, or an earlier rewrite, are dropped."""
    text = "S " + " ".join(f"o{k}" for k in range(len(variant_lists))) + "."
    unit = TextUnit.from_text(text)
    site_rows, options = [], []
    for k, variants in enumerate(variant_lists):
        start = text.index(f"o{k}")
        site_rows.append((f"c{k}", ConceptOccurrence(0, 0, 1, start, start + 2, f"o{k}")))
        options.append([f"o{k}"] + variants)
    full = ["S " + " ".join(combo) + "." for combo in itertools.product(*options)]
    rewrites = [Candidate(full[pick % len(full)], ()) for pick in rewrite_picks]
    rewrites += rewrites[:1]
    pool = CandidatePool(unit, site_rows, options, rewrites)
    raw = [pool.candidate(i) for i in range(pool.n_combos + len(rewrites))]
    first_of = {}
    for candidate in raw:
        first_of.setdefault(candidate.text, candidate)
    assert pool_candidates(pool) == list(first_of.values())
    assert len(pool) == len(first_of)
