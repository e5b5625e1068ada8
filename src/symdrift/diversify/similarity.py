"""Sentence-pair similarity scorers for semantic filtering.

Two interchangeable scorers, both symmetric and in [0, 1]:

  * fallback: Jaccard over word-lemma multisets, with lemmas of the same
    synonym group counted as equal. No external resources beyond the lexicon.
  * vectors: cosine over sentence vectors built by averaging word vectors
    from an offline file.
"""

from __future__ import annotations

import math
from collections import Counter

from ..textproc import word_lemmas
from .resources import Resources, SynonymLexicon, WordVectors

FALLBACK = "fallback"
VECTORS = "vectors"


class FallbackScorer:
    """Synonym-aware multiset Jaccard over all word lemmas.

    Each text's bag of representatives is built once per scorer, so a
    sentence scored against many candidates is bagged once. The bags are
    shared and never mutated.
    """

    def __init__(self, lexicon: SynonymLexicon):
        self._lexicon = lexicon
        self._bags: dict[str, Counter] = {}

    def _bag(self, text: str) -> Counter:
        bag = self._bags.get(text)
        if bag is None:
            bag = Counter(self._lexicon.representative(l) for l in word_lemmas(text))
            self._bags[text] = bag
        return bag

    def score(self, a: str, b: str) -> float:
        ca = self._bag(a)
        cb = self._bag(b)
        if len(cb) < len(ca):
            ca, cb = cb, ca
        inter = 0
        for key, count in ca.items():
            other = cb.get(key)
            if other:
                inter += count if count < other else other
        union = ca.total() + cb.total() - inter
        if union == 0:
            return 1.0
        return inter / union


def _cosine(u: list[float], v: list[float]) -> float:
    dot = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 1.0 if nu == nv else 0.0
    return max(0.0, min(1.0, dot / (nu * nv)))


class VectorScorer:
    """Cosine over averaged offline word vectors."""

    def __init__(self, vectors: WordVectors):
        self._vectors = vectors

    def _embed(self, text: str) -> list[float]:
        rows = [self._vectors.get(l) for l in word_lemmas(text)]
        rows = [r for r in rows if r is not None]
        if not rows:
            return [0.0] * self._vectors.dim
        return [sum(col) / len(rows) for col in zip(*rows)]

    def score(self, a: str, b: str) -> float:
        return _cosine(self._embed(a), self._embed(b))


def make_scorer(kind: str, resources: Resources):
    """The `kind` scorer over `resources`; `DiversifyConfig` has checked
    that they can run it."""
    if kind == VECTORS:
        return VectorScorer(resources.vectors)
    return FallbackScorer(resources.synonyms)


def score_similarity(a: str, b: str, scorer) -> float:
    return scorer.score(a, b)
