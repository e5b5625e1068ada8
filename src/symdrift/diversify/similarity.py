"""Sentence-pair similarity scorers for semantic filtering.

Three interchangeable scorers, all symmetric and in [0, 1]:

  * fallback: Jaccard over word-lemma multisets, with lemmas of the same
    synonym group counted as equal. No external resources beyond the lexicon.
  * vectors: cosine over sentence vectors built by averaging word vectors
    from an offline file.
  * remote: cosine over vectors fetched from an embedding endpoint.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request
from collections import Counter

from ..errors import ScorerUnavailable
from ..textproc import word_lemmas
from .resources import SynonymLexicon, WordVectors

FALLBACK = "fallback"
VECTORS = "vectors"
REMOTE = "remote"


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
        union = sum((ca | cb).values())
        if union == 0:
            return 1.0
        inter = sum((ca & cb).values())
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
        if vectors is None or vectors.dim == 0:
            raise ScorerUnavailable("vector scorer configured without a vector file")
        self._vectors = vectors

    def _embed(self, text: str) -> list[float]:
        rows = [self._vectors.get(l) for l in word_lemmas(text)]
        rows = [r for r in rows if r is not None]
        if not rows:
            return [0.0] * self._vectors.dim
        return [sum(col) / len(rows) for col in zip(*rows)]

    def score(self, a: str, b: str) -> float:
        return _cosine(self._embed(a), self._embed(b))


class RemoteScorer:
    """Cosine over vectors from an embedding endpoint.

    Protocol: POST {"texts": [...]} and read {"vectors": [[...], ...]}.
    """

    def __init__(self, endpoint: str, timeout_s: float = 10.0):
        if not endpoint:
            raise ScorerUnavailable("remote scorer configured without an endpoint")
        self._endpoint = endpoint
        self._timeout = timeout_s

    def _embed(self, texts: list[str]) -> list[list[float]]:
        payload = json.dumps({"texts": texts}).encode("utf-8")
        request = urllib.request.Request(
            self._endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ScorerUnavailable(f"embedding endpoint failed: {exc}") from exc
        vectors = body.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ScorerUnavailable("embedding endpoint returned a malformed reply")
        return vectors

    def score(self, a: str, b: str) -> float:
        u, v = self._embed([a, b])
        return _cosine(u, v)


def make_scorer(kind: str, lexicon: SynonymLexicon | None = None,
                vectors: WordVectors | None = None, endpoint: str | None = None):
    if kind == FALLBACK:
        if lexicon is None:
            raise ScorerUnavailable("fallback scorer needs the synonym lexicon")
        return FallbackScorer(lexicon)
    if kind == VECTORS:
        return VectorScorer(vectors)
    if kind == REMOTE:
        return RemoteScorer(endpoint or "")
    raise ScorerUnavailable(f"unknown scorer kind {kind!r}")


def score_similarity(a: str, b: str, scorer) -> float:
    return scorer.score(a, b)
