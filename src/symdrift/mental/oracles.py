"""Equivalence/conflict oracles that drive table updates.

The deterministic lexicon oracle answers from synonym-group closure (extended
with proper-noun hypernym links). It builds each distinct expression's
representative multiset once, so a decision compares precomputed keys and
sizes. The remote oracle asks a chat model and caches every decision for
determinism and cost control.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Protocol

from ..errors import OracleFailure
from ..diversify.resources import SynonymLexicon
from ..textproc import content_lemmas
from .table import normalize_expression


class EquivalenceOracle(Protocol):
    def equiv(self, e: str, expressions: tuple[str, ...]) -> bool: ...

    def conflict(self, e: str, expressions: tuple[str, ...]) -> tuple[str, str] | None:
        """Return (more atomic expression, modifier text), or None."""
        ...


class _Bag(NamedTuple):
    """An expression's representative multiset, keyed for cheap comparison."""
    counts: Counter  # representative lemma -> multiplicity
    key: tuple  # the counts' items, sorted: equal bags have equal keys
    size: int  # total multiplicity


class LexiconOracle:
    """Closure-based oracle: equivalence is equality of content-lemma
    multisets modulo synonym groups; conflict is strict single-modifier
    containment, keeping the shorter expression as the atomic one.

    Each expression's multiset is built once and kept with its sorted items
    as a key and its total size. `equiv` compares keys. `conflict` tests
    containment only between bags whose sizes differ by exactly one, the only
    pairs a single modifier can separate.
    """

    def __init__(self, synlex: SynonymLexicon):
        self._lexicon = _closure_with_links(synlex)
        # Expression -> its bag. Shared across worker threads: a racing miss
        # only recomputes the same value. Never mutated.
        self._bags: dict[str, _Bag] = {}

    def _bag(self, e: str) -> _Bag:
        bag = self._bags.get(e)
        if bag is None:
            counts = Counter(self._lexicon.representative(l) for l in content_lemmas(e))
            bag = _Bag(counts, tuple(sorted(counts.items())), counts.total())
            self._bags[e] = bag
        return bag

    def equiv(self, e: str, expressions: tuple[str, ...]) -> bool:
        mine = self._bag(e)
        if not mine.size:
            return False
        bag = self._bag
        return any(bag(other).key == mine.key for other in expressions)

    def conflict(self, e: str, expressions: tuple[str, ...]) -> tuple[str, str] | None:
        mine = self._bag(e)
        if not mine.size:
            return None
        for other in expressions:
            theirs = self._bag(other)
            if not theirs.size:
                continue
            if mine.size == theirs.size + 1:
                if _single_modifier_superset(mine.counts, theirs.counts):
                    modifier = _remainder_lemma(e, mine.counts - theirs.counts,
                                                self._lexicon)
                    return other, modifier
            elif theirs.size == mine.size + 1:
                if _single_modifier_superset(theirs.counts, mine.counts):
                    modifier = _remainder_lemma(other, theirs.counts - mine.counts,
                                                self._lexicon)
                    return normalize_expression(e), modifier
        return None


def _single_modifier_superset(big: Counter, small: Counter) -> bool:
    if not (small <= big) or big == small:
        return False
    remainder = big - small
    return sum(remainder.values()) == 1


def _remainder_lemma(expression: str, remainder: Counter, lexicon: SynonymLexicon) -> str:
    (rep,) = remainder.keys()
    return next(lemma for lemma in content_lemmas(expression)
                if lexicon.representative(lemma) == rep)


def _closure_with_links(synlex: SynonymLexicon) -> SynonymLexicon:
    closed = synlex.clone()
    # Hypernym links make a definite description match the name it replaced
    # ("the person" vs a repeated proper name). Only proper-noun rows link:
    # joining common vocabulary to shared hypernyms would collapse unrelated
    # concepts into one group.
    for lemma, pos in synlex.entries():
        if pos != "PROPN":
            continue
        hypernym = synlex.hypernym(lemma)
        if hypernym:
            closed.link(lemma, hypernym)
    return closed


# Re-asks after an unparseable yes/no reply before the oracle gives up.
MAX_RETRIES = 1


class LLMOracle:
    """Yes/no prompts against a chat client at the run's `temperature`,
    cached per (expression, entry contents) so re-queries of a settled pair
    never hit the endpoint again."""

    def __init__(self, client, temperature: float, equiv_template: str,
                 conflict_template: str):
        self._client = client
        self._temperature = temperature
        self._equiv_template = equiv_template
        self._conflict_template = conflict_template
        self._cache: dict[tuple, object] = {}

    @staticmethod
    def _first_token(text: str) -> str:
        parts = text.split()
        return parts[0].strip(".,:;").lower() if parts else ""

    def _ask(self, kind: str, e: str, expressions: tuple[str, ...], parse):
        key = (kind, normalize_expression(e), expressions)
        if key in self._cache:
            return self._cache[key]
        template = self._equiv_template if kind == "equiv" else self._conflict_template
        prompt = template.format(expression=e, entry=", ".join(expressions))
        for _ in range(MAX_RETRIES + 1):
            reply = self._client.complete(prompt, self._temperature)
            parsed = parse(reply.text)
            if parsed is not None:
                self._cache[key] = parsed
                return parsed
        raise OracleFailure(f"unparseable {kind} reply for {e!r}")

    def equiv(self, e: str, expressions: tuple[str, ...]) -> bool:
        def parse(text: str):
            head = self._first_token(text)
            return head == "yes" if head in ("yes", "no") else None

        return self._ask("equiv", e, expressions, parse)

    def conflict(self, e: str, expressions: tuple[str, ...]) -> tuple[str, str] | None:
        def parse(text: str):
            head = self._first_token(text)
            if head == "no":
                return (None,)  # wrapped so the cache can hold a real value
            if head == "yes":
                # Expected shape: "yes <atomic expression> | <modifier>"
                parts = text.split(None, 1)
                rest = parts[1] if len(parts) > 1 else ""
                if "|" in rest:
                    atomic, modifier = rest.split("|", 1)
                    return (normalize_expression(atomic), modifier.strip().lower())
            return None

        result = self._ask("conflict", e, expressions, parse)
        return None if result == (None,) else result
