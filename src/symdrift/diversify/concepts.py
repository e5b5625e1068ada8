"""Repeated-concept identification: the anchor units for diversification.

Concepts are lemmatized n-grams (default n <= 3) occurring at least twice
across premises plus question. Grams made only of stopwords are dropped. Every
window is first grouped by its lemma sequence, and occurrences are built only
for the grams seen at least twice. The inventory keeps overlapping entries
(both "popular show" and "show"); the longest-match rule is applied later,
when rewrite sites are selected.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..problem import ConceptEntry, ConceptInventory, ConceptOccurrence, Problem, TextUnit
from ..textproc import STOPWORDS


@dataclass(frozen=True)
class ConceptConfig:
    max_n: int = 3
    stopwords: frozenset[str] = STOPWORDS


def _occurrence(unit_index: int, unit: TextUnit, first: int, last: int) -> ConceptOccurrence:
    start, end = unit.tokens[first].start, unit.tokens[last].end
    return ConceptOccurrence(unit_index, first, last + 1, start, end, unit.text[start:end])


def identify_repeated(p: Problem, cfg: ConceptConfig | None = None) -> ConceptInventory:
    cfg = cfg or ConceptConfig()
    # Every admissible window as (unit index, unit, first token, last token),
    # grouped by lemma sequence; occurrences are built for repeated grams only.
    windows: dict[tuple[str, ...], list[tuple[int, TextUnit, int, int]]] = {}
    for unit_index, unit in p.units():
        tokens = unit.tokens
        words = [i for i, t in enumerate(tokens) if t.is_word]
        for start, first in enumerate(words):
            lemmas: tuple[str, ...] = ()
            stopwords_only = True
            for last in words[start:start + cfg.max_n]:
                # n-grams must be contiguous in token space (no gaps across
                # punctuation).
                if last - first != len(lemmas):
                    break
                lemma = tokens[last].lemma
                lemmas += (lemma,)
                stopwords_only = stopwords_only and lemma in cfg.stopwords
                if not stopwords_only:
                    windows.setdefault(lemmas, []).append((unit_index, unit, first, last))

    inventory = ConceptInventory()
    repeated = [lemmas for lemmas, hits in windows.items() if len(hits) > 1]
    for lemmas in sorted(repeated, key=lambda k: (len(k), k)):
        hits = windows[lemmas]
        _, unit, first, last = hits[0]
        tags = tuple(t.pos for t in unit.tokens[first:last + 1])
        occurrences = tuple(_occurrence(*hit) for hit in hits)
        cid = " ".join(lemmas)
        inventory.entries[cid] = ConceptEntry(cid, lemmas, tags, occurrences)
    return inventory


def select_sites(occurrences: list[tuple[str, ConceptOccurrence]]
                 ) -> list[tuple[str, ConceptOccurrence]]:
    """Non-overlapping rewrite sites with longest-match precedence.

    Input pairs are (concept id, occurrence) within one unit; longer spans
    win, ties go to the earlier start.
    """
    ranked = sorted(
        occurrences,
        key=lambda pair: (-(pair[1].tok_end - pair[1].tok_start), pair[1].tok_start, pair[0]),
    )
    chosen: list[tuple[str, ConceptOccurrence]] = []
    taken: set[int] = set()
    for cid, occ in ranked:
        span = set(range(occ.tok_start, occ.tok_end))
        if span & taken:
            continue
        taken |= span
        chosen.append((cid, occ))
    chosen.sort(key=lambda pair: pair[1].tok_start)
    return chosen
