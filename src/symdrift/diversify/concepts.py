"""Repeated-concept identification and rewrite-site selection.

Concepts are lemmatized n-grams (n <= `MAX_N`) occurring at least twice
across premises plus question. Grams made only of stopwords are dropped. Every
window is first grouped by its lemma sequence, and occurrences are built only
for the grams seen at least twice. The inventory keeps overlapping entries
(both "popular show" and "show"); `select_sites` applies the longest-match
rule once per problem and gives every unit its rewrite sites.
"""

from __future__ import annotations

from ..problem import ConceptEntry, ConceptInventory, ConceptOccurrence, Problem, TextUnit
from ..textproc import STOPWORDS

MAX_N = 3

SiteRows = list[tuple[str, ConceptOccurrence]]


def _occurrence(unit_index: int, unit: TextUnit, first: int, last: int) -> ConceptOccurrence:
    start, end = unit.tokens[first].start, unit.tokens[last].end
    return ConceptOccurrence(unit_index, first, last + 1, start, end, unit.text[start:end])


def identify_repeated(p: Problem, max_n: int = MAX_N) -> ConceptInventory:
    # Every admissible window as (unit index, unit, first token, last token),
    # grouped by lemma sequence; occurrences are built for repeated grams only.
    windows: dict[tuple[str, ...], list[tuple[int, TextUnit, int, int]]] = {}
    for unit_index, unit in p.units():
        tokens = unit.tokens
        words = [i for i, t in enumerate(tokens) if t.is_word]
        for start, first in enumerate(words):
            lemmas: tuple[str, ...] = ()
            stopwords_only = True
            for last in words[start:start + max_n]:
                # n-grams must be contiguous in token space (no gaps across
                # punctuation).
                if last - first != len(lemmas):
                    break
                lemma = tokens[last].lemma
                lemmas += (lemma,)
                stopwords_only = stopwords_only and lemma in STOPWORDS
                if not stopwords_only:
                    windows.setdefault(lemmas, []).append((unit_index, unit, first, last))

    inventory: ConceptInventory = {}
    repeated = [lemmas for lemmas, hits in windows.items() if len(hits) > 1]
    for lemmas in sorted(repeated, key=lambda k: (len(k), k)):
        hits = windows[lemmas]
        _, unit, first, last = hits[0]
        tags = tuple(t.pos for t in unit.tokens[first:last + 1])
        occurrences = tuple(_occurrence(*hit) for hit in hits)
        cid = " ".join(lemmas)
        inventory[cid] = ConceptEntry(lemmas, tags, occurrences)
    return inventory


def select_sites(inventory: ConceptInventory) -> dict[int, SiteRows]:
    """Each unit's non-overlapping rewrite sites, in text order, as
    (concept id, occurrence) rows. Longest-match precedence: longer spans win,
    ties go to the earlier start, then to the smaller concept id. A unit with
    no occurrence has no key."""
    sites: dict[int, SiteRows] = {}
    for cid, entry in inventory.items():
        for occ in entry.occurrences:
            sites.setdefault(occ.unit, []).append((cid, occ))
    for unit, rows in sites.items():
        rows.sort(key=lambda row: (row[1].tok_start - row[1].tok_end, row[1].tok_start, row[0]))
        chosen: SiteRows = []
        taken: set[int] = set()
        for cid, occ in rows:
            span = range(occ.tok_start, occ.tok_end)
            if taken.isdisjoint(span):
                taken.update(span)
                chosen.append((cid, occ))
        sites[unit] = sorted(chosen, key=lambda row: row[1].tok_start)
    return sites
