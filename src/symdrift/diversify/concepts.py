"""Repeated-concept identification and rewrite-site selection.

Concepts are lemmatized n-grams (n <= `MAX_N`) occurring at least twice
across premises plus question. Grams made only of stopwords are dropped.
A text's admissible windows are found once per process: a memo keyed by
the unit's text holds them as immutable, shared rows, each gram's
interned id with its token and character span, in site precedence order
(longer spans first, then earlier starts). Counting ids over a problem's
windows tells which grams repeat; occurrences are built only for those.
The inventory keeps overlapping entries (both "popular show" and "show");
`select_sites` walks each unit's windows once in precedence order and keeps
the repeated ones that overlap no kept one.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Collection

from ..problem import ConceptEntry, ConceptInventory, ConceptOccurrence, Problem, TextUnit
from ..textproc import STOPWORDS

MAX_N = 3

SiteRows = list[tuple[str, ConceptOccurrence]]

# (concept id, first token, last token, char start, char end)
Window = tuple[str, int, int, int, int]

_WINDOWS: dict[str, tuple[Window, ...]] = {}
# One object per distinct row: texts of one template share most of theirs.
_ROWS: dict[Window, Window] = {}


def _windows(unit: TextUnit) -> tuple[Window, ...]:
    """The unit's admissible windows in site precedence order, memoized."""
    found = _WINDOWS.get(unit.text)
    if found is None:
        tokens = unit.tokens
        words = [i for i, t in enumerate(tokens) if t.is_word]
        rows: list[Window] = []
        for start, first in enumerate(words):
            lemmas: tuple[str, ...] = ()
            stopwords_only = True
            for last in words[start:start + MAX_N]:
                # n-grams must be contiguous in token space (no gaps across
                # punctuation).
                if last - first != len(lemmas):
                    break
                lemma = tokens[last].lemma
                lemmas += (lemma,)
                stopwords_only = stopwords_only and lemma in STOPWORDS
                if not stopwords_only:
                    row = (sys.intern(" ".join(lemmas)), first, last,
                           tokens[first].start, tokens[last].end)
                    rows.append(_ROWS.setdefault(row, row))
        rows.sort(key=lambda w: (w[1] - w[2], w[1]))
        found = _WINDOWS[unit.text] = tuple(rows)
    return found


def repeated_ids(p: Problem) -> set[str]:
    """The ids of the grams occurring at least twice across the problem."""
    counts = Counter(w[0] for _, unit in p.units() for w in _windows(unit))
    return {cid for cid, n in counts.items() if n > 1}


def identify_repeated(p: Problem) -> ConceptInventory:
    repeated = repeated_ids(p)
    occurrences: dict[str, list[ConceptOccurrence]] = {}
    tags: dict[str, tuple[str, ...]] = {}
    for unit_index, unit in p.units():
        # A gram's windows in one unit share a length, so precedence order
        # lists them by start.
        for cid, first, last, start, end in _windows(unit):
            if cid in repeated:
                if cid not in occurrences:
                    occurrences[cid] = []
                    tags[cid] = tuple(t.pos for t in unit.tokens[first:last + 1])
                occurrences[cid].append(ConceptOccurrence(
                    unit_index, first, last + 1, start, end, unit.text[start:end]))
    lemmas = {cid: tuple(cid.split(" ")) for cid in occurrences}
    return {cid: ConceptEntry(lemmas[cid], tags[cid], tuple(occurrences[cid]))
            for cid in sorted(lemmas, key=lambda c: (len(lemmas[c]), lemmas[c]))}


def select_sites(p: Problem, repeated: Collection[str]) -> dict[int, SiteRows]:
    """Each unit's non-overlapping rewrite sites, in text order, as
    (concept id, occurrence) rows, over the grams in `repeated` (an
    inventory serves). Longest-match precedence: longer spans win, ties go
    to the earlier start. A unit with no repeated gram has no key."""
    sites: dict[int, SiteRows] = {}
    for unit_index, unit in p.units():
        chosen: SiteRows = []
        taken = 0  # bit i set: token i is inside a chosen site
        for cid, first, last, start, end in _windows(unit):
            if cid not in repeated:
                continue
            span = (1 << (last + 1)) - (1 << first)
            if not taken & span:
                taken |= span
                chosen.append((cid, ConceptOccurrence(
                    unit_index, first, last + 1, start, end, unit.text[start:end])))
        if chosen:
            sites[unit_index] = sorted(chosen, key=lambda row: row[1].tok_start)
    return sites
