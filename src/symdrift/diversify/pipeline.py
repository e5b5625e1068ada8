"""Candidate generation, minimum-repetition assembly, and the full pipeline.

Rewrite sites are chosen once per problem; every unit, rewritten, kept or
passed through, reads its own. Per sentence, candidates substitute a
concept's word- and phrase-level variants at those sites, then add the rule
rewriter's whole-sentence rewrites of the unit's text.
A greedy pass picks one candidate per sentence while minimizing reuse of
surface forms per concept. Both text and scores are made on demand: a pool
holds each site's options and their ranking keys, assembly ranks the
combinations by those keys alone, and a candidate's text is spliced only
when the similarity threshold is tested on it or it is chosen. Each
sentence's candidates are tried from least reuse up, and the threshold is
tested only until one passes, so only meaning-preserving candidates are
picked and the rest are never spliced or scored.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Collection, NamedTuple, Sequence

from ..errors import ScorerUnavailable
from ..problem import (
    ConceptInventory,
    DiversifiedProblem,
    Problem,
    ProvenanceEntry,
    QUESTION_UNIT,
    TextUnit,
    VariantSet,
)
from ..textproc import match_surface, tokenize
from .concepts import SiteRows, identify_repeated, repeated_ids, select_sites
from .resources import Resources
from .similarity import FALLBACK, VECTORS, make_scorer, score_similarity
from .variants import RuleRewriter, build_variants

MAX_CANDIDATES_PER_UNIT = 64


class CandidateSite(NamedTuple):
    concept_id: str
    surface: str
    char_start: int
    char_end: int


class Candidate(NamedTuple):
    text: str
    sites: tuple[CandidateSite, ...]


class _DiversifyFields(NamedTuple):
    resources: Resources  # the run's lexicons, as the CLI loaded them
    theta: float = 0.90
    intensity: int | float = 1.0  # as `parse_intensity` reads it; 1.0 is `full`
    scorer: str = FALLBACK


class DiversifyConfig(_DiversifyFields):
    """A rewrite run's settings and the lexicons it reads. Built once per
    run, before any input is read, it is the one check that the scorer can
    run on those lexicons."""
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        """Checks the value `__new__` built; `_replace` builds without it."""
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")
        level = self.intensity  # what `parse_intensity` can return; a bool is no count
        if not (type(level) is int and level >= 0 or type(level) is float and 0 <= level <= 1):
            raise ValueError(f"intensity must be a sentence count or a fraction in [0, 1], "
                             f"got {level!r}")
        if self.scorer not in (FALLBACK, VECTORS):
            raise ValueError(f"unknown scorer {self.scorer!r}")
        vectors = self.resources.vectors
        if self.scorer == VECTORS and (vectors is None or vectors.dim == 0):
            raise ScorerUnavailable("--scorer vectors needs a word-vector file: "
                                    "set resources.vectors in the --config file")


_COUNT = re.compile(r"\d+\Z")
_FRACTION = re.compile(r"(\d+\.\d*|\.\d+)\Z")


def parse_intensity(text: str) -> int | float:
    """The one intensity grammar: an integer is a sentence count, a decimal
    in [0, 1] a fraction of each problem's sentences, and `full` the
    fraction 1.0 (every sentence, and the question with them)."""
    text = text.strip()
    if text == "full":
        return 1.0
    if _COUNT.match(text):
        return int(text)
    if _FRACTION.match(text) and float(text) <= 1.0:
        return float(text)
    raise ValueError(
        f"intensity must be 'full', a sentence count or a fraction in [0, 1], got {text!r}"
    )


def sentence_count(level: int | float, n_sentences: int) -> int:
    """Sentences to rewrite at `level`; a count past the end means all."""
    if isinstance(level, int):
        return min(level, n_sentences)
    return round(level * n_sentences)


def _site_options(cid: str, occ, variants: VariantSet, pos: str) -> list[str]:
    """Replacement surfaces for one site: the original first, then word- and
    phrase-level variants adapted to the original's inflection and casing."""
    options = [occ.surface]
    for variant in variants.get(cid, []):
        adapted = match_surface(variant.text, occ.surface, pos)
        if adapted.lower() != occ.surface.lower() and adapted not in options:
            options.append(adapted)
    return options


def _sentence_rewrite_candidates(unit: TextUnit, site_rows: SiteRows,
                                 inventory: ConceptInventory) -> list[Candidate]:
    """Whole-sentence rewrites of a unit with rewrite sites, with the sites
    recovered by scanning the new text for each concept's lemma sequence
    (rewrites only move template glue). `site_rows` are the unit's rewrite
    sites, as `select_sites` gives them."""
    out = []
    for text in RuleRewriter().rewrite(unit.text) if site_rows else ():
        tokens = tokenize(text)
        seq = tuple(t.lemma if t.is_word else None for t in tokens)
        found: list[tuple[str, int, int]] = []
        used: set[int] = set()
        for cid, _occ in site_rows:
            lemmas = inventory[cid].lemmas
            n = len(lemmas)
            hit = next((i for i in range(len(seq) - n + 1)
                        if i not in used and seq[i:i + n] == lemmas), None)
            if hit is None:
                break
            used.update(range(hit, hit + n))
            found.append((cid, tokens[hit].start, tokens[hit + n - 1].end))
        else:
            sites = tuple(CandidateSite(cid, text[start:end], start, end)
                          for cid, start, end in sorted(found, key=lambda row: row[1]))
            out.append(Candidate(text, sites))
    return out


class CandidatePool:
    """One unit's candidates without duplicate texts, in pool order: the
    first `MAX_CANDIDATES_PER_UNIT` combinations of site options in product
    order (the first, every site's original surface, is the original), then
    the sentence rewrites. A candidate is addressed by its raw index, its
    place in that order before duplicates are dropped. The unit's text is cut
    once, into the gaps between sites: a combination is spliced from them
    only when it is asked for, and twin texts are found by matching them."""

    def __init__(self, unit: TextUnit, site_rows: SiteRows, options: list[list[str]],
                 rewrites: Sequence[Candidate] = ()) -> None:
        self.site_rows = site_rows
        self.options = options
        self.rewrites = rewrites
        # Each site's ranking keys, one per option.
        self.site_keys = [[(cid, surface.lower()) for surface in opts]
                          for (cid, _occ), opts in zip(site_rows, options)]
        self.n_combos = min(math.prod(map(len, options)), MAX_CANDIDATES_PER_UNIT)
        text, cursor, gaps = unit.text, 0, []
        for _cid, occ in site_rows:
            gaps.append(text[cursor:occ.char_start])
            cursor = occ.char_end
        gaps.append(text[cursor:])
        self._gaps = gaps

    def candidate(self, index: int) -> Candidate:
        if index >= self.n_combos:
            return self.rewrites[index - self.n_combos]
        surfaces = []
        for opts in reversed(self.options):
            index, digit = divmod(index, len(opts))
            surfaces.append(opts[digit])
        text, sites = self._gaps[0], []
        for (cid, _occ), surface, gap in zip(self.site_rows, reversed(surfaces), self._gaps[1:]):
            sites.append(CandidateSite(cid, surface, len(text), len(text) + len(surface)))
            text += surface + gap
        return Candidate(text, tuple(sites))

    def repeats(self, index: int, text: str) -> bool:
        """Whether a candidate before raw `index` has the text `text`."""
        first = self._first_combo(text, 0, 0, 0)
        if first is not None and first < min(index, self.n_combos):
            return True
        return any(c.text == text for c in self.rewrites[:max(index - self.n_combos, 0)])

    def _first_combo(self, text: str, site: int, pos: int, index: int) -> int | None:
        """The least combination index, in or past the pool, that splices
        to `text`: a depth-first walk that matches the unit's text between
        sites and each site's options in order, from `site` on at `pos`
        with the digits so far in `index`. Nothing is spliced."""
        gap = self._gaps[site]
        if not text.startswith(gap, pos):
            return None
        pos += len(gap)
        if site == len(self.options):
            return index if pos == len(text) else None
        opts = self.options[site]
        for digit, surface in enumerate(opts):
            if text.startswith(surface, pos):
                found = self._first_combo(text, site + 1, pos + len(surface),
                                          index * len(opts) + digit)
                if found is not None:
                    return found
        return None

    def __len__(self) -> int:
        return len({self.candidate(index).text
                    for index in range(self.n_combos + len(self.rewrites))})


def generate_candidates(unit: TextUnit, site_rows: SiteRows,
                        inventory: ConceptInventory, variants: VariantSet) -> CandidatePool:
    """Unspliced candidate pool for one text unit: substitutions of each
    site's variants, then sentence rewrites. `site_rows` are the unit's
    rewrite sites."""
    options = [_site_options(cid, occ, variants, inventory[cid].pos[0])
               for cid, occ in site_rows]
    return CandidatePool(unit, site_rows, options,
                         _sentence_rewrite_candidates(unit, site_rows, inventory))


class AssemblyResult:
    __slots__ = ("chosen", "provenance")

    def __init__(self) -> None:
        self.chosen: list[Candidate] = []
        self.provenance: dict[str, list[ProvenanceEntry]] = {}


def assemble(pools: dict[int, CandidatePool],
             accept: Callable[[int, Candidate], bool]) -> AssemblyResult:
    """Greedy pass in unit order, minimizing repeats of already-used surface
    forms per concept; ties break toward the lower candidate index.

    Each unit's pool starts with its original, which is always acceptable.
    The others are tried in (cost, index) order, costs summed from the
    pool's keys, and `accept(unit, candidate)` is asked only until one
    passes; none is asked once the original's cost is reached. A candidate
    whose text an earlier one has is passed over unasked. This picks what
    filtering every candidate first and then taking the least cost would
    pick, while splicing only the candidates asked about and the one chosen.
    """
    used: dict[tuple[str, str], int] = {}
    result = AssemblyResult()
    for unit_index in sorted(pools, key=lambda u: (u == QUESTION_UNIT, u)):
        pool = pools[unit_index]
        costs = [0]
        for keys in pool.site_keys:
            site_costs = [used.get(key, 0) for key in keys]
            costs = [c + extra for c in costs for extra in site_costs][:MAX_CANDIDATES_PER_UNIT]
        costs += [sum(used.get((s.concept_id, s.surface.lower()), 0) for s in c.sites)
                  for c in pool.rewrites]
        chosen = None
        cheaper = [idx for idx in range(1, len(costs)) if costs[idx] < costs[0]]
        for idx in sorted(cheaper, key=costs.__getitem__):
            candidate = pool.candidate(idx)
            if pool.repeats(idx, candidate.text):
                continue
            if accept(unit_index, candidate):
                chosen = candidate
                break
        if chosen is None:
            chosen = pool.candidate(0)
        result.chosen.append(chosen)
        for s in chosen.sites:
            key = (s.concept_id, s.surface.lower())
            used[key] = used.get(key, 0) + 1
            result.provenance.setdefault(s.concept_id, []).append(
                ProvenanceEntry(unit_index, s.char_start, s.char_end, s.surface)
            )
    return result


def eligible_units(p: Problem, inventory: ConceptInventory, k: int) -> set[int]:
    """The k premise sentences with the most repeated-concept occurrences
    (ties by sentence index). The question joins only at full intensity, so
    partial levels stress premise-side consistency progressively."""
    counts = {i: 0 for i in range(len(p.sentences))}
    for entry in inventory.values():
        for occ in entry.occurrences:
            if occ.unit != QUESTION_UNIT:
                counts[occ.unit] += 1
    ranked = sorted(counts, key=lambda i: (-counts[i], i))
    chosen = set(ranked[:k])
    if k == len(p.sentences):
        chosen.add(QUESTION_UNIT)
    return chosen


def _pass_through(p: Problem, repeated: Collection[str]) -> DiversifiedProblem:
    """The problem unchanged, with its original surfaces as provenance at
    the sites a rewrite would use."""
    provenance: dict[str, list[ProvenanceEntry]] = {}
    for unit_index, rows in select_sites(p, repeated).items():
        for cid, occ in rows:
            provenance.setdefault(cid, []).append(
                ProvenanceEntry(unit_index, occ.char_start, occ.char_end, occ.surface))
    return DiversifiedProblem(
        base_id=p.id, problem=p, provenance=provenance,
        intensity=0, no_repeats=not repeated,
    ).validate(p)


def diversify_problem(p: Problem, cfg: DiversifyConfig) -> DiversifiedProblem:
    """Rewrite `p` at the run's level `cfg.intensity`, resolved here to this
    problem's `sentence_count`: that many sentences with the most
    repeated-concept occurrences are rewritten, and the question with them
    when the count is every sentence (`eligible_units`). A candidate is kept
    only if it scores at least `cfg.theta` against the text it replaces."""
    k = sentence_count(cfg.intensity, len(p.sentences))
    if k == 0:
        return _pass_through(p, repeated_ids(p))
    inventory = identify_repeated(p)
    if not inventory:
        return _pass_through(p, inventory)
    scorer = make_scorer(cfg.scorer, cfg.resources)
    sites = select_sites(p, inventory)
    variants = build_variants(inventory, cfg.resources.synonyms, cfg.resources.paraphrases)
    eligible = eligible_units(p, inventory, k)
    per_unit: dict[int, CandidatePool] = {}
    for unit_index, unit in p.units():
        site_rows = sites.get(unit_index, [])
        if unit_index in eligible:
            per_unit[unit_index] = generate_candidates(unit, site_rows, inventory, variants)
        else:
            per_unit[unit_index] = CandidatePool(
                unit, site_rows, [[occ.surface] for _cid, occ in site_rows])

    def meaning_preserving(unit_index: int, candidate: Candidate) -> bool:
        original = p.unit(unit_index).text
        return score_similarity(original, candidate.text, scorer) >= cfg.theta

    assembly = assemble(per_unit, meaning_preserving)
    by_unit = dict(zip(sorted(per_unit, key=lambda u: (u == QUESTION_UNIT, u)),
                       assembly.chosen))
    new_sentences = tuple(
        TextUnit.from_text(by_unit[i].text) for i in range(len(p.sentences))
    )
    new_question = TextUnit.from_text(by_unit[QUESTION_UNIT].text)
    intensity = sum(
        1 for ours, theirs in zip(new_sentences, p.sentences) if ours.text != theirs.text
    )
    rewritten = p.with_units(new_sentences, new_question)
    return DiversifiedProblem(
        base_id=p.id,
        problem=rewritten,
        provenance=assembly.provenance,
        intensity=intensity,
    ).validate(p)
