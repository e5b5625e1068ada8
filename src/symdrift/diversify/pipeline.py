"""Candidate generation, minimum-repetition assembly, and the full pipeline.

Rewrite sites are chosen once per problem; every unit, rewritten, kept or
passed through, reads its own. Per sentence, candidates substitute a
concept's word- and phrase-level variants at those sites, then add the rule
rewriter's whole-sentence rewrites of the unit's text.
A greedy pass picks one candidate per sentence while minimizing reuse of
surface forms per concept. Scoring is lazy, in assembly order: each
sentence's candidates are tried from least reuse up, and the similarity
threshold is tested only until one passes, so only meaning-preserving
candidates are picked and the rest are never scored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
from .concepts import SiteRows, identify_repeated, select_sites
from .resources import Resources
from .similarity import FALLBACK, make_scorer, score_similarity
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


@dataclass(frozen=True)
class DiversifyConfig:
    theta: float = 0.90
    intensity: int | None = None  # None = rewrite everything
    scorer: str = FALLBACK
    resources: Resources | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")


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


def _splice(unit: TextUnit, chosen: list[tuple[str, object, str]]) -> Candidate:
    """Rebuild the sentence with per-site replacement surfaces.

    `chosen` rows are (concept id, occurrence, replacement surface); sites are
    non-overlapping and sorted by position.
    """
    text = unit.text
    out = []
    sites = []
    cursor = 0
    offset = 0
    for cid, occ, surface in chosen:
        out.append(text[cursor:occ.char_start])
        start = occ.char_start + offset
        out.append(surface)
        sites.append(CandidateSite(cid, surface, start, start + len(surface)))
        offset += len(surface) - (occ.char_end - occ.char_start)
        cursor = occ.char_end
    out.append(text[cursor:])
    return Candidate("".join(out), tuple(sites))


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
        found: list[tuple[str, object, str]] = []
        ok = True
        used: set[int] = set()
        for cid, _occ in site_rows:
            lemmas = inventory[cid].lemmas
            hit = None
            for i in range(len(tokens) - len(lemmas) + 1):
                if i in used:
                    continue
                window = tokens[i:i + len(lemmas)]
                if tuple(t.lemma for t in window) == lemmas and all(t.is_word for t in window):
                    hit = (i, window)
                    break
            if hit is None:
                ok = False
                break
            i, window = hit
            used.update(range(i, i + len(lemmas)))
            found.append((cid, window, text[window[0].start:window[-1].end]))
        if not ok:
            continue
        sites = tuple(
            CandidateSite(cid, surface, window[0].start, window[-1].end)
            for cid, window, surface in sorted(found, key=lambda row: row[1][0].start)
        )
        out.append(Candidate(text, sites))
    return out


def generate_candidates(unit: TextUnit, site_rows: SiteRows,
                        inventory: ConceptInventory, variants: VariantSet) -> list[Candidate]:
    """Unscored candidate pool for one text unit, without duplicate texts:
    the original first, then splices in site-option order, then sentence
    rewrites. `site_rows` are the unit's rewrite sites."""
    original = _splice(unit, [(cid, occ, occ.surface) for cid, occ in site_rows])

    combos: list[list[str]] = [[]]
    for cid, occ in site_rows:
        pos = inventory[cid].pos[0]
        options = _site_options(cid, occ, variants, pos)
        combos = [prefix + [opt] for prefix in combos for opt in options]
        if len(combos) > MAX_CANDIDATES_PER_UNIT:
            combos = combos[:MAX_CANDIDATES_PER_UNIT]

    produced = [original]
    seen = {original.text}
    for combo in combos:
        candidate = _splice(unit, [
            (cid, occ, surface)
            for (cid, occ), surface in zip(site_rows, combo)
        ])
        if candidate.text not in seen:
            seen.add(candidate.text)
            produced.append(candidate)
    for candidate in _sentence_rewrite_candidates(unit, site_rows, inventory):
        if candidate.text not in seen:
            seen.add(candidate.text)
            produced.append(candidate)
    return produced


@dataclass
class AssemblyResult:
    chosen: list[Candidate]
    provenance: dict[str, list[ProvenanceEntry]] = field(default_factory=dict)


def assemble(candidates: dict[int, list[Candidate]],
             accept: Callable[[int, Candidate], bool] | None = None) -> AssemblyResult:
    """Greedy pass in unit order, minimizing repeats of already-used surface
    forms per concept; ties break toward the lower candidate index.

    Each unit's pool starts with its original, which is always acceptable.
    The others are tried in (cost, index) order, and `accept(unit, candidate)`
    is asked only until one passes; none is asked once the original's cost is
    reached. This picks what filtering every candidate first and then taking
    the least cost would pick.
    """
    used: dict[tuple[str, str], int] = {}
    result = AssemblyResult(chosen=[])
    for unit_index in sorted(candidates, key=lambda u: (u == QUESTION_UNIT, u)):
        options = candidates[unit_index]
        costs = [sum(used.get((s.concept_id, s.surface.lower()), 0) for s in c.sites)
                 for c in options]
        chosen = options[0]
        cheaper = [idx for idx in range(1, len(options)) if costs[idx] < costs[0]]
        for idx in sorted(cheaper, key=costs.__getitem__):
            if accept is None or accept(unit_index, options[idx]):
                chosen = options[idx]
                break
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


def diversify_problem(p: Problem, cfg: DiversifyConfig) -> DiversifiedProblem:
    resources = cfg.resources or Resources.load()
    scorer = make_scorer(cfg.scorer, lexicon=resources.synonyms, vectors=resources.vectors)
    inventory = identify_repeated(p)
    k = len(p.sentences) if cfg.intensity is None else cfg.intensity
    if k > len(p.sentences):
        raise ValueError(f"intensity {k} exceeds sentence count {len(p.sentences)}")
    sites = select_sites(inventory)
    if k == 0 or not inventory:
        # Pass-through: original surfaces at the sites a rewrite would use.
        provenance: dict[str, list[ProvenanceEntry]] = {}
        for unit_index, _unit in p.units():
            for cid, occ in sites.get(unit_index, []):
                provenance.setdefault(cid, []).append(
                    ProvenanceEntry(unit_index, occ.char_start, occ.char_end, occ.surface))
        return DiversifiedProblem(
            base_id=p.id, problem=p, provenance=provenance,
            intensity=0, no_repeats=not inventory,
        ).validate(p)

    variants = build_variants(inventory, resources.synonyms, resources.paraphrases)
    eligible = eligible_units(p, inventory, k)
    per_unit: dict[int, list[Candidate]] = {}
    for unit_index, unit in p.units():
        site_rows = sites.get(unit_index, [])
        if unit_index in eligible:
            per_unit[unit_index] = generate_candidates(unit, site_rows, inventory, variants)
        else:
            per_unit[unit_index] = [
                _splice(unit, [(cid, occ, occ.surface) for cid, occ in site_rows])
            ]

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
