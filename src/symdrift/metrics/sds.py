"""Symbol dispersion: how many distinct symbols each concept scattered into.

The score averages (distinct symbols - 1) over concepts, pooled across the
whole record set; zero means every concept kept a single symbol. Concepts the
translator dropped entirely (no symbol at all) score zero drift but are
counted separately, since the raw formula would go negative on them. A record
set in which no concept got a symbol (none at all included) has no score:
`compute_sds` returns `value` None, with every concept counted as dropped, and
every reader prints that as unmeasured (`null`, `n/a`), never as 0.0.

A concept's symbols come from `align_symbols`, the one aligner: it joins the
diversification provenance (each occurrence's unit and char span) with the
span-to-symbol ledger the translator recorded. A translator that records no
spans leaves its concepts unaligned rather than guessed.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import AlignmentIncomplete
from ..problem import DiversifiedProblem
from .records import TranslationRecord


class SdsResult(NamedTuple):
    value: float | None  # None when dispersion was not measured
    concepts: int
    drifted_concepts: int
    dropped_concepts: int
    per_problem: dict[str, float]


def compute_sds(records: list[TranslationRecord]) -> SdsResult:
    total = 0
    drift_sum = 0
    drifted = 0
    dropped = 0
    per_problem: dict[str, float] = {}
    for record in records:
        problem_drift = 0
        problem_concepts = 0
        for symbols in record.alignment.values():
            total += 1
            problem_concepts += 1
            if not symbols:
                dropped += 1
                continue
            drift = len(symbols) - 1
            drift_sum += drift
            problem_drift += drift
            if drift > 0:
                drifted += 1
        if problem_concepts:
            per_problem[record.problem_id] = problem_drift / problem_concepts
    return SdsResult(
        value=None if dropped == total else drift_sum / total,
        concepts=total,
        drifted_concepts=drifted,
        dropped_concepts=dropped,
        per_problem=per_problem,
    )


def align_symbols(record: TranslationRecord, item: DiversifiedProblem) -> dict[str, set[str]]:
    """Fill `record.alignment` by joining the diversification provenance with
    the record's span ledger: each concept gets the symbols its occurrence
    spans were translated to. An occurrence with no ledger entry is appended
    to `record.alignment_misses` and adds no symbol."""
    if record.parse_error is not None:
        raise AlignmentIncomplete("nothing to align: record has no program")
    alignment: dict[str, set[str]] = {}
    for concept_id, entries in item.provenance.items():
        symbols: set[str] = set()
        for entry in entries:
            symbol = record.span_symbols.get((entry.unit, entry.char_start, entry.char_end))
            if symbol is None:
                record.alignment_misses.append(f"{concept_id}:{entry.unit}:{entry.surface}")
            else:
                symbols.add(symbol)
        alignment[concept_id] = symbols
    record.alignment = alignment
    return alignment
