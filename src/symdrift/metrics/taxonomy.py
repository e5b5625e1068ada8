"""Error classification, accuracy, and the before/after attribution split."""

from __future__ import annotations

from ..errors import PairingMismatch
from .records import (
    CORRECT,
    EXEC_ERROR,
    LOGIC_ERROR,
    PARSE_ERROR,
    TranslationRecord,
)

CORRECTED_VIA_CONSISTENCY = "corrected via symbol consistency"
CORRECTED_OTHER = "corrected via other"
REMAINING_OTHER = "remaining other"
REMAINING_WITHOUT_CONSISTENCY = "remaining without consistency"
NEWLY_INTRODUCED = "newly introduced other"

ATTRIBUTION_CATEGORIES = (
    CORRECTED_VIA_CONSISTENCY,
    CORRECTED_OTHER,
    REMAINING_OTHER,
    REMAINING_WITHOUT_CONSISTENCY,
    NEWLY_INTRODUCED,
)


def classify_error(record: TranslationRecord) -> str:
    """Mutually exclusive, exhaustive: parse beats exec beats logic."""
    if record.program is None:
        return PARSE_ERROR
    if record.exec_error is not None:
        return EXEC_ERROR
    if record.predicted != record.gold:
        return LOGIC_ERROR
    return CORRECT


def accuracy(records: list[TranslationRecord]) -> float:
    if not records:
        raise ValueError("accuracy over an empty record list")
    return sum(1 for r in records if classify_error(r) == CORRECT) / len(records)


def error_histogram(records: list[TranslationRecord]) -> dict[str, int]:
    out = {CORRECT: 0, PARSE_ERROR: 0, EXEC_ERROR: 0, LOGIC_ERROR: 0}
    for record in records:
        out[classify_error(record)] += 1
    return out


def attribute_errors(before: list[TranslationRecord],
                     after: list[TranslationRecord]) -> dict[str, int]:
    """Bucket every problem wrong in at least one run into five categories,
    splitting corrections by whether the after-run reached a consistent
    concept-to-symbol alignment."""
    before_by_id = {r.problem_id: r for r in before}
    after_by_id = {r.problem_id: r for r in after}
    if set(before_by_id) != set(after_by_id):
        raise PairingMismatch(
            f"record sets cover different problems: "
            f"{sorted(set(before_by_id) ^ set(after_by_id))[:5]}..."
        )
    counts = {category: 0 for category in ATTRIBUTION_CATEGORIES}
    for problem_id in sorted(before_by_id):
        b, a = before_by_id[problem_id], after_by_id[problem_id]
        wrong_before = classify_error(b) != CORRECT
        wrong_after = classify_error(a) != CORRECT
        if not wrong_before and not wrong_after:
            continue
        if wrong_before and not wrong_after:
            if not b.is_consistent() and a.is_consistent():
                counts[CORRECTED_VIA_CONSISTENCY] += 1
            else:
                counts[CORRECTED_OTHER] += 1
        elif wrong_before and wrong_after:
            if a.is_consistent():
                counts[REMAINING_OTHER] += 1
            else:
                counts[REMAINING_WITHOUT_CONSISTENCY] += 1
        else:
            counts[NEWLY_INTRODUCED] += 1
    return counts
