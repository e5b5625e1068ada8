"""Dispersion scoring, the error taxonomy, and intensity curves."""

from .records import CORRECT, EXEC_ERROR, LOGIC_ERROR, PARSE_ERROR, TranslationRecord
from .sds import align_symbols, compute_sds
from .sweep import intensity_sweep, sweep_to_csv
from .taxonomy import (
    CORRECTED_OTHER,
    CORRECTED_VIA_CONSISTENCY,
    NEWLY_INTRODUCED,
    REMAINING_OTHER,
    REMAINING_WITHOUT_CONSISTENCY,
    accuracy,
    attribute_errors,
    classify_error,
    error_histogram,
)

__all__ = [
    "CORRECT", "CORRECTED_OTHER", "CORRECTED_VIA_CONSISTENCY", "EXEC_ERROR",
    "LOGIC_ERROR", "NEWLY_INTRODUCED", "PARSE_ERROR", "REMAINING_OTHER",
    "REMAINING_WITHOUT_CONSISTENCY", "TranslationRecord", "accuracy",
    "align_symbols", "attribute_errors", "classify_error", "compute_sds",
    "error_histogram", "intensity_sweep", "sweep_to_csv",
]
