"""Table-guided translation: expression routing with extend/reuse/refine."""

from .oracles import LexiconOracle, LLMOracle
from .table import EXTEND, MentalTable, REFINE, REUSE, camel_case_symbol
from .translate import (
    Proposal,
    TranslationState,
    process_expression,
    translate_with_mental,
)

__all__ = [
    "EXTEND", "LLMOracle", "LexiconOracle", "MentalTable", "Proposal",
    "REFINE", "REUSE", "TranslationState", "camel_case_symbol",
    "process_expression", "translate_with_mental",
]
