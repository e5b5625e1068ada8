"""Dataset ingestion, translators, run orchestration, and the CLI."""

from .client import Completion, HttpChatClient
from .config import SyntheticConfig, TranslatorConfig
from .datasets import diversified_to_json, load_dataset, problem_to_json, save_dataset
from .evaluate import (
    ALLOWED_SOLVERS,
    normalize_items,
    render_report_text,
    run_evaluation,
    solver_for,
)
from .prompts import PromptLibrary
from .serialize import record_from_json, record_to_json
from .sft import export_sft_traces
from .synthetic import generate_synthetic
from .translators import (
    GoldTranslator,
    LLMTranslator,
    NaiveTranslator,
    SplitAdversaryTranslator,
    extract_csp_block,
    extract_program_block,
    propose_from_templates,
)

__all__ = [
    "ALLOWED_SOLVERS", "Completion", "GoldTranslator", "HttpChatClient",
    "LLMTranslator", "NaiveTranslator", "PromptLibrary",
    "SplitAdversaryTranslator", "SyntheticConfig", "TranslatorConfig",
    "diversified_to_json", "export_sft_traces", "extract_csp_block",
    "extract_program_block", "generate_synthetic", "load_dataset",
    "normalize_items", "problem_to_json", "propose_from_templates",
    "record_from_json", "record_to_json", "render_report_text",
    "run_evaluation", "save_dataset", "solver_for",
]
