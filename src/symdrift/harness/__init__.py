"""Dataset ingestion, translators, run orchestration, and the CLI."""

from .client import Completion, HttpChatClient, StubClient, UsageLedger
from .config import (
    GOLD,
    LLM,
    NAIVE,
    SPLIT_ADVERSARY,
    SyntheticConfig,
    TranslatorConfig,
    read_config_file,
    write_config_file,
)
from .datasets import (
    diversified_from_json,
    diversified_to_json,
    load_dataset,
    problem_from_json,
    problem_to_json,
    program_from_json,
    program_to_json,
    save_dataset,
)
from .evaluate import (
    ALLOWED_SOLVERS,
    AUTO,
    RunReport,
    evaluate_one,
    normalize_items,
    render_report_text,
    run_evaluation,
    solver_for,
)
from .prompts import PromptLibrary
from .serialize import record_from_json, record_to_json
from .sft import export_sft_traces
from .synthetic import ATTRIBUTES, NAMES, generate_synthetic, proof_depth
from .translators import (
    ExactMatchOracle,
    GoldTranslator,
    LLMTranslator,
    NaiveTranslator,
    SplitAdversaryTranslator,
    extract_csp_block,
    extract_program_block,
    make_translator,
    parse_proposal_lines,
    propose_from_templates,
)

__all__ = [
    "ALLOWED_SOLVERS", "ATTRIBUTES", "AUTO", "Completion",
    "ExactMatchOracle", "GOLD", "GoldTranslator",
    "HttpChatClient", "LLM", "LLMTranslator", "NAIVE", "NAMES",
    "NaiveTranslator", "PromptLibrary", "RunReport",
    "SPLIT_ADVERSARY", "SplitAdversaryTranslator", "StubClient",
    "SyntheticConfig", "TranslatorConfig", "UsageLedger",
    "diversified_from_json", "diversified_to_json", "evaluate_one",
    "export_sft_traces", "extract_csp_block", "extract_program_block",
    "generate_synthetic", "load_dataset",
    "make_translator", "normalize_items", "parse_proposal_lines",
    "problem_from_json", "problem_to_json", "program_from_json",
    "program_to_json", "proof_depth", "propose_from_templates",
    "read_config_file", "record_from_json", "record_to_json",
    "render_report_text", "run_evaluation", "save_dataset", "solver_for",
    "write_config_file",
]
