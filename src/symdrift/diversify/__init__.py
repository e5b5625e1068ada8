"""Logic-invariant linguistic diversification and exploratory perturbations."""

from .concepts import identify_repeated, select_sites
from .perturb import (
    POS_SHIFT,
    SYNONYM,
    SYNTACTIC,
    THIRD_PERSON,
    perturb_exploratory,
    perturb_with_sites,
)
from .pipeline import DiversifyConfig, assemble, diversify_problem, generate_candidates
from .resources import Resources, SynonymLexicon, WordVectors
from .similarity import FallbackScorer, make_scorer, score_similarity
from .variants import RuleRewriter, build_variants

__all__ = [
    "DiversifyConfig", "FallbackScorer", "POS_SHIFT", "Resources",
    "RuleRewriter", "SYNONYM", "SYNTACTIC", "SynonymLexicon", "THIRD_PERSON",
    "WordVectors", "assemble", "build_variants", "diversify_problem",
    "generate_candidates", "identify_repeated", "make_scorer",
    "perturb_exploratory", "perturb_with_sites", "score_similarity",
    "select_sites",
]
