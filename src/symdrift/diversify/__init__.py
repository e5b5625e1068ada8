"""Logic-invariant linguistic diversification."""

from .concepts import identify_repeated, select_sites
from .pipeline import DiversifyConfig, assemble, diversify_problem, generate_candidates
from .resources import Resources, SynonymLexicon, WordVectors
from .similarity import FallbackScorer, make_scorer, score_similarity
from .variants import RuleRewriter, build_variants

__all__ = [
    "DiversifyConfig", "FallbackScorer", "Resources", "RuleRewriter",
    "SynonymLexicon", "WordVectors", "assemble", "build_variants",
    "diversify_problem", "generate_candidates", "identify_repeated",
    "make_scorer", "score_similarity", "select_sites",
]
