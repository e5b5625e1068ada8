"""Logic-invariant linguistic diversification and exploratory perturbations."""

from .concepts import ConceptConfig, identify_repeated, select_sites
from .perturb import (
    ALL_TYPES,
    POS_SHIFT,
    PerturbationSite,
    SYNONYM,
    SYNTACTIC,
    THIRD_PERSON,
    perturb_exploratory,
    perturb_with_sites,
)
from .pipeline import (
    AssemblyResult,
    Candidate,
    CandidateSite,
    DiversifyConfig,
    assemble,
    diversify_problem,
    eligible_units,
    generate_candidates,
)
from .resources import (
    DerivationTable,
    ParaphraseTable,
    Resources,
    SynonymLexicon,
    WordVectors,
)
from .similarity import (
    FALLBACK,
    FallbackScorer,
    REMOTE,
    RemoteScorer,
    VECTORS,
    VectorScorer,
    make_scorer,
    score_similarity,
)
from .variants import RuleRewriter, build_variants

__all__ = [
    "ALL_TYPES", "AssemblyResult", "Candidate", "CandidateSite",
    "ConceptConfig", "DerivationTable", "DiversifyConfig", "FALLBACK",
    "FallbackScorer", "POS_SHIFT", "ParaphraseTable",
    "PerturbationSite", "REMOTE", "RemoteScorer", "Resources", "RuleRewriter",
    "SYNONYM", "SYNTACTIC", "SynonymLexicon", "THIRD_PERSON", "VECTORS",
    "VectorScorer", "WordVectors", "assemble", "build_variants",
    "diversify_problem", "eligible_units", "generate_candidates",
    "identify_repeated", "make_scorer", "perturb_exploratory",
    "perturb_with_sites", "score_similarity", "select_sites",
]
