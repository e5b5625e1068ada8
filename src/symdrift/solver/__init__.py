"""Desk-scale decision engines plus the model-enumeration oracle."""

from .chaining import Saturation, forward_chain_cwa, saturate
from .csp import (
    ADJACENT,
    AT_POSITION,
    Constraint,
    CSPSpec,
    LEFT_OF,
    NOT_AT_POSITION,
    Option,
    RIGHT_OF,
    iter_solutions,
    solve_csp,
)
from .enumeration import enumerate_models
from .resolution import DEFAULT_MAX_STEPS, prove_resolution
from .verdict import DISPROVED, FALSE, OPTION, PROVED, TRUE, UNKNOWN, Verdict

__all__ = [
    "ADJACENT", "AT_POSITION", "CSPSpec", "Constraint", "DEFAULT_MAX_STEPS",
    "DISPROVED", "FALSE", "LEFT_OF", "NOT_AT_POSITION", "OPTION", "Option",
    "PROVED", "RIGHT_OF", "Saturation", "TRUE", "UNKNOWN", "Verdict",
    "enumerate_models", "forward_chain_cwa", "iter_solutions",
    "prove_resolution", "saturate", "solve_csp",
]
