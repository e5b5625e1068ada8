"""Desk-scale decision engines plus the model-enumeration oracle."""

from .chaining import forward_chain_cwa
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
from .resolution import prove_resolution
from .verdict import Verdict

__all__ = [
    "ADJACENT", "AT_POSITION", "CSPSpec", "Constraint", "LEFT_OF",
    "NOT_AT_POSITION", "Option", "RIGHT_OF", "Verdict", "enumerate_models",
    "forward_chain_cwa", "iter_solutions", "prove_resolution", "solve_csp",
]
