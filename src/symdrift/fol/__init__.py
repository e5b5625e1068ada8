"""Function-free first-order logic: data model, dialect, clause conversion."""

from .cnf import Clause, Literal, to_cnf
from .parser import parse_formula
from .render import render_formula
from .terms import (
    And,
    Atom,
    CLOSED_WORLD,
    Const,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    LogicProgram,
    Not,
    OPEN_WORLD,
    Or,
    SymbolRegistry,
    Var,
    free_variables,
)

__all__ = [
    "And", "Atom", "CLOSED_WORLD", "Clause", "Const", "Exists", "ForAll",
    "Formula", "Iff", "Implies", "Literal", "LogicProgram", "Not",
    "OPEN_WORLD", "Or", "SymbolRegistry", "Var", "free_variables",
    "parse_formula", "render_formula", "to_cnf",
]
