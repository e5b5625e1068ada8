"""Function-free first-order logic: data model, dialect, clause conversion."""

from .cnf import Clause, ClauseSet, Literal, SkolemAllocator, to_cnf
from .parser import parse_formula
from .render import render_formula
from .rewrite import ensure_unary, refine_symbol, rename_symbol, rename_symbol_by_name
from .terms import (
    And,
    Atom,
    CLOSED_WORLD,
    CONSTANT,
    CSP_MODE,
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
    PREDICATE,
    SymbolInfo,
    SymbolRegistry,
    Term,
    Var,
    free_variables,
    horn_parts,
    is_horn,
    map_atoms,
    type_check,
    walk_atoms,
)

__all__ = [
    "And", "Atom", "CLOSED_WORLD", "CONSTANT", "CSP_MODE",
    "Clause", "ClauseSet", "Const", "Exists", "ForAll", "Formula", "Iff",
    "Implies", "Literal", "LogicProgram", "Not", "OPEN_WORLD", "Or",
    "PREDICATE", "SkolemAllocator", "SymbolInfo", "SymbolRegistry",
    "Term", "Var", "ensure_unary", "free_variables", "horn_parts", "is_horn",
    "map_atoms", "parse_formula", "refine_symbol", "rename_symbol",
    "rename_symbol_by_name", "render_formula", "to_cnf", "type_check",
    "walk_atoms",
]
