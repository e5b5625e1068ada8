"""Whole-program symbol rewrites: renaming and compound refinement.

Both return new programs; the input and its registry are never mutated.
"""

from __future__ import annotations

from ..errors import NameCollision, NonUnaryCompound, UnknownSymbol
from .terms import (
    And,
    Atom,
    Formula,
    LogicProgram,
    PREDICATE,
    SymbolRegistry,
    map_atoms,
)


def rename_symbol(p: LogicProgram, old: str, new_name: str) -> LogicProgram:
    """Rename symbol id `old` to `new_name`; formula structure is untouched."""
    registry = p.registry.copy()
    info = registry.info(old)  # raises UnknownSymbol for absent ids
    if registry.lookup(new_name, info.kind) not in (None, old):
        raise NameCollision(f"{info.kind} name {new_name!r} already in use")
    registry.rename(old, new_name)
    return LogicProgram(registry, p.premises, p.query, p.semantics_mode)


def rename_symbol_by_name(p: LogicProgram, old_name: str, new_name: str,
                          kind: str = PREDICATE) -> LogicProgram:
    sid = p.registry.lookup(old_name, kind)
    if sid is None:
        raise UnknownSymbol(f"no {kind} named {old_name!r}")
    return rename_symbol(p, sid, new_name)


def refine_symbol(p: LogicProgram, compound: str, left: str, right: str) -> LogicProgram:
    """Replace every atom `compound(t)` by `left(t) & right(t)`.

    The compound must be a unary predicate; the two parts are unary
    predicate ids (callers auto-register them first via `ensure_predicate`).
    The compound is removed from the registry even when it had no occurrences.
    Substitution happens at the atom level, so it is polarity-safe. A program
    still being built may have no query yet; it is mapped only when present.
    """
    registry = p.registry.copy()
    comp_info = registry.info(compound)
    if comp_info.kind != PREDICATE or comp_info.arity != 1:
        raise NonUnaryCompound(
            f"{comp_info.name!r} is {comp_info.kind} of arity {comp_info.arity}"
        )
    for part in (left, right):
        part_info = registry.info(part)
        if part_info.kind != PREDICATE or part_info.arity != 1:
            raise NonUnaryCompound(
                f"{part_info.name!r} is {part_info.kind} of arity {part_info.arity}"
            )

    def expand(atom: Atom) -> Formula:
        if atom.pred != compound:
            return atom
        return And(Atom(left, atom.args), Atom(right, atom.args))

    premises = tuple(map_atoms(f, expand) for f in p.premises)
    query = map_atoms(p.query, expand) if p.query is not None else None
    registry.remove(compound)
    return LogicProgram(registry, premises, query, p.semantics_mode)


def ensure_predicate(registry: SymbolRegistry, name: str, arity: int = 1) -> str:
    """Fetch-or-declare a predicate by name; an existing one keeps its arity."""
    sid = registry.lookup(name, PREDICATE)
    if sid is None:
        sid = registry.declare(name, arity, PREDICATE)
    return sid
