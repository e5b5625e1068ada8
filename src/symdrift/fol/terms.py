"""First-order data model: terms, formulas, symbol registry, logic programs.

The fragment is function-free (constants and predicates only, no equality).
Formulas store opaque symbol ids; human-readable names live in the registry.
`horn_parts` is the one reading of the closed world's Horn form: the
program's `check_world` and forward chaining both take it from there.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ArityMismatch, NotHorn, UnknownSymbol

PREDICATE = "predicate"
CONSTANT = "constant"

OPEN_WORLD = "open_world"
CLOSED_WORLD = "closed_world"
CSP_MODE = "csp"

_ALNUM_RUN = re.compile(r"[A-Za-z0-9]+")


def camel_identifier(words: str) -> str:
    """`words` as one CamelCase symbol name that is always a valid identifier:
    split on non-alphanumerics, each part capitalized and the rest lowercased;
    `Expr` when no part is left, and an `N` before a leading digit."""
    name = "".join(p[:1].upper() + p[1:].lower() for p in _ALNUM_RUN.findall(words))
    if not name:
        return "Expr"
    return "N" + name if name[0].isdigit() else name


def fresh_name(base: str, taken: set[str]) -> str:
    """`base`, or the first of `base2`, `base3`, ... that is not in `taken`."""
    name, n = base, 2
    while name in taken:
        name, n = f"{base}{n}", n + 1
    return name


# ---------------------------------------------------------------------------
# Terms and formula nodes


class Var(NamedTuple):
    name: str


class Const(NamedTuple):
    symbol: str  # registry id


Term = Var | Const


class Atom(NamedTuple):
    pred: str  # registry id
    args: tuple[Term, ...] = ()


class Not(NamedTuple):
    body: "Formula"


class And(NamedTuple):
    left: "Formula"
    right: "Formula"


class Or(NamedTuple):
    left: "Formula"
    right: "Formula"


class Implies(NamedTuple):
    left: "Formula"
    right: "Formula"


class Iff(NamedTuple):
    left: "Formula"
    right: "Formula"


class ForAll(NamedTuple):
    var: str
    body: "Formula"


class Exists(NamedTuple):
    var: str
    body: "Formula"


def _node_eq(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def _node_hash(self) -> int:
    return hash((self.__class__.__name__, *self))


# Nodes are tuples that also compare and hash by class, so `Var("c0")` is not
# `Const("c0")` and `ForAll` is not `Exists`; `object.__ne__` inverts `__eq__`.
for _node in (Var, Const, Atom, Not, And, Or, Implies, Iff, ForAll, Exists):
    _node.__eq__, _node.__ne__, _node.__hash__ = _node_eq, object.__ne__, _node_hash
del _node

Formula = Atom | Not | And | Or | Implies | Iff | ForAll | Exists

_BINARY = (And, Or, Implies, Iff)
_QUANT = (ForAll, Exists)


# ---------------------------------------------------------------------------
# Symbol registry


class SymbolInfo(NamedTuple):
    name: str
    arity: int
    kind: str  # PREDICATE | CONSTANT


class SymbolRegistry:
    """Names, arities, and kinds for every symbol a program may reference.

    Names are unique case-sensitively within a kind. Ids are allocated
    sequentially (`p0, p1, ...` / `c0, c1, ...`) in declaration order.
    Callers declare lexer identifiers or `camel_identifier`/`fresh_name` names.
    """

    def __init__(self) -> None:
        self._entries: dict[str, SymbolInfo] = {}
        self._by_name: dict[tuple[str, str], str] = {}
        self._counter = 0

    def declare(self, name: str, arity: int, kind: str) -> str:
        """The id of the symbol `name` of `kind`, declared at `arity` on first
        use; raises `ArityMismatch` when it was declared at another arity."""
        key = (kind, name)
        sid = self._by_name.get(key)
        if sid is not None:
            declared = self._entries[sid].arity
            if declared != arity:
                raise ArityMismatch(name, declared, arity)
            return sid
        prefix = "p" if kind == PREDICATE else "c"
        sid = f"{prefix}{self._counter}"
        self._counter += 1
        self._entries[sid] = SymbolInfo(name, arity, kind)
        self._by_name[key] = sid
        return sid

    def lookup(self, name: str, kind: str) -> str | None:
        return self._by_name.get((kind, name))

    def info(self, symbol_id: str) -> SymbolInfo:
        try:
            return self._entries[symbol_id]
        except KeyError:
            raise UnknownSymbol(f"unknown symbol id {symbol_id!r}") from None

    def name_of(self, symbol_id: str) -> str:
        return self.info(symbol_id).name

    def has_name(self, name: str) -> bool:
        """Whether a symbol of any kind has this name."""
        return (PREDICATE, name) in self._by_name or (CONSTANT, name) in self._by_name

    def symbols(self) -> list[str]:
        return list(self._entries)


# ---------------------------------------------------------------------------
# Formula utilities


def walk_atoms(f: Formula):
    """Yield every atom in the formula, left to right."""
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, Not):
        yield from walk_atoms(f.body)
    elif isinstance(f, _BINARY):
        yield from walk_atoms(f.left)
        yield from walk_atoms(f.right)
    elif isinstance(f, _QUANT):
        yield from walk_atoms(f.body)
    else:
        raise TypeError(f"not a formula: {f!r}")


def map_atoms(f: Formula, fn) -> Formula:
    """Rebuild the formula with `fn` applied to every atom.

    `fn` may return any formula, so atom-level substitution (including
    expansion into conjunctions) stays polarity-safe.
    """
    if isinstance(f, Atom):
        return fn(f)
    if isinstance(f, Not):
        return Not(map_atoms(f.body, fn))
    if isinstance(f, _BINARY):
        return type(f)(map_atoms(f.left, fn), map_atoms(f.right, fn))
    if isinstance(f, _QUANT):
        return type(f)(f.var, map_atoms(f.body, fn))
    raise TypeError(f"not a formula: {f!r}")


def type_check(f: Formula, registry: SymbolRegistry) -> None:
    """Check that every atom's predicate has the arity `registry` declares."""
    for atom in walk_atoms(f):
        info = registry.info(atom.pred)
        if info.arity != len(atom.args):
            raise ArityMismatch(info.name, info.arity, len(atom.args))


# ---------------------------------------------------------------------------
# Logic programs


class LogicProgram(NamedTuple):
    registry: SymbolRegistry
    premises: tuple[Formula, ...]
    query: Formula
    semantics_mode: str = OPEN_WORLD

    def check_world(self) -> "LogicProgram":
        """What the program's world requires beyond a valid program: in the
        closed world, every premise is a fact or a Horn implication."""
        if self.semantics_mode == CLOSED_WORLD:
            for premise in self.premises:
                if horn_parts(premise) is None:
                    raise NotHorn("premise is not a fact or Horn implication: "
                                  + _text(premise, self.registry))
        return self

    def constants(self) -> list[str]:
        seen: dict[str, None] = {}
        for f in (*self.premises, self.query):
            for atom in walk_atoms(f):
                for arg in atom.args:
                    if isinstance(arg, Const):
                        seen.setdefault(arg.symbol)
        return list(seen)

    def predicates(self) -> list[str]:
        seen: dict[str, None] = {}
        for f in (*self.premises, self.query):
            for atom in walk_atoms(f):
                seen.setdefault(atom.pred)
        return list(seen)


def _text(f: Formula, registry: SymbolRegistry) -> str:
    """`f` in the canonical dialect, for error messages."""
    from .render import render_formula  # the renderer imports this module

    return render_formula(f, registry)


def horn_parts(premise: Formula) -> tuple[list[Atom], Atom] | None:
    """The closed world's reading of a premise as (body atoms, head atom), or
    None when it has none. A fact is a ground atom, with an empty body; a
    rule is `body -> head` with a conjunction of atoms as body, read left to
    right, and an atom as head. Either may sit under leading universal
    quantifiers."""
    f = premise
    while isinstance(f, ForAll):
        f = f.body
    if isinstance(f, Atom):
        return None if any(isinstance(a, Var) for a in f.args) else ([], f)
    if not (isinstance(f, Implies) and isinstance(f.right, Atom)):
        return None
    body: list[Atom] = []
    stack = [f.left]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            body.append(g)
        elif isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        else:
            return None
    return body, f.right
