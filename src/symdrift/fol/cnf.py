"""Clause-form conversion for the function-free fragment.

One pass takes a formula to negation normal form, rewriting `->` and `<->`
as it goes; Skolemization then drops the quantifiers and distribution gives
the clauses. Skolemization only introduces fresh constants: an existential
quantifier in the scope of a universal one would need a Skolem function and
is rejected. The output is equisatisfiable with the input.

Each clause names its variables `x0, x1, ...` by first occurrence: clauses
are not standardized apart, a prover keeps each step's two parents apart.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, NamedTuple

from ..errors import UnsupportedSkolemFunction
from .terms import (
    And,
    Atom,
    Const,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SymbolRegistry,
    Term,
    Var,
)


class Literal(NamedTuple):
    positive: bool
    pred: str
    args: tuple[Term, ...]

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.pred, self.args)

    def sort_key(self) -> tuple:
        return (
            self.pred,
            self.positive,
            tuple((isinstance(a, Const), a.symbol if isinstance(a, Const) else a.name) for a in self.args),
        )


Clause = frozenset[Literal]


class SkolemAllocator:
    """Deterministic `sk0, sk1, ...` allocation, skipping registry collisions
    (the registry is only read, so a program's own can be passed)."""

    def __init__(self, registry: SymbolRegistry):
        self.registry = registry
        self._n = 0
        self.allocated: list[tuple[str, str]] = []  # (symbol id, name)

    def fork(self) -> "SkolemAllocator":
        """A new allocator that continues from this one's state, leaving
        this one as it is."""
        out = SkolemAllocator(self.registry)
        out._n = self._n
        out.allocated = list(self.allocated)
        return out

    def fresh(self) -> str:
        while True:
            name = f"sk{self._n}"
            self._n += 1
            if not self.registry.has_name(name):
                break
        sid = f"!{name}"
        self.allocated.append((sid, name))
        return sid


def to_nnf(f: Formula, negate: bool) -> Formula:
    """Negation normal form of `f` (of `~f` when `negate`), with `A -> B`
    read as `~A | B` and `A <-> B` as `(~A | B) & (~B | A)`."""
    if isinstance(f, Atom):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return to_nnf(f.body, not negate)
    if isinstance(f, And):
        node = Or if negate else And
        return node(to_nnf(f.left, negate), to_nnf(f.right, negate))
    if isinstance(f, Or):
        node = And if negate else Or
        return node(to_nnf(f.left, negate), to_nnf(f.right, negate))
    if isinstance(f, Implies):
        node = And if negate else Or
        return node(to_nnf(f.left, not negate), to_nnf(f.right, negate))
    if isinstance(f, Iff):
        outer, inner = (Or, And) if negate else (And, Or)
        return outer(inner(to_nnf(f.left, not negate), to_nnf(f.right, negate)),
                     inner(to_nnf(f.right, not negate), to_nnf(f.left, negate)))
    if isinstance(f, ForAll):
        node = Exists if negate else ForAll
        return node(f.var, to_nnf(f.body, negate))
    if isinstance(f, Exists):
        node = ForAll if negate else Exists
        return node(f.var, to_nnf(f.body, negate))
    raise TypeError(f"not a formula: {f!r}")


def _skolemize(f: Formula, subst: dict[str, Term], under_universal: bool,
               alloc: SkolemAllocator, universals: Iterator[int]) -> Formula:
    """Drop quantifiers: existential vars become fresh constants, universal
    vars stay as variables, each quantifier's numbered apart by `universals`."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(subst.get(a.name, a) if isinstance(a, Var) else a for a in f.args))
    if isinstance(f, Not):
        return Not(_skolemize(f.body, subst, under_universal, alloc, universals))
    if isinstance(f, (And, Or)):
        return type(f)(
            _skolemize(f.left, subst, under_universal, alloc, universals),
            _skolemize(f.right, subst, under_universal, alloc, universals),
        )
    if isinstance(f, ForAll):
        inner = dict(subst)
        inner[f.var] = Var(f"{f.var}_{next(universals)}")
        return _skolemize(f.body, inner, True, alloc, universals)
    if isinstance(f, Exists):
        if under_universal:
            raise UnsupportedSkolemFunction(
                f"existential variable {f.var!r} under a universal quantifier"
            )
        inner = dict(subst)
        inner[f.var] = Const(alloc.fresh())
        return _skolemize(f.body, inner, under_universal, alloc, universals)
    raise TypeError(f"unexpected node during skolemization: {f!r}")


def _distribute(f: Formula) -> list[list[Literal]]:
    """Quantifier-free NNF to a list of literal lists (CNF)."""
    if isinstance(f, Atom):
        return [[Literal(True, f.pred, f.args)]]
    if isinstance(f, Not):
        assert isinstance(f.body, Atom), "NNF guarantees negation sits on atoms"
        return [[Literal(False, f.body.pred, f.body.args)]]
    if isinstance(f, And):
        return _distribute(f.left) + _distribute(f.right)
    if isinstance(f, Or):
        left = _distribute(f.left)
        right = _distribute(f.right)
        return [lc + rc for lc in left for rc in right]
    raise TypeError(f"unexpected node in CNF distribution: {f!r}")


def _name_clause(literals: list[Literal]) -> Clause:
    """The clause with its variables named `x0, x1, ...` by first occurrence."""
    mapping: dict[str, Var] = {}
    out = []
    for lit in literals:
        args: list[Term] = []
        for a in lit.args:
            if isinstance(a, Var):
                if a.name not in mapping:
                    mapping[a.name] = Var(f"x{len(mapping)}")
                args.append(mapping[a.name])
            else:
                args.append(a)
        out.append(Literal(lit.positive, lit.pred, tuple(args)))
    return frozenset(out)


def _is_tautology(clause: Clause) -> bool:
    return any(lit.negate() in clause for lit in clause)


def to_cnf(f: Formula, alloc: SkolemAllocator) -> list[Clause]:
    """Convert a closed formula to an equisatisfiable clause list. Callers
    converting several formulas into one refutation problem share `alloc`, so
    that Skolem constants never collide; its `allocated` list records the
    constants each conversion introduced."""
    stripped = _skolemize(to_nnf(f, negate=False), {}, under_universal=False,
                          alloc=alloc, universals=count())
    out: list[Clause] = []
    for lits in _distribute(stripped):
        clause = _name_clause(lits)
        if not _is_tautology(clause) and clause not in out:
            out.append(clause)
    return out
