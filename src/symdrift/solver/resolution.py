"""Bounded refutation prover: given-clause loop with unit preference.

A deterministic stand-in for an external first-order prover. Complete for the
function-free fragment (resolution plus factoring), with forward and backward
subsumption keeping the clause sets small. Proved means premises plus negated
query refute; Disproved that premises plus the query itself refute.

Each clause is renamed to its canonical form once, when it is pushed, and a
kept clause computes its renamed, sorted and frozen literals at most once. A
processed clause is a resolution partner only when its signature (the set of
`(polarity, predicate)` it holds) has a complement of one of the given
clause's, and `c` can subsume `d` only when it is no longer and its signature
is a subset of `d`'s; both filters run before any unification.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..fol.cnf import Clause, Literal, SkolemAllocator, to_cnf
from ..fol.terms import Const, LogicProgram, Not, OPEN_WORLD, Term, Var
from .verdict import DISPROVED, PROVED, UNKNOWN, Verdict

DEFAULT_MAX_STEPS = 10_000

Subst = dict[str, Term]


def _walk(t: Term, subst: Subst) -> Term:
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


def unify_terms(a: Term, b: Term, subst: Subst) -> Subst | None:
    """Extend `subst` to unify two function-free terms, or None."""
    a = _walk(a, subst)
    b = _walk(b, subst)
    if isinstance(a, Var):
        if isinstance(b, Var) and b.name == a.name:
            return subst
        out = dict(subst)
        out[a.name] = b
        return out
    if isinstance(b, Var):
        out = dict(subst)
        out[b.name] = a
        return out
    return subst if a.symbol == b.symbol else None


def unify_atoms(pred_a: str, args_a: tuple[Term, ...], pred_b: str,
                args_b: tuple[Term, ...], subst: Subst | None = None) -> Subst | None:
    if pred_a != pred_b or len(args_a) != len(args_b):
        return None
    out: Subst | None = dict(subst or {})
    for x, y in zip(args_a, args_b):
        out = unify_terms(x, y, out)
        if out is None:
            return None
    return out


def apply_subst(lit: Literal, subst: Subst) -> Literal:
    return Literal(lit.positive, lit.pred, tuple(_walk(a, subst) for a in lit.args))


def _rename(clause: Clause, tag: str) -> Clause:
    """Rename variables to `{tag}0, {tag}1, ...` in sorted-literal order.

    With a fixed tag this doubles as a cheap canonical form for duplicate
    detection; variable-isomorphic clauses it misses are mopped up by
    subsumption.
    """
    mapping: dict[str, Var] = {}
    out = set()
    for lit in sorted(clause, key=Literal.sort_key):
        args: list[Term] = []
        for a in lit.args:
            if isinstance(a, Var):
                if a.name not in mapping:
                    mapping[a.name] = Var(f"{tag}{len(mapping)}")
                args.append(mapping[a.name])
            else:
                args.append(a)
        out.add(Literal(lit.positive, lit.pred, tuple(args)))
    return frozenset(out)


def _sorted_renamed(clause: Clause, tag: str) -> list[Literal]:
    return sorted(_rename(clause, tag), key=Literal.sort_key)


class _Kept:
    """A canonical clause with what the given-clause loop asks of it, each
    part computed once, on first use: its signature (the set of
    `(positive, pred)` it holds), its `h`- and `s`-renamed literals in sort
    order, and its literals with variables frozen."""

    __slots__ = ("clause", "sig", "_h_lits", "_s_lits", "_frozen")

    def __init__(self, clause: Clause):
        self.clause = clause
        self.sig = frozenset((l.positive, l.pred) for l in clause)
        self._h_lits: list[Literal] | None = None
        self._s_lits: list[Literal] | None = None
        self._frozen: dict[tuple[bool, str], list[tuple[Term, ...]]] | None = None

    @property
    def h_lits(self) -> list[Literal]:
        """Literals as a resolution partner, apart from the given clause's."""
        if self._h_lits is None:
            self._h_lits = _sorted_renamed(self.clause, "h")
        return self._h_lits

    @property
    def s_lits(self) -> list[Literal]:
        """Literals as the subsuming side of a subsumption test."""
        if self._s_lits is None:
            self._s_lits = _sorted_renamed(self.clause, "s")
        return self._s_lits

    @property
    def frozen(self) -> dict[tuple[bool, str], list[tuple[Term, ...]]]:
        """Argument tuples keyed by `(positive, pred)`, with variables frozen
        as pseudo-constants so that matching into them stays one-way."""
        if self._frozen is None:
            self._frozen = {}
            for l in self.clause:
                args = tuple(Const(f"!frz_{a.name}") if isinstance(a, Var) else a
                             for a in l.args)
                self._frozen.setdefault((l.positive, l.pred), []).append(args)
        return self._frozen


def subsumes(c: _Kept, d: _Kept) -> bool:
    """True when some substitution over c's variables maps c into a subset of d."""
    if len(c.clause) > len(d.clause) or not c.sig <= d.sig:
        return False
    frozen = d.frozen
    # Most constrained first: a literal with few candidates in d fails or
    # binds its variables before the wide ones multiply the search.
    c_lits = sorted(c.s_lits, key=lambda l: len(frozen[l.positive, l.pred]))

    def match(i: int, subst: Subst) -> bool:
        if i == len(c_lits):
            return True
        lit = c_lits[i]
        for args in frozen[lit.positive, lit.pred]:
            nxt = unify_atoms(lit.pred, lit.args, lit.pred, args, subst)
            if nxt is not None and match(i + 1, nxt):
                return True
        return False

    return match(0, {})


def _resolvents(given: list[Literal], other: list[Literal]) -> list[Clause]:
    """Binary resolvents of two sorted, variable-disjoint literal lists."""
    out = []
    for lit in given:
        for cand in other:
            if cand.positive == lit.positive or cand.pred != lit.pred:
                continue
            subst = unify_atoms(lit.pred, lit.args, cand.pred, cand.args)
            if subst is None:
                continue
            merged = {apply_subst(x, subst) for x in given if x != lit}
            merged |= {apply_subst(x, subst) for x in other if x != cand}
            if not any(l.negate() in merged for l in merged):
                out.append(frozenset(merged))
    return out


def _factors(clause: Clause) -> list[Clause]:
    lits = sorted(clause, key=Literal.sort_key)
    out = []
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            if lits[i].positive != lits[j].positive:
                continue
            subst = unify_atoms(lits[i].pred, lits[i].args, lits[j].pred, lits[j].args)
            if subst is None:
                continue
            factored = frozenset(apply_subst(x, subst) for x in clause)
            if len(factored) < len(clause):
                out.append(factored)
    return out


@dataclass
class _Saturation:
    steps: int
    refuted: bool
    exhausted: bool


def _saturate(clauses: list[Clause], max_steps: int) -> _Saturation:
    processed: list[_Kept] = []
    counter = 0
    queue: list[tuple[int, int, Clause]] = []
    seen: set[Clause] = set()

    def push(c: Clause) -> None:
        nonlocal counter
        c = _rename(c, "u")
        if c in seen:
            return
        seen.add(c)
        counter += 1
        heapq.heappush(queue, (len(c), counter, c))

    for c in clauses:
        push(c)

    steps = 0
    while queue:
        if steps >= max_steps:
            return _Saturation(steps, refuted=False, exhausted=False)
        _, _, clause = heapq.heappop(queue)
        if not clause:
            return _Saturation(steps, refuted=True, exhausted=False)
        given = _Kept(clause)
        if any(subsumes(p, given) for p in processed):
            continue
        steps += 1
        processed = [p for p in processed if not subsumes(given, p)]
        processed.append(given)
        new: list[Clause] = list(_factors(clause))
        # A partner must hold some literal of opposite polarity on a
        # predicate of the given clause; any other pair has no resolvent.
        needs = {(not positive, pred) for positive, pred in given.sig}
        g_lits: list[Literal] | None = None
        for other in processed:
            if not needs.isdisjoint(other.sig):
                if g_lits is None:
                    g_lits = _sorted_renamed(clause, "g")
                new.extend(_resolvents(g_lits, other.h_lits))
        for c in new:
            if not c:
                return _Saturation(steps, refuted=True, exhausted=False)
            push(c)
    return _Saturation(steps, refuted=False, exhausted=True)


def _clausify(p: LogicProgram, negate_query: bool) -> list[Clause]:
    registry = p.registry.copy()
    alloc = SkolemAllocator(registry)
    clauses: list[Clause] = []
    for i, premise in enumerate(p.premises):
        clauses.extend(to_cnf(premise, registry, alloc, start_index=i * 100).clauses)
    goal = Not(p.query) if negate_query else p.query
    clauses.extend(to_cnf(goal, registry, alloc, start_index=10_000).clauses)
    return clauses


def prove_resolution(p: LogicProgram, max_steps: int = DEFAULT_MAX_STEPS) -> Verdict:
    """Three-way entailment check by double refutation.

    Falls back to Unknown with `limit_hit` when either phase runs out of
    steps before saturating.
    """
    if p.semantics_mode != OPEN_WORLD:
        raise ValueError("resolution expects an open-world program")
    pos = _saturate(_clausify(p, negate_query=True), max_steps)
    if pos.refuted:
        return Verdict(PROVED, steps=pos.steps)
    neg = _saturate(_clausify(p, negate_query=False), max_steps)
    if neg.refuted:
        return Verdict(DISPROVED, steps=pos.steps + neg.steps)
    limit = not (pos.exhausted and neg.exhausted)
    return Verdict(UNKNOWN, steps=pos.steps + neg.steps, limit_hit=limit)
