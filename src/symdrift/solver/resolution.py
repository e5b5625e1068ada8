"""Bounded refutation prover: given-clause loop with unit preference.

A deterministic stand-in for an external first-order prover. Complete for the
function-free fragment (resolution plus factoring), with forward and backward
subsumption keeping the clause sets small. Proved means premises plus negated
query refute; Disproved that premises plus the query itself refute.

Each refutation searches from the goal when a sign test shows the premises
satisfiable: every premise clause holds a positive literal (the all-true
interpretation satisfies them) or every one a negative literal (the
all-false one does). As no inference among satisfiable premises alone
reaches the empty clause, the premises and their factors enter the processed
clauses in clause order, subsumed but not resolved with each other, and only
the goal's clauses are queued: the set of support (Wos, Robinson & Carson,
J. ACM 1965). Premises that fail the test, such as `P(a)` and `~P(a)`, are
queued with the goal, so proofs from inconsistent premises stay. `steps`
counts given clauses: under the set of support, the goal's descendants.

Every program's registry hands out the same `p0, c0, ...` ids, so the same
clauses recur across problems, and clause work is paid once per distinct
clause for the life of the process. Clauses are interned in canonical form
(variables renamed `u0, u1, ...` in sorted-literal order): each canonical
clause has one `_Kept`, which holds its signature (the set of
`(positive, pred)` it holds) and, computed on first use and kept, its
`g`/`h`-renamed sorted literals, its variable-frozen argument lists, its
factors, its resolvents with each partner and whether it subsumes each clause
that passes the pre-filter. The `g`/`h` renaming is the one place where
clauses are kept apart: `to_cnf` names each clause's variables by first
occurrence, and only the two parents of a resolution step must not share
one. Memoized factors and resolvents are interned `_Kept`s, so they are
never renamed again. Clausification is memoized too, once per process for
each distinct Skolem-free formula: such a conversion is a pure function of
the formula, and its entry holds the clauses' interned `_Kept`s, so a
saturation starts from them without renaming. A conversion that allocates a
Skolem constant depends on the allocator's count and on the registry's
names, so it always runs afresh. Only the queue, the set of clauses seen and
the processed clauses belong to one saturation, so a verdict does not depend
on what earlier proofs, or other threads, left in the memos.

The processed clauses are indexed by `(positive, pred)`, each bucket in
processed order. A clause can subsume another only when it is no longer and
its signature is a subset of the other's, so forward subsumption scans the
buckets of the given clause's keys and backward subsumption the smallest
one; a resolution partner holds a complement of one of the given clause's
keys, and partners are visited in processed order, so the queue receives
new clauses in the order a scan of every processed clause would give.
"""

from __future__ import annotations

import heapq
import threading
from typing import NamedTuple

from ..fol.cnf import Clause, Literal, SkolemAllocator, to_cnf
from ..fol.terms import Const, Formula, LogicProgram, Not, OPEN_WORLD, Term, Var
from .verdict import DISPROVED, PROVED, UNKNOWN, Verdict

DEFAULT_MAX_STEPS = 10_000

Subst = dict[str, Term]
Key = tuple[bool, str]


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


# One term per renamed variable and per frozen one, shared by every clause.
_TERMS: dict[tuple[type, str], Term] = {}


def _term(kind: type, name: str) -> Term:
    t = _TERMS.get((kind, name))
    if t is None:
        t = _TERMS.setdefault((kind, name), kind(name))
    return t


def _rename(clause: Clause, tag: str) -> Clause:
    """Rename variables to `{tag}0, {tag}1, ...` in sorted-literal order.

    With a fixed tag this doubles as a cheap canonical form for duplicate
    detection; variable-isomorphic clauses it misses are mopped up by
    subsumption.
    """
    mapping: dict[str, Var] = {}
    out = set()
    for lit in sorted(clause, key=Literal.sort_key):
        if not any(isinstance(a, Var) for a in lit.args):
            # Nothing to rename: the renamed clause shares the literal.
            out.add(lit)
            continue
        args: list[Term] = []
        for a in lit.args:
            if isinstance(a, Var):
                if a.name not in mapping:
                    mapping[a.name] = _term(Var, f"{tag}{len(mapping)}")
                args.append(mapping[a.name])
            else:
                args.append(a)
        out.add(Literal(lit.positive, lit.pred, tuple(args)))
    return frozenset(out)


def _sorted_renamed(clause: Clause, tag: str) -> list[Literal]:
    return sorted(_rename(clause, tag), key=Literal.sort_key)


class _Kept:
    """A clause with what the given-clause loop asks of it, each part a pure
    function of the clause, computed once, on first use: its signature (the
    set of `(positive, pred)` it holds), its `g`- and `h`-renamed literals in
    sort order, its literals with variables frozen, its factors, its
    resolvents with each partner, and whether it subsumes each clause it was
    tested against. The loop only ever holds the one interned `_Kept` of
    each canonical clause (see `_intern`). Two threads may compute the same
    part at once; both get equal values made of interned clauses, so either
    write may stand."""

    __slots__ = ("clause", "sig", "keys", "_g_lits", "_h_lits", "_frozen",
                 "_factors", "resolvents", "subsumed")

    def __init__(self, clause: Clause):
        self.clause = clause
        self.sig = frozenset((l.positive, l.pred) for l in clause)
        # The signature in sorted order, so that scans of the index visit
        # its buckets in the same order in every process.
        self.keys = tuple(sorted(self.sig))
        self._g_lits: list[Literal] | None = None
        self._h_lits: list[Literal] | None = None
        self._frozen: dict[Key, list[tuple[Term, ...]]] | None = None
        self._factors: tuple[_Kept, ...] | None = None
        self.resolvents: dict[_Kept, tuple[_Kept, ...]] = {}
        self.subsumed: dict[_Kept, bool] = {}

    @property
    def g_lits(self) -> list[Literal]:
        """Literals as the given clause of a resolution step, and as the
        subsuming side of a subsumption test."""
        if self._g_lits is None:
            self._g_lits = _sorted_renamed(self.clause, "g")
        return self._g_lits

    @property
    def h_lits(self) -> list[Literal]:
        """Literals as a resolution partner, apart from the given clause's."""
        if self._h_lits is None:
            self._h_lits = _sorted_renamed(self.clause, "h")
        return self._h_lits

    @property
    def frozen(self) -> dict[Key, list[tuple[Term, ...]]]:
        """Argument tuples keyed by `(positive, pred)`, with variables frozen
        as pseudo-constants so that matching into them stays one-way."""
        if self._frozen is None:
            frozen: dict[Key, list[tuple[Term, ...]]] = {}
            for l in self.clause:
                args = tuple(_term(Const, f"!frz_{a.name}") if isinstance(a, Var) else a
                             for a in l.args)
                frozen.setdefault((l.positive, l.pred), []).append(args)
            self._frozen = frozen
        return self._frozen

    @property
    def factors(self) -> tuple[_Kept, ...]:
        """Canonical factors, first occurrence first."""
        if self._factors is None:
            self._factors = _distinct(_canonical(c) for c in _factors(self.clause))
        return self._factors

    def resolvents_with(self, other: _Kept) -> tuple[_Kept, ...]:
        """Canonical binary resolvents with `other`, first occurrence first."""
        out = self.resolvents.get(other)
        if out is None:
            out = _distinct(_canonical(c) for c in _resolvents(self.g_lits, other.h_lits))
            self.resolvents[other] = out
        return out


# Canonical clause -> its one `_Kept`; the root of every per-clause memo.
_INTERNED: dict[Clause, _Kept] = {}
_INTERN_LOCK = threading.Lock()


def _intern(clause: Clause) -> _Kept:
    """The one `_Kept` of a canonical clause, shared by every thread."""
    kept = _INTERNED.get(clause)
    if kept is None:
        with _INTERN_LOCK:
            kept = _INTERNED.get(clause)
            if kept is None:
                kept = _INTERNED[clause] = _Kept(clause)
    return kept


def _canonical(clause: Clause) -> _Kept:
    return _intern(_rename(clause, "u"))


def _distinct(kepts) -> tuple[_Kept, ...]:
    return tuple(dict.fromkeys(kepts))


def subsumes(c: _Kept, d: _Kept) -> bool:
    """True when some substitution over c's variables maps c into a subset of d.

    d's variables are frozen to constants, so c's never meet them and any
    renaming of c serves."""
    if len(c.clause) > len(d.clause) or not c.sig <= d.sig:
        return False
    frozen = d.frozen
    # Most constrained first: a literal with few candidates in d fails or
    # binds its variables before the wide ones multiply the search.
    c_lits = sorted(c.g_lits, key=lambda l: len(frozen[l.positive, l.pred]))

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


def _subsumes_kept(c: _Kept, d: _Kept) -> bool:
    """`subsumes(c, d)` for interned clauses: the pre-filter, then the
    answer memoized on `c`."""
    if len(c.clause) > len(d.clause) or not c.sig <= d.sig:
        return False
    answer = c.subsumed.get(d)
    if answer is None:
        answer = c.subsumed[d] = subsumes(c, d)
    return answer


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


class _Saturation(NamedTuple):
    steps: int
    refuted: bool
    exhausted: bool


class _Processed:
    """The processed clauses of one saturation, in processed order.

    `by_key` files each clause under every key of its signature and
    `by_least` under its least key only; a bucket maps a clause to its serial
    (the count of clauses filed) and keeps processed order, also after removals."""

    def __init__(self) -> None:
        self.by_key: dict[Key, dict[_Kept, int]] = {}
        self.by_least: dict[Key, dict[_Kept, int]] = {}
        self.serial = 0

    def subsumes(self, given: _Kept) -> bool:
        """Whether a processed clause subsumes `given`. Such a clause's keys
        are all `given`'s, so it is filed under one of them as its least."""
        for key in given.keys:
            for p in self.by_least.get(key, ()):
                if _subsumes_kept(p, given):
                    return True
        return False

    def remove_subsumed_by(self, given: _Kept) -> None:
        """Drop every processed clause that `given` subsumes. Each holds all
        of `given`'s keys, so it sits in the smallest of their buckets."""
        smallest: dict[_Kept, int] | None = None
        for key in given.keys:
            bucket = self.by_key.get(key)
            if not bucket:
                return
            if smallest is None or len(bucket) < len(smallest):
                smallest = bucket
        for p in [p for p in smallest if _subsumes_kept(given, p)]:
            for key in p.keys:
                del self.by_key[key][p]
            del self.by_least[p.keys[0]][p]

    def add(self, kept: _Kept) -> bool:
        """File `kept` unless a processed clause subsumes it, first dropping
        those it subsumes; whether it was filed."""
        if self.subsumes(kept):
            return False
        self.remove_subsumed_by(kept)
        self.serial += 1
        for key in kept.keys:
            self.by_key.setdefault(key, {})[kept] = self.serial
        self.by_least.setdefault(kept.keys[0], {})[kept] = self.serial
        return True

    def partners(self, given: _Kept):
        """Processed clauses holding a complement of one of `given`'s keys,
        in processed order; any other clause has no resolvent with it."""
        buckets = [b for positive, pred in given.keys
                   if (b := self.by_key.get((not positive, pred)))]
        if len(buckets) == 1:
            return buckets[0]
        merged: dict[_Kept, int] = {}
        for bucket in buckets:
            merged.update(bucket)
        return sorted(merged, key=merged.__getitem__)


def _saturate(premises: tuple[_Kept, ...], goal: tuple[_Kept, ...],
              max_steps: int) -> _Saturation:
    processed = _Processed()
    counter = 0
    queue: list[tuple[int, int, _Kept]] = []
    seen: set[Clause] = set()

    def push(kept: _Kept) -> None:
        nonlocal counter
        if kept.clause in seen:
            return
        seen.add(kept.clause)
        counter += 1
        heapq.heappush(queue, (len(kept.clause), counter, kept))

    # Premises satisfiable by sign enter processed, closed under factoring.
    if (all(any(positive for positive, _ in k.keys) for k in premises)
            or all(any(not positive for positive, _ in k.keys) for k in premises)):
        entering = list(premises)
        for kept in entering:
            if kept.clause not in seen:
                seen.add(kept.clause)
                if processed.add(kept):
                    entering.extend(kept.factors)
    else:
        goal = premises + goal
    for kept in goal:
        push(kept)

    steps = 0
    while queue:
        if steps >= max_steps:
            return _Saturation(steps, refuted=False, exhausted=False)
        _, _, given = heapq.heappop(queue)
        if not given.clause:
            return _Saturation(steps, refuted=True, exhausted=False)
        if not processed.add(given):
            continue
        steps += 1
        new = list(given.factors)
        for other in processed.partners(given):
            new.extend(given.resolvents_with(other))
        for kept in new:
            if not kept.clause:
                return _Saturation(steps, refuted=True, exhausted=False)
            push(kept)
    return _Saturation(steps, refuted=False, exhausted=True)


# Formula -> its clauses' interned `_Kept`s in `to_cnf`'s order, for
# conversions that allocated no Skolem constant. Two threads may convert the
# same formula at once; both store equal values made of interned clauses, so
# either write may stand.
_CLAUSIFIED: dict[Formula, tuple[_Kept, ...]] = {}


def _clausify(f: Formula, alloc: SkolemAllocator) -> tuple[_Kept, ...]:
    """The interned `_Kept`s of `to_cnf(f)`'s clauses, from the memo when
    the conversion is Skolem-free."""
    out = _CLAUSIFIED.get(f)
    if out is None:
        allocated = len(alloc.allocated)
        out = tuple(_canonical(c) for c in to_cnf(f, alloc))
        if len(alloc.allocated) == allocated:
            _CLAUSIFIED[f] = out
    return out


def _premise_clauses(p: LogicProgram) -> tuple[tuple[_Kept, ...], SkolemAllocator]:
    """The premises' clauses, and the allocator in its state after them."""
    alloc = SkolemAllocator(p.registry)
    out: tuple[_Kept, ...] = ()
    for premise in p.premises:
        out += _clausify(premise, alloc)
    return out, alloc


def _goal_clauses(query: Formula, alloc: SkolemAllocator, negate_query: bool) -> tuple[_Kept, ...]:
    """The goal's clauses, allocated from a copy of `alloc`, so that each
    phase continues from the state the premises left."""
    goal = Not(query) if negate_query else query
    return _clausify(goal, alloc.fork())


def prove_resolution(p: LogicProgram, max_steps: int = DEFAULT_MAX_STEPS) -> Verdict:
    """Three-way entailment check by double refutation.

    The premises are clausified once for both phases, which start from the
    set of support when they pass the sign test. Falls back to Unknown with
    `limit_hit` when either phase runs out of steps before saturating.
    """
    if p.semantics_mode != OPEN_WORLD:
        raise ValueError("resolution expects an open-world program")
    premises, alloc = _premise_clauses(p)
    goal = _goal_clauses(p.query, alloc, negate_query=True)
    pos = _saturate(premises, goal, max_steps)
    if pos.refuted:
        return Verdict(PROVED, steps=pos.steps)
    goal = _goal_clauses(p.query, alloc, negate_query=False)
    neg = _saturate(premises, goal, max_steps)
    if neg.refuted:
        return Verdict(DISPROVED, steps=pos.steps + neg.steps)
    limit = not (pos.exhausted and neg.exhausted)
    return Verdict(UNKNOWN, steps=pos.steps + neg.steps, limit_hit=limit)
