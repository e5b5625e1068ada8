"""Closed-world forward chaining over Horn programs.

Each premise is read once, by `fol.terms.horn_parts`, into a fact or a rule.
Saturates the fact base to its least fixed point (finite, because the
fragment is function-free) and answers queries under negation as failure.
A firing is a rule application that derives a new fact, so the firing count
is the number of derived facts, and neither it nor the fixed point depends
on the order in which rules are matched.
"""

from __future__ import annotations

from ..errors import NotHorn
from ..fol.render import render_formula
from ..fol.terms import (
    Atom,
    CLOSED_WORLD,
    Const,
    LogicProgram,
    Not,
    Var,
    horn_parts,
)
from .verdict import FALSE, TRUE, Verdict

GroundAtom = tuple[str, tuple[str, ...]]


def _ground(atom: Atom, env: dict[str, str]) -> GroundAtom:
    args = []
    for a in atom.args:
        if isinstance(a, Var):
            args.append(env[a.name])
        else:
            args.append(a.symbol)
    return (atom.pred, tuple(args))


def _match_body(body: list[Atom], facts: set[GroundAtom], env: dict[str, str]):
    """Yield environments grounding every body atom against the fact base."""
    if not body:
        yield env
        return
    head, *rest = body
    for pred, args in tuple(facts):
        if pred != head.pred or len(args) != len(head.args):
            continue
        new_env = dict(env)
        ok = True
        for formal, actual in zip(head.args, args):
            if isinstance(formal, Const):
                if formal.symbol != actual:
                    ok = False
                    break
            else:
                bound = new_env.get(formal.name)
                if bound is None:
                    new_env[formal.name] = actual
                elif bound != actual:
                    ok = False
                    break
        if ok:
            yield from _match_body(rest, facts, new_env)


def saturate(p: LogicProgram) -> tuple[set[GroundAtom], int]:
    """Least fixed point of the rule base, and the number of rule firings."""
    rules: list[tuple[list[Atom], Atom]] = []
    facts: set[GroundAtom] = set()
    for premise in p.premises:
        parts = horn_parts(premise)
        if parts is None:
            raise NotHorn(f"premise is not Horn: {render_formula(premise, p.registry)}")
        body, head = parts
        if body:
            rules.append((body, head))
        else:
            facts.add(_ground(head, {}))

    firings = 0
    changed = True
    while changed:
        changed = False
        for body, head in rules:
            for env in _match_body(body, facts, {}):
                g = _ground(head, env)
                if g not in facts:
                    facts.add(g)
                    firings += 1
                    changed = True
    return facts, firings


def forward_chain_cwa(p: LogicProgram) -> Verdict:
    """True iff the query atom is derivable; negated queries flip under NAF."""
    if p.semantics_mode != CLOSED_WORLD:
        raise ValueError("forward chaining expects a closed-world program")
    query = p.query
    negated = False
    if isinstance(query, Not):
        query = query.body
        negated = True
    if not isinstance(query, Atom) or any(isinstance(a, Var) for a in query.args):
        raise NotHorn("closed-world queries must be ground literals: "
                      + render_formula(p.query, p.registry))
    facts, firings = saturate(p)
    holds = _ground(query, {}) in facts
    if negated:
        holds = not holds
    return Verdict(TRUE if holds else FALSE, steps=firings)
