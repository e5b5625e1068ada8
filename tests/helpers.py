"""Shared fixtures: random program generation and tiny lexicon files."""

from __future__ import annotations

import random
from itertools import product

from symdrift.errors import DomainTooLarge
from symdrift.fol import (
    And,
    Atom,
    Const,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    LogicProgram,
    Not,
    Or,
    OPEN_WORLD,
    SymbolRegistry,
    Var,
)
from symdrift.solver import Verdict
from symdrift.solver.enumeration import MAX_ATOM_BITS

CONNECTIVES = (And, Or, Implies, Iff)


def random_formula(rng: random.Random, preds: list[str], consts: list[str],
                   depth: int, var: str | None = None) -> Formula:
    """Random formula over unary predicates; quantifiers only at the top level
    (keeps everything inside the supported skolemization fragment)."""
    if depth <= 0 or rng.random() < 0.3:
        pred = rng.choice(preds)
        term = Var(var) if var and rng.random() < 0.8 else Const(rng.choice(consts))
        atom = Atom(pred, (term,))
        return Not(atom) if rng.random() < 0.3 else atom
    node = rng.choice(CONNECTIVES)
    return node(
        random_formula(rng, preds, consts, depth - 1, var),
        random_formula(rng, preds, consts, depth - 1, var),
    )


def random_premise(rng: random.Random, preds: list[str], consts: list[str]) -> Formula:
    roll = rng.random()
    if roll < 0.45:  # ground fact or small ground compound
        return random_formula(rng, preds, consts, depth=rng.randint(0, 1), var=None)
    if roll < 0.9:  # universally quantified sentence
        return ForAll("x", random_formula(rng, preds, consts, depth=rng.randint(1, 2), var="x"))
    return Exists("x", random_formula(rng, preds, consts, depth=1, var="x"))


def random_program(rng: random.Random, n_consts: int = 3, n_preds: int = 4,
                   n_premises: int = 6) -> LogicProgram:
    registry = SymbolRegistry()
    preds = [registry.declare(f"P{i}", 1, "predicate") for i in range(rng.randint(2, n_preds))]
    consts = [registry.declare(f"a{i}", 0, "constant") for i in range(rng.randint(1, n_consts))]
    premises = tuple(random_premise(rng, preds, consts) for _ in range(rng.randint(1, n_premises)))
    if rng.random() < 0.8:
        query: Formula = Atom(rng.choice(preds), (Const(rng.choice(consts)),))
        if rng.random() < 0.3:
            query = Not(query)
    else:
        quant = ForAll if rng.random() < 0.5 else Exists
        query = quant("x", Atom(rng.choice(preds), (Var("x"),)))
    return LogicProgram(registry, premises, query).validate()


def herbrand_padding(p: LogicProgram) -> list[str]:
    """Fresh constant names that stand in for the skolem witnesses the
    refutation engines introduce, so Herbrand enumeration decides plain
    first-order entailment (finite-model property of the fragment)."""
    n = sum(_existential_strength(f, False) for f in p.premises)
    n += max(_existential_strength(p.query, False), _existential_strength(p.query, True))
    return [f"w{i}" for i in range(n)]


def _existential_strength(f: Formula, negated: bool) -> int:
    """Count quantifiers that skolemize into fresh constants."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return _existential_strength(f.body, not negated)
    if isinstance(f, (And, Or)):
        return _existential_strength(f.left, negated) + _existential_strength(f.right, negated)
    if isinstance(f, Implies):
        return _existential_strength(f.left, not negated) + _existential_strength(f.right, negated)
    if isinstance(f, Iff):  # both polarities occur after expansion
        return (
            _existential_strength(f.left, negated) + _existential_strength(f.left, not negated)
            + _existential_strength(f.right, negated) + _existential_strength(f.right, not negated)
        )
    if isinstance(f, ForAll):
        return int(negated) + _existential_strength(f.body, negated)
    if isinstance(f, Exists):
        return int(not negated) + _existential_strength(f.body, negated)
    raise TypeError(f)


def domain_bits(p: LogicProgram) -> int:
    n_consts = len(p.constants()) + len(herbrand_padding(p))
    return n_consts * len(p.predicates())


def random_decidable_program(rng: random.Random, max_bits: int = 18) -> LogicProgram:
    """Random program small enough for the enumeration oracle to stay fast."""
    while True:
        p = random_program(rng)
        if domain_bits(p) <= max_bits:
            return p


def holds(f: Formula, interp: dict[tuple, bool], env: dict[str, str],
          domain: list[str]) -> bool:
    """Truth of `f` in one Herbrand interpretation (ground atom -> bool)."""
    if isinstance(f, Atom):
        return interp[(f.pred, tuple(env[a.name] if isinstance(a, Var) else a.symbol
                                     for a in f.args))]
    if isinstance(f, Not):
        return not holds(f.body, interp, env, domain)
    if isinstance(f, And):
        return holds(f.left, interp, env, domain) and holds(f.right, interp, env, domain)
    if isinstance(f, Or):
        return holds(f.left, interp, env, domain) or holds(f.right, interp, env, domain)
    if isinstance(f, Implies):
        return not holds(f.left, interp, env, domain) or holds(f.right, interp, env, domain)
    if isinstance(f, Iff):
        return holds(f.left, interp, env, domain) == holds(f.right, interp, env, domain)
    if isinstance(f, ForAll):
        return all(holds(f.body, interp, {**env, f.var: c}, domain) for c in domain)
    if isinstance(f, Exists):
        return any(holds(f.body, interp, {**env, f.var: c}, domain) for c in domain)
    raise TypeError(f)


def reference_enumerate_models(p: LogicProgram,
                               extra_constants: list[str] | None = None) -> Verdict:
    """One-interpretation-at-a-time model search: the specification that
    `enumerate_models` must match verdict for verdict, `steps` included.
    Interpretation `m` makes the atom with bit index `i` true iff bit `i` of
    `m` is set; the walk stops at the first interpretation after which the
    query has been seen both true and false in models of the premises."""
    if p.semantics_mode != OPEN_WORLD:
        raise ValueError("model enumeration expects an open-world program")
    registry = p.registry.copy()
    domain = p.constants()
    for name in extra_constants or []:
        sid = registry.lookup(name, "constant") or registry.declare(name, 0, "constant")
        if sid not in domain:
            domain.append(sid)
    if not domain:
        domain.append(registry.declare("_d0", 0, "constant"))
    atoms = [(pred, combo) for pred in p.predicates()
             for combo in product(domain, repeat=registry.info(pred).arity)]
    if len(atoms) > MAX_ATOM_BITS:
        raise DomainTooLarge(f"{len(atoms)} ground atoms")

    q_true = q_false = n_models = 0
    for m in range(1 << len(atoms)):
        interp = {atom: bool(m >> i & 1) for i, atom in enumerate(atoms)}
        if all(holds(f, interp, {}, domain) for f in p.premises):
            n_models += 1
            if holds(p.query, interp, {}, domain):
                q_true += 1
            else:
                q_false += 1
            if q_true and q_false:
                return Verdict("unknown", steps=n_models)
    return Verdict("proved" if q_false == 0 else "disproved", steps=n_models)
