"""Brute-force model enumeration over the Herbrand domain.

This is the independent oracle every other engine is checked against. Each
formula is grounded over the finite constant domain and evaluated bit-parallel
over truth tables: a block of 2^16 interpretations is one Python int, with bit
`m` of an atom's column telling whether that atom holds in interpretation `m`
of the block. And, Or and Not become `&`, `|` and `^ full`, so one walk of a
formula decides it in every interpretation of the block at once. Programs of
more than `MAX_ATOM_BITS` ground atoms are refused.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from ..errors import DomainTooLarge
from ..fol.cnf import to_nnf
from ..fol.terms import (
    And,
    Atom,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    LogicProgram,
    Not,
    OPEN_WORLD,
    Or,
    Var,
)
from .verdict import DISPROVED, PROVED, UNKNOWN, Verdict

MAX_ATOM_BITS = 24
BLOCK_BITS = 16  # a block holds 2^16 interpretations


@lru_cache(maxsize=None)
def _low_column(bit: int, width_bits: int) -> int:
    """Column of atom `bit` over 2^width_bits interpretations: runs of 2^bit
    zeros then 2^bit ones, repeated by shift-doubling."""
    run = 1 << bit
    column = ((1 << run) - 1) << run
    width = run << 1
    while width < 1 << width_bits:
        column |= column << width
        width <<= 1
    return column


def _truth(f: Formula, env: dict[str, str], column: dict[tuple, int],
           domain: list[str], full: int) -> int:
    """Truth table of `f` over the block: bit `m` set iff `f` holds in `m`."""
    if isinstance(f, Atom):
        return column[(f.pred, tuple(env[a.name] if isinstance(a, Var) else a.symbol
                                     for a in f.args))]
    if isinstance(f, Not):
        return full ^ _truth(f.body, env, column, domain, full)
    if isinstance(f, (ForAll, Exists)):
        forall = isinstance(f, ForAll)
        acc = full if forall else 0
        for c in domain:
            body = _truth(f.body, {**env, f.var: c}, column, domain, full)
            acc = acc & body if forall else acc | body
            if acc == (0 if forall else full):
                break
        return acc
    left = _truth(f.left, env, column, domain, full)
    right = _truth(f.right, env, column, domain, full)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (full ^ left) | right
    if isinstance(f, Iff):
        return full ^ left ^ right
    raise TypeError(f"not a formula: {f!r}")


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _witnesses(f: Formula) -> int:
    """The existential quantifiers of `f`, a formula in negation normal form."""
    if isinstance(f, Exists):
        return 1 + _witnesses(f.body)
    if isinstance(f, ForAll):
        return _witnesses(f.body)
    if isinstance(f, (And, Or)):
        return _witnesses(f.left) + _witnesses(f.right)
    return 0


def enumerate_models(p: LogicProgram) -> Verdict:
    """Decide the query by exhaustive search over Herbrand interpretations.

    The domain is the program's constants plus one fresh element per
    existential witness: each existential quantifier of the premises in
    negation normal form, and those of the query or of its negation,
    whichever has more. Where no existential lies under a universal (the
    Bernays-Schoenfinkel class), that domain decides entailment (Ramsey
    1930). Proved means the query holds in every model of the premises,
    Disproved that it fails in every one. A program with no models at all
    counts as Proved, matching the refutation engines' order of checks.

    Interpretations are numbered by the atoms' bit indices and searched in
    that order; `steps` counts the models up to the first interpretation at
    which the query has been seen both true and false, or all of them.
    """
    if p.semantics_mode != OPEN_WORLD:
        raise ValueError("model enumeration expects an open-world program")
    witnesses = sum(_witnesses(to_nnf(f, False)) for f in p.premises) + max(
        _witnesses(to_nnf(p.query, False)), _witnesses(to_nnf(p.query, True)))
    # Registry ids never start with "!", so no fresh element is a program's.
    domain = p.constants() + [f"!w{i}" for i in range(witnesses)]
    if not domain:
        # First-order semantics assumes a non-empty universe.
        domain.append("!d0")

    atom_bit: dict[tuple, int] = {}
    for pred in p.predicates():
        arity = p.registry.info(pred).arity
        for combo in product(domain, repeat=arity):
            atom_bit[(pred, combo)] = len(atom_bit)
            if len(atom_bit) > MAX_ATOM_BITS:
                raise DomainTooLarge(
                    f"{len(atom_bit)}+ ground atoms exceeds the 2^{MAX_ATOM_BITS} guard"
                )

    width_bits = min(len(atom_bit), BLOCK_BITS)
    full = (1 << (1 << width_bits)) - 1
    column = {key: _low_column(bit, width_bits)
              for key, bit in atom_bit.items() if bit < BLOCK_BITS}
    high = [(key, bit - BLOCK_BITS) for key, bit in atom_bit.items() if bit >= BLOCK_BITS]

    seen_true = seen_false = False
    steps = 0
    for block in range(1 << len(high)):
        for key, shift in high:
            column[key] = full if block >> shift & 1 else 0
        models = full
        for f in p.premises:
            models &= _truth(f, {}, column, domain, full)
            if not models:
                break
        if not models:
            continue
        q_true = models & _truth(p.query, {}, column, domain, full)
        q_false = models ^ q_true
        stops = []
        if q_true and not seen_true:
            seen_true = True
            stops.append(_lowest_bit(q_true))
        if q_false and not seen_false:
            seen_false = True
            stops.append(_lowest_bit(q_false))
        if seen_true and seen_false:
            # The interpretation-at-a-time walk stopped at the later first sighting.
            steps += (models & ((2 << max(stops)) - 1)).bit_count()
            return Verdict(UNKNOWN, steps=steps)
        steps += models.bit_count()

    if not seen_false:
        return Verdict(PROVED, steps=steps)  # includes the no-model case
    return Verdict(DISPROVED, steps=steps)
