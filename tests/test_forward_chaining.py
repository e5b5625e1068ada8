"""`forward_chain_cwa` against `reference_saturate`, the depth-tracking
saturation that matches facts in sorted order.

The fact snapshot that `forward_chain_cwa` matches against follows the
set's hash order, so running this file under different `PYTHONHASHSEED`s
checks that neither a verdict nor its `steps` depends on that order.
"""

from __future__ import annotations

import random

from symdrift.fol.parser import parse_formula
from symdrift.fol.terms import CLOSED_WORLD, LogicProgram, Not, SymbolRegistry
from symdrift.harness.config import SyntheticConfig
from symdrift.harness.synthetic import generate_synthetic
from symdrift.solver.chaining import forward_chain_cwa

from .helpers import reference_forward_chain

UNARY = ("A", "B", "C")
BINARY = ("R", "S")
PEOPLE = ("Ann", "Bob", "Cid")
VARIABLES = ("x", "y", "z")


def _atom(rng: random.Random, terms: tuple[str, ...]) -> tuple[str, list[str]]:
    """A random atom over `terms`, and the terms it uses."""
    pred = rng.choice(UNARY + BINARY)
    args = [rng.choice(terms) for _ in range(2 if pred in BINARY else 1)]
    return f"{pred}({', '.join(args)})", args


def _rule(rng: random.Random) -> str:
    """A universally closed Horn rule whose head variables all occur in its
    body; the first body atom holds variables only."""
    if rng.random() < 0.15:  # a recursive rule: R or S made transitive
        pred = rng.choice(BINARY)
        return f"all x all y all z ({pred}(x, y) & {pred}(y, z) -> {pred}(x, z))"
    variables = VARIABLES[:rng.randint(1, 3)]
    body = [_atom(rng, variables)]
    body += [_atom(rng, variables + PEOPLE[:1]) for _ in range(rng.randint(0, 2))]
    bound = tuple(v for v in variables if any(v in args for _, args in body))
    head, _ = _atom(rng, bound + PEOPLE[:1])
    quantifiers = " ".join(f"all {v}" for v in bound)
    return f"{quantifiers} ({' & '.join(text for text, _ in body)} -> {head})"


def random_horn_program(rng: random.Random) -> LogicProgram:
    """Ground facts and rules over unary and binary predicates, with bodies
    of up to three atoms, and a ground query that is negated a third of the
    time."""
    texts = [_atom(rng, PEOPLE)[0] for _ in range(rng.randint(2, 8))]
    texts += [_rule(rng) for _ in range(rng.randint(2, 6))]
    query = _atom(rng, PEOPLE)[0]
    if rng.random() < 1 / 3:
        query = "~" + query
    registry = SymbolRegistry()
    premises = tuple(parse_formula(text, registry) for text in texts)
    return LogicProgram(registry, premises, parse_formula(query, registry),
                        CLOSED_WORLD).validate()


def test_random_horn_programs_match_the_reference():
    rng = random.Random(20_240)
    values: set[str] = set()
    fired = negated = 0
    for _ in range(300):
        p = random_horn_program(rng)
        expected = reference_forward_chain(p)
        assert forward_chain_cwa(p) == expected
        values.add(expected.value)
        fired += expected.steps >= 2
        negated += isinstance(p.query, Not)
    assert values == {"true", "false"}
    assert fired > 50 and negated > 50


def test_generated_gold_programs_match_the_reference():
    problems = generate_synthetic(SyntheticConfig(n_problems=60, seed=7))
    steps = []
    for problem in problems:
        gold = problem.gold_program()
        expected = reference_forward_chain(gold)
        assert forward_chain_cwa(gold) == expected
        steps.append(expected.steps)
    assert max(steps) > 0
