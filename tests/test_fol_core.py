"""Parser, renderer, clause conversion, and refined programs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from symdrift.diversify.resources import Resources
from symdrift.errors import (
    ArityMismatch,
    FormulaSyntaxError,
    UnsupportedSkolemFunction,
)
from symdrift.fol.cnf import SkolemAllocator, to_cnf
from symdrift.fol.parser import parse_formula
from symdrift.fol.render import render_formula
from symdrift.fol.terms import (
    And,
    Atom,
    Const,
    Exists,
    ForAll,
    Implies,
    LogicProgram,
    Not,
    SymbolRegistry,
    Var,
    type_check,
)
from symdrift.mental.oracles import LexiconOracle
from symdrift.mental.table import camel_case_symbol
from symdrift.mental.translate import Proposal, translate_with_mental
from symdrift.problem import QUESTION_UNIT, Problem, TextUnit
from symdrift.solver.enumeration import enumerate_models
from symdrift.solver.resolution import prove_resolution

from .helpers import random_formula


_RESOURCES = Resources.load()


def _reg():
    return SymbolRegistry()


class TestParser:
    def test_quantified_implication(self):
        r = _reg()
        f = parse_formula("all x (Kind(x) -> Smart(x))", r)
        kind = r.lookup("Kind", "predicate")
        smart = r.lookup("Smart", "predicate")
        assert f == ForAll("x", Implies(Atom(kind, (Var("x"),)), Atom(smart, (Var("x"),))))

    def test_single_atom(self):
        r = _reg()
        f = parse_formula("Kind(Anne)", r)
        assert f == Atom(r.lookup("Kind", "predicate"), (Const(r.lookup("Anne", "constant")),))

    def test_arity_locked_at_first_use(self):
        r = _reg()
        parse_formula("Kind(Anne)", r)
        with pytest.raises(ArityMismatch) as exc:
            parse_formula("Kind(Anne, Bob)", r)
        assert exc.value.expected == 1 and exc.value.got == 2

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("Kind(Anne", _reg())
        assert exc.value.position == 9

    def test_empty_input_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("   ", _reg())

    def test_precedence(self):
        r = _reg()
        f = parse_formula("~A & B | C -> D <-> E", r)
        # ((((~A & B) | C) -> D) <-> E)
        assert type(f).__name__ == "Iff"
        assert type(f.left).__name__ == "Implies"
        assert type(f.left.left).__name__ == "Or"
        assert type(f.left.left.left).__name__ == "And"
        assert type(f.left.left.left.left).__name__ == "Not"

    def test_arrow_right_associative(self):
        r = _reg()
        f = parse_formula("A -> B -> C", r)
        assert type(f).__name__ == "Implies"
        assert type(f.right).__name__ == "Implies"


class TestRenderer:
    def test_canonical_examples(self):
        r = _reg()
        f = parse_formula("all x (Kind(x) -> Smart(x))", r)
        assert render_formula(f, r) == "all x (Kind(x) -> Smart(x))"
        g = parse_formula("~Kind(Anne)", r)
        assert render_formula(g, r) == "~Kind(Anne)"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_roundtrip_random_asts(self, seed, depth):
        rng = random.Random(seed)
        r = _reg()
        preds = [r.declare(f"P{i}", 1, "predicate") for i in range(3)]
        consts = [r.declare(f"a{i}", 0, "constant") for i in range(2)]
        f = random_formula(rng, preds, consts, depth, var=None)
        if rng.random() < 0.5:
            f = ForAll("x", random_formula(rng, preds, consts, depth, var="x"))
        text = render_formula(f, r)
        assert parse_formula(text, r) == f


class TestCnf:
    def test_textbook_implication(self):
        r = _reg()
        clauses = to_cnf(parse_formula("all x (Kind(x) -> Smart(x))", r), SkolemAllocator(r))
        assert len(clauses) == 1
        (clause,) = clauses
        signs = sorted((lit.positive, r.name_of(lit.pred)) for lit in clause)
        assert signs == [(False, "Kind"), (True, "Smart")]

    def test_top_level_existential_gets_constant(self):
        r = _reg()
        alloc = SkolemAllocator(r)
        clauses = to_cnf(parse_formula("exists x Kind(x)", r), alloc)
        assert dict(alloc.allocated) == {"!sk0": "sk0"}
        (clause,) = clauses
        (lit,) = clause
        assert lit.args == (Const("!sk0"),)

    def test_skolem_name_skips_a_declared_name_of_either_kind(self):
        for kind in ("predicate", "constant"):
            r = _reg()
            r.declare("sk0", 0, kind)
            alloc = SkolemAllocator(r)
            to_cnf(parse_formula("exists x Kind(x)", r), alloc)
            assert dict(alloc.allocated) == {"!sk1": "sk1"}

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["sk0", "sk1", "sk2", "P", "a"]),
                              st.sampled_from(["predicate", "constant"])), max_size=8),
           st.sampled_from(["sk0", "sk1", "sk2", "sk3", "P", "a", "b"]))
    def test_has_name_equals_a_scan_of_every_name(self, declared, name):
        r = _reg()
        for declared_name, kind in declared:
            r.declare(declared_name, 0, kind)
        assert r.has_name(name) == any(n == name for _, n in r._by_name)

    def test_existential_under_universal_rejected(self):
        r = _reg()
        f = parse_formula("all x exists y Likes(x, y)", r)
        with pytest.raises(UnsupportedSkolemFunction):
            to_cnf(f, SkolemAllocator(r))

    def test_negated_universal_is_fine(self):
        r = _reg()
        alloc = SkolemAllocator(r)
        to_cnf(parse_formula("~(all x Kind(x))", r), alloc)
        assert len(alloc.allocated) == 1

    def test_each_clause_names_its_variables_by_first_occurrence(self):
        """Every clause starts again at `x0`, whatever the formula's variable
        names, and a clause's universals that shared a name stay apart."""
        r = _reg()
        f = parse_formula("all y (A(y) -> B(y)) & all z all w (R(w, z) -> C(z))"
                          " & (all x A(x) | all x C(x))", r)
        names = sorted(sorted(a.name for lit in clause for a in lit.args if isinstance(a, Var))
                       for clause in to_cnf(f, SkolemAllocator(r)))
        assert names == [["x0", "x0"], ["x0", "x1"], ["x0", "x1", "x1"]]

    def test_variables_named_alike_across_clauses_still_resolve_apart(self):
        """`x` in one premise's clause is not `x` in another's: a chain of
        relational rules, each clause named from `x0`, proves its goal, and
        the converse goal is not proved."""
        r = _reg()
        premises = [parse_formula(t, r) for t in (
            "all x all y (Parent(x, y) -> Ancestor(x, y))",
            "all x all y all z (Ancestor(x, y) & Parent(y, z) -> Ancestor(x, z))",
            "Parent(anne, bob)", "Parent(bob, carl)")]
        clauses = [c for f in premises for c in to_cnf(f, SkolemAllocator(r))]
        assert {a.name for c in clauses[:2] for l in c for a in l.args} == {"x0", "x1", "x2"}
        proved = LogicProgram(r, tuple(premises), parse_formula("Ancestor(anne, carl)", r))
        assert prove_resolution(proved.check_world()).value == "proved"
        unproved = LogicProgram(r, tuple(premises), parse_formula("Ancestor(carl, anne)", r))
        assert prove_resolution(unproved.check_world(), max_steps=10).value == "unknown"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equisatisfiable_with_source(self, seed):
        """Brute-force satisfiability of f matches refutability of to_cnf(f)."""
        from itertools import product

        from symdrift.solver.resolution import _canonical, _saturate

        rng = random.Random(seed)
        r = _reg()
        preds = [r.declare(f"P{i}", 1, "predicate") for i in range(rng.randint(2, 4))]
        consts = [r.declare(f"a{i}", 0, "constant") for i in range(rng.randint(1, 3))]
        f = random_formula(rng, preds, consts, depth=rng.randint(1, 3), var=None)
        quant = rng.random()
        if quant < 0.35:
            f = ForAll("x", random_formula(rng, preds, consts, depth=2, var="x"))
        elif quant < 0.5:
            f = Exists("x", random_formula(rng, preds, consts, depth=1, var="x"))

        # Independent model check: pad the domain with one witness constant
        # per possible skolem, then try every interpretation.
        from .helpers import _existential_strength

        domain = list(consts)
        for i in range(_existential_strength(f, False)):
            domain.append(r.declare(f"w{i}", 0, "constant"))
        atoms = [(p, (c,)) for p in preds for c in domain]

        def holds(g, env, interp):
            if isinstance(g, Atom):
                key = (g.pred, tuple(env[a.name] if isinstance(a, Var) else a.symbol
                                     for a in g.args))
                return key in interp
            if isinstance(g, Not):
                return not holds(g.body, env, interp)
            name = type(g).__name__
            if name == "And":
                return holds(g.left, env, interp) and holds(g.right, env, interp)
            if name == "Or":
                return holds(g.left, env, interp) or holds(g.right, env, interp)
            if name == "Implies":
                return (not holds(g.left, env, interp)) or holds(g.right, env, interp)
            if name == "Iff":
                return holds(g.left, env, interp) == holds(g.right, env, interp)
            if isinstance(g, ForAll):
                return all(holds(g.body, {**env, g.var: c}, interp) for c in domain)
            return any(holds(g.body, {**env, g.var: c}, interp) for c in domain)

        satisfiable = any(
            holds(f, {}, frozenset(a for a, bit in zip(atoms, bits) if bit))
            for bits in product((0, 1), repeat=len(atoms))
        )
        refuted = _saturate((), tuple(_canonical(c) for c in to_cnf(f, SkolemAllocator(r))),
                            4000).refuted
        assert satisfiable == (not refuted)


def _refined(*proposals):
    """Translate `(skeleton, surface)` pairs, the last one the query, with the
    lexicon oracle over an open-world problem; returns the program."""
    oracle = LexiconOracle(_RESOURCES.synonyms)
    units = [Proposal(unit, skeleton, (surface,)) for unit, (skeleton, surface)
             in enumerate(proposals[:-1])]
    skeleton, surface = proposals[-1]
    units.append(Proposal(QUESTION_UNIT, skeleton, (surface,)))
    problem = Problem(id="r", sentences=(), question=TextUnit.from_text("?"),
                      gold_answer="proved", task_kind="folio")
    program, _, _ = translate_with_mental(problem, units, oracle)
    return program


class TestRewrites:
    """A refined compound renders as modifier & base wherever it occurs,
    before or after the atom that refined it."""

    def test_refine_expands_compound(self):
        out = _refined(("Slot0(Idol)", "popular show"), ("Slot0(Idol)", "show"))
        assert render_formula(out.premises[0], out.registry) == "Popular(Idol) & Show(Idol)"
        assert out.registry.lookup("PopularShow", "predicate") is None

    def test_refine_inside_negation(self):
        out = _refined(("~Slot0(Idol)", "popular show"), ("Slot0(Idol)", "show"))
        assert render_formula(out.premises[0], out.registry) == "~(Popular(Idol) & Show(Idol))"

    def test_refine_zero_occurrences_still_removes(self):
        """A compound routed through the table but used by no atom leaves no
        symbol behind."""
        out = _refined(("Kind(Anne)", "popular show"), ("Slot0(Anne)", "show"))
        assert [render_formula(f, out.registry) for f in (*out.premises, out.query)] == \
            ["Kind(Anne)", "Show(Anne)"]
        assert out.registry.lookup("PopularShow", "predicate") is None

    def test_refine_non_unary_expands(self):
        out = _refined(("Slot0(Idol, Gala)", "popular show"), ("Slot0(Gala, Idol)", "show"))
        assert render_formula(out.premises[0], out.registry) == \
            "Popular(Idol, Gala) & Show(Idol, Gala)"

    def test_refine_preserves_entailment_under_definition(self):
        """When the compound is definitionally modifier & base, query verdicts
        survive refinement: the same units translated without refinement,
        plus the definition, give the same verdict."""
        rng = random.Random(11)
        surfaces = ["popular show", "show", "popular", "fun"]
        for _ in range(20):
            units = []
            for _ in range(rng.randint(1, 3)):
                skeleton = "~Slot0({})" if rng.random() < 0.3 else "Slot0({})"
                units.append((skeleton.format(rng.choice(("Idol", "Gala"))),
                              rng.choice(surfaces)))
            units.append((f"Slot0({rng.choice(('Idol', 'Gala'))})", rng.choice(surfaces)))
            refined = _refined(*units)
            r = _reg()
            definition = parse_formula("all x (PopularShow(x) <-> Popular(x) & Show(x))", r)
            plain = [parse_formula(s.replace("Slot0", camel_case_symbol(e)), r)
                     for s, e in units]
            unrefined = LogicProgram(r, (definition, *plain[:-1]), plain[-1]).check_world()
            assert enumerate_models(refined).value == enumerate_models(unrefined).value

    def test_arity_stability_after_rewrites(self):
        out = _refined(("all x (Slot0(x) -> Fun(x))", "popular show"),
                       ("Slot0(Idol)", "show"), ("Fun(Idol)", "fun"))
        for f in (*out.premises, out.query):  # type-checks end to end
            type_check(f, out.registry)
        infos = [out.registry.info(s) for s in out.registry.symbols()]
        assert {i.arity for i in infos if i.kind == "predicate"} == {1}
