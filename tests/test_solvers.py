"""Engine behaviour plus oracle-agreement properties."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from symdrift.errors import (
    AmbiguousOptions,
    CSPSpecError,
    DomainTooLarge,
    NoEntailedOption,
    NotHorn,
    Unsatisfiable,
)
from symdrift.fol.cnf import Literal
from symdrift.fol.parser import parse_formula
from symdrift.fol.terms import (
    And,
    Atom,
    CLOSED_WORLD,
    Const,
    Exists,
    ForAll,
    Implies,
    LogicProgram,
    Not,
    OPEN_WORLD,
    Or,
    SymbolRegistry,
    Var,
    horn_parts,
)
from symdrift.harness.config import SyntheticConfig
from symdrift.harness.synthetic import generate_synthetic
from symdrift.solver import csp, resolution
from symdrift.solver.chaining import forward_chain_cwa, saturate
from symdrift.solver.csp import (
    ADJACENT,
    AT_POSITION,
    CSPSpec,
    Constraint,
    LEFT_OF,
    NOT_AT_POSITION,
    Option,
    RIGHT_OF,
    iter_solutions,
    solve_csp,
)
from symdrift.solver.enumeration import enumerate_models
from symdrift.solver.resolution import DEFAULT_MAX_STEPS, _Kept, prove_resolution, subsumes
from symdrift.solver.verdict import Verdict

from .helpers import (
    herbrand_padding,
    random_decidable_program,
    random_program,
    random_relational_program,
    reference_enumerate_models,
    reference_horn_parts,
    reference_is_horn,
    reference_prove_resolution,
    reference_subsumes,
)


def _program(premises: list[str], query: str, mode: str = "open_world") -> LogicProgram:
    r = SymbolRegistry()
    parsed = tuple(parse_formula(t, r) for t in premises)
    q = parse_formula(query, r)
    return LogicProgram(r, parsed, q, mode).validate()


class TestEnumeration:
    def test_modus_ponens(self):
        p = _program(["Kind(Anne)", "all x (Kind(x) -> Smart(x))"], "Smart(Anne)")
        assert enumerate_models(p).value == "proved"

    def test_unconstrained_predicate_unknown(self):
        p = _program(["Kind(Anne)", "all x (Kind(x) -> Smart(x))"], "Tall(Anne)")
        assert enumerate_models(p).value == "unknown"

    def test_negated_fact_disproved(self):
        p = _program(["~Kind(Anne)"], "Kind(Anne)")
        assert enumerate_models(p).value == "disproved"

    def test_domain_guard(self):
        r = SymbolRegistry()
        pred = r.declare("R", 3, "predicate")
        consts = [r.declare(f"a{i}", 0, "constant") for i in range(4)]
        atoms = " & ".join(f"R(a0, a{i % 4}, a{(i + 1) % 4})" for i in range(3))
        p = _program_raw(r, [atoms], "R(a0, a1, a2)")
        with pytest.raises(DomainTooLarge):
            enumerate_models(p)

    def test_empty_domain_gets_fresh_element(self):
        p = _program(["all x (Kind(x) -> Smart(x))"], "all x Kind(x)")
        assert enumerate_models(p).value == "unknown"

    @pytest.mark.parametrize("premises", [
        ["exists x Kind(x)"],
        ["all x (Kind(x) -> Smart(x))", "exists x ~Smart(x)"],
    ], ids=["witness-may-be-another", "counter-witness-may-be-another"])
    def test_an_existential_witness_is_not_a_named_constant(self, premises):
        """Some element is kind, or is not smart, but not necessarily Anne:
        the domain holds a fresh witness beside her, so neither `Kind(Anne)`
        nor its negation follows, as resolution finds."""
        p = _program(premises, "Kind(Anne)")
        assert enumerate_models(p).value == prove_resolution(p).value == "unknown"

    def test_matches_reference_walk(self, monkeypatch):
        """Bit-parallel search returns the same Verdict, steps included, as
        the one-interpretation-at-a-time walk, in one block and (with tiny
        blocks) across many."""
        from symdrift.solver import enumeration

        rng = random.Random(4_201)
        for _ in range(300):
            p = random_decidable_program(rng, max_bits=12)
            expected = reference_enumerate_models(p, herbrand_padding(p))
            assert enumerate_models(p) == expected
            with monkeypatch.context() as m:
                m.setattr(enumeration, "BLOCK_BITS", 2)
                assert enumerate_models(p) == expected

    def test_24_atom_proved_chain(self):
        premises = ["A0(a)", "A0(b)", "A0(c)"] + [
            f"all x (A{i}(x) -> A{i + 1}(x))" for i in range(7)
        ]
        p = _program(premises, "A7(c)")
        assert len(p.constants()) * len(p.predicates()) == 24
        assert enumerate_models(p) == Verdict("proved", steps=1)

    def test_25_atoms_refused(self):
        p = _program([f"A{i}(a{i})" for i in range(5)], "A0(a1)")
        assert len(p.constants()) * len(p.predicates()) == 25
        with pytest.raises(DomainTooLarge):
            enumerate_models(p)


def _program_raw(r, premises, query):
    parsed = tuple(parse_formula(t, r) for t in premises)
    return LogicProgram(r, parsed, parse_formula(query, r)).validate()


class TestResolution:
    def test_modus_ponens(self):
        p = _program(["Kind(Anne)", "all x (Kind(x) -> Smart(x))"], "Smart(Anne)")
        assert prove_resolution(p).value == "proved"

    def test_implication_chain_depth5(self):
        premises = ["A0(c)"] + [f"all x (A{i}(x) -> A{i + 1}(x))" for i in range(5)]
        p = _program(premises, "A5(c)")
        verdict = prove_resolution(p)
        assert verdict.value == "proved"
        assert enumerate_models(p).value == "proved"

    def test_unrelated_query_with_tiny_budget(self):
        """The premises are satisfiable by sign, so only each goal's clause
        is given, and it has no partner: each phase exhausts in one step."""
        premises = ["A0(c)"] + [f"all x (A{i}(x) -> A{i + 1}(x))" for i in range(8)]
        p = _program(premises, "Zz(c)")
        assert prove_resolution(p, max_steps=2) == Verdict("unknown", steps=2)

    def test_chain_end_with_tiny_budget_hits_the_limit(self):
        """Refuting `~A8(c)` walks the chain back one step per given clause,
        so two steps are not enough."""
        premises = ["A0(c)"] + [f"all x (A{i}(x) -> A{i + 1}(x))" for i in range(8)]
        p = _program(premises, "A8(c)")
        verdict = prove_resolution(p, max_steps=2)
        assert verdict.value == "unknown"
        assert verdict.limit_hit
        assert prove_resolution(p).value == "proved"

    def test_disproved(self):
        p = _program(["all x (Kind(x) -> Smart(x))", "~Smart(Anne)"], "Kind(Anne)")
        assert prove_resolution(p).value == "disproved"

    def test_determinism(self):
        p = _program(["Kind(Anne)", "all x (Kind(x) -> Smart(x))"], "Smart(Anne)")
        a = prove_resolution(p)
        b = prove_resolution(p)
        assert a == b

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_oracle_agreement(self, seed):
        rng = random.Random(seed)
        p = random_decidable_program(rng)
        oracle = enumerate_models(p)
        verdict = prove_resolution(p)
        if oracle.value in ("proved", "disproved"):
            assert verdict.value == oracle.value
        else:
            assert verdict.value == "unknown"

    def test_matches_reference_prover(self):
        """Cached canonical clauses, the partner filter and the subsumption
        pre-filter leave every Verdict, steps included, as the plain
        given-clause loop with the same set-of-support start gives it, also
        when the step limit cuts it off."""
        rng = random.Random(5_303)
        programs = [random_program(rng) if i % 2 else random_decidable_program(rng)
                    for i in range(300)]
        programs += [random_relational_program(rng) for _ in range(300)]
        verdicts = []
        for p in programs:
            for max_steps in (3, 50, DEFAULT_MAX_STEPS):
                expected = reference_prove_resolution(p, max_steps)
                assert prove_resolution(p, max_steps) == expected
                verdicts.append(expected)
        assert any(v.limit_hit for v in verdicts)
        assert {v.value for v in verdicts} == {"proved", "disproved", "unknown"}

    def test_matches_reference_prover_on_gold_programs(self):
        for problem in generate_synthetic(SyntheticConfig(n_problems=60, seed=7)):
            gold = problem.gold_program()
            p = LogicProgram(gold.registry, gold.premises, gold.query, OPEN_WORLD).validate()
            assert prove_resolution(p) == reference_prove_resolution(p)

    def test_subsumption_prefilter_matches_plain_matcher(self):
        """Random clause pairs over shared variables, including instances
        (which subsume), longer subsumers and disjoint signatures."""
        rng = random.Random(2_004)
        arity = {"P": 1, "Q": 1, "R": 2, "S": 2, "T": 1, "U": 2}
        shared, apart = ["P", "Q", "R", "S"], ["T", "U"]
        terms = [Var("x"), Var("y"), Var("z"), Const("a"), Const("b")]

        def literal(names):
            name = rng.choice(names)
            return Literal(rng.random() < 0.5, name,
                           tuple(rng.choice(terms) for _ in range(arity[name])))

        def clause(names, n):
            return frozenset(literal(names) for _ in range(n))

        outcomes = set()
        for _ in range(3_000):
            c = clause(shared, rng.randint(1, 3))
            roll = rng.random()
            if roll < 0.4:  # an instance of c plus extra literals
                sigma = {v.name: rng.choice(terms) for v in terms if isinstance(v, Var)}
                d = frozenset(
                    Literal(l.positive, l.pred,
                            tuple(sigma[a.name] if isinstance(a, Var) else a for a in l.args))
                    for l in c) | clause(shared, rng.randint(0, 2))
            elif roll < 0.6:  # disjoint signatures
                d = clause(apart, rng.randint(1, 4))
            else:
                d = clause(shared, rng.randint(1, 4))
            expected = reference_subsumes(c, d)
            assert subsumes(_Kept(c), _Kept(d)) == expected
            outcomes.add((expected, len(c) > len(d), _Kept(c).sig.isdisjoint(_Kept(d).sig)))
        assert {(True, False, False), (False, True, False), (False, False, True)} <= outcomes

    def test_subsumption_matches_most_constrained_literal_first(self, monkeypatch):
        """A chain of four binary literals, each with 30 candidates in d, and
        one literal with a single candidate. Matched in sort order the single
        one comes last, after every mapping of the chain (about 30,000
        unifications when it fails); matched first, the test takes at most one
        pass over d per literal."""
        xs = [Var(f"x{i}") for i in range(5)]
        consts = [Const(f"c{i}") for i in range(6)]
        chain = [Literal(True, "R", (xs[i], xs[i + 1])) for i in range(4)]
        c = frozenset(chain + [Literal(True, "Z", (xs[0], Const("a")))])
        edges = frozenset(Literal(True, "R", (u, v)) for u in consts for v in consts if u != v)
        calls = 0
        original = resolution.unify_atoms

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(resolution, "unify_atoms", counting)
        for tail, expected in (("b", False), ("a", True)):
            d = edges | {Literal(True, "Z", (consts[0], Const(tail)))}
            calls = 0
            assert subsumes(_Kept(c), _Kept(d)) is expected
            assert reference_subsumes(c, d) is expected
            assert calls <= len(c) * len(d)


def horn_candidates():
    """Premises in and out of the Horn form: facts and non-ground atoms,
    negated atoms, and rules whose body is a conjunction of atoms or holds a
    negation or disjunction and whose head is an atom, a negation, a
    disjunction or a conjunction, each under up to two leading quantifiers."""
    terms = st.sampled_from([Var("x"), Var("y"), Const("c0"), Const("c1")])
    atoms = (st.builds(lambda pred, t: Atom(pred, (t,)), st.sampled_from(["p2", "p3"]), terms)
             | st.builds(lambda a, b: Atom("p4", (a, b)), terms, terms))
    conjunctions = st.recursive(atoms, lambda inner: st.builds(And, inner, inner),
                                max_leaves=4)
    mixed = st.recursive(atoms, lambda inner: st.builds(And, inner, inner)
                         | st.builds(Or, inner, inner) | st.builds(Not, inner), max_leaves=4)
    heads = (atoms | st.builds(Not, atoms) | st.builds(Or, atoms, atoms)
             | st.builds(And, atoms, atoms))
    matrices = (atoms | st.builds(Not, atoms) | st.builds(Implies, conjunctions, heads)
                | st.builds(Implies, mixed, heads))
    prefixes = st.lists(st.sampled_from([(ForAll, "x"), (ForAll, "y"), (Exists, "x")]),
                        max_size=2)

    def close(matrix, prefix):
        for quantifier, var in reversed(prefix):
            matrix = quantifier(var, matrix)
        return matrix

    return st.builds(close, matrices, prefixes)


class TestForwardChaining:
    def test_rule_application(self):
        p = _program(["Kind(Anne)", "all x (Kind(x) -> Smart(x))"], "Smart(Anne)",
                     CLOSED_WORLD)
        assert forward_chain_cwa(p).value == "true"

    def test_closed_world_negation(self):
        p = _program(["Kind(Anne)", "all x (Kind(x) -> Smart(x))"], "Smart(Bob)",
                     CLOSED_WORLD)
        assert forward_chain_cwa(p).value == "false"

    def test_negated_query_flips(self):
        p = _program(["Kind(Anne)"], "~Kind(Bob)", CLOSED_WORLD)
        assert forward_chain_cwa(p).value == "true"

    def test_disjunctive_head_rejected(self):
        r = SymbolRegistry()
        premise = parse_formula("all x (Kind(x) -> Smart(x) | Tall(x))", r)
        fact = parse_formula("Kind(Anne)", r)
        with pytest.raises(NotHorn):
            LogicProgram(r, (premise, fact), parse_formula("Smart(Anne)", r),
                         CLOSED_WORLD).validate()

    def test_not_horn_errors_name_symbols(self):
        """Every NotHorn text renders its formula with the program's names,
        never its registry ids."""
        r = SymbolRegistry()
        premise = parse_formula("all x (Kind(x) -> Smart(x) | Tall(x))", r)
        query = parse_formula("all x Smart(x)", r)
        open_program = LogicProgram(r, (premise,), query, OPEN_WORLD)
        closed = LogicProgram(r, (premise,), query, CLOSED_WORLD)
        body = parse_formula("all x (~Kind(x) -> Smart(x))", r)
        checks = [
            (closed.validate, "premise is not a fact or Horn implication: "
             "all x (Kind(x) -> Smart(x) | Tall(x))"),
            (lambda: saturate(open_program), "premise is not Horn: "
             "all x (Kind(x) -> Smart(x) | Tall(x))"),
            (lambda: forward_chain_cwa(LogicProgram(r, (), query, CLOSED_WORLD)),
             "closed-world queries must be ground literals: all x Smart(x)"),
        ]
        for check, text in checks:
            with pytest.raises(NotHorn) as raised:
                check()
            assert str(raised.value) == text
        assert horn_parts(premise) is None
        assert horn_parts(body) is None

    @settings(max_examples=300, deadline=None)
    @given(horn_candidates())
    def test_horn_parts_matches_the_reference(self, premise):
        """One reading of the Horn form accepts what the two-step reference
        accepted, with the same body atoms in the same order and the same
        head."""
        expected = None
        if reference_is_horn(premise):
            expected = reference_horn_parts(premise, SymbolRegistry())
        assert horn_parts(premise) == expected

    def test_multi_body_join(self):
        p = _program(
            ["Kind(Anne)", "Tall(Anne)", "all x (Kind(x) & Tall(x) -> Star(x))"],
            "Star(Anne)", CLOSED_WORLD)
        assert forward_chain_cwa(p).value == "true"

    def test_binary_relations_chain(self):
        p = _program(
            ["Parent(Ann, Bob)", "Parent(Bob, Cid)",
             "all x (all y (all z (Parent(x, y) & Parent(y, z) -> Grand(x, z))))"],
            "Grand(Ann, Cid)", CLOSED_WORLD)
        assert forward_chain_cwa(p).value == "true"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_naive_saturation(self, seed):
        """Least fixed point agrees with an independent naive reimplementation."""
        rng = random.Random(seed)
        names = ["A", "B", "C", "D"]
        people = ["P1", "P2"]
        r = SymbolRegistry()
        preds = {n: r.declare(n, 1, "predicate") for n in names}
        consts = {n: r.declare(n, 0, "constant") for n in people}
        texts = []
        for _ in range(rng.randint(1, 3)):
            texts.append(f"{rng.choice(names)}({rng.choice(people)})")
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(names, 2)
            texts.append(f"all x ({a}(x) -> {b}(x))")
        query = f"{rng.choice(names)}({rng.choice(people)})"
        p = _program_raw_mode(r, texts, query, CLOSED_WORLD)

        # naive reimplementation over (pred name, const name) pairs
        facts = {(t.split("(")[0], t.split("(")[1][:-1]) for t in texts if "all" not in t}
        rules = [(t.split("(")[1].split("(")[0], t.split("-> ")[1].split("(")[0])
                 for t in texts if "all" in t]
        changed = True
        while changed:
            changed = False
            for a, b in rules:
                for pred, person in list(facts):
                    if pred == a and (b, person) not in facts:
                        facts.add((b, person))
                        changed = True
        expected = (query.split("(")[0], query.split("(")[1][:-1]) in facts
        assert forward_chain_cwa(p).value == ("true" if expected else "false")


def _program_raw_mode(r, premises, query, mode):
    parsed = tuple(parse_formula(t, r) for t in premises)
    return LogicProgram(r, parsed, parse_formula(query, r), mode).validate()


class TestCsp:
    def test_unique_ordering(self):
        spec = CSPSpec(["A", "B", "C"], [
            Constraint(LEFT_OF, ("A", "B")), Constraint(LEFT_OF, ("B", "C")),
        ])
        verdict = solve_csp(spec, [Option("A", 1)])
        assert verdict.value == "option" and verdict.option_index == 0

    def test_cycle_unsatisfiable(self):
        spec = CSPSpec(["A", "B"], [
            Constraint(LEFT_OF, ("A", "B")), Constraint(LEFT_OF, ("B", "A")),
        ])
        with pytest.raises(Unsatisfiable):
            solve_csp(spec, [Option("A", 1)])

    def test_ambiguous_options(self):
        spec = CSPSpec(["A", "B"], [Constraint(LEFT_OF, ("A", "B"))])
        with pytest.raises(AmbiguousOptions):
            solve_csp(spec, [Option("A", 1), Option("B", 2)])

    def test_no_entailed_option(self):
        spec = CSPSpec(["A", "B"], [])
        with pytest.raises(NoEntailedOption):
            solve_csp(spec, [Option("A", 1)])

    def test_undeclared_object_rejected(self):
        spec = CSPSpec(["A", "B"], [Constraint(LEFT_OF, ("A", "Z"))])
        with pytest.raises(CSPSpecError):
            solve_csp(spec, [Option("A", 1)])

    @pytest.mark.parametrize("option, text", [
        (Option("Z", 1), "option references undeclared object 'Z'"),
        (Option("A", 3), "option position 3 outside 1..2"),
    ], ids=["undeclared object", "position out of range"])
    def test_bad_option_rejected_before_search(self, monkeypatch, option, text):
        """A malformed option is a spec error even when the constraints admit
        no assignment, and no search runs for it."""
        spec = CSPSpec(["A", "B"], [
            Constraint(LEFT_OF, ("A", "B")), Constraint(LEFT_OF, ("B", "A")),
        ])
        with pytest.raises(Unsatisfiable):
            solve_csp(spec, [Option("A", 1)])
        monkeypatch.setattr(csp, "iter_solutions",
                            lambda spec: pytest.fail("searched for a malformed option"))
        with pytest.raises(CSPSpecError) as raised:
            solve_csp(spec, [Option("A", 1), option])
        assert str(raised.value) == text

    def test_mixed_constraint_kinds(self):
        spec = CSPSpec(["A", "B", "C", "D"], [
            Constraint(AT_POSITION, ("D", 4)),
            Constraint(ADJACENT, ("A", "B")),
            Constraint(NOT_AT_POSITION, ("C", 1)),
            Constraint(RIGHT_OF, ("B", "A")),
        ])
        verdict = solve_csp(spec, [Option("D", 4)])
        assert verdict.option_index == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_exhaustive_permutation_filter(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        objects = [f"O{i}" for i in range(n)]
        constraints = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice([LEFT_OF, RIGHT_OF, ADJACENT, AT_POSITION, NOT_AT_POSITION])
            if kind in (AT_POSITION, NOT_AT_POSITION):
                constraints.append(Constraint(kind, (rng.choice(objects), rng.randint(1, n))))
            else:
                constraints.append(Constraint(kind, tuple(rng.sample(objects, 2))))
        spec = CSPSpec(objects, constraints)

        def check(pos):
            for c in constraints:
                if c.kind == LEFT_OF and not pos[c.args[0]] < pos[c.args[1]]:
                    return False
                if c.kind == RIGHT_OF and not pos[c.args[0]] > pos[c.args[1]]:
                    return False
                if c.kind == ADJACENT and abs(pos[c.args[0]] - pos[c.args[1]]) != 1:
                    return False
                if c.kind == AT_POSITION and pos[c.args[0]] != c.args[1]:
                    return False
                if c.kind == NOT_AT_POSITION and pos[c.args[0]] == c.args[1]:
                    return False
            return True

        # Every assignment of distinct positions, in lexicographic order of
        # the objects' position tuples.
        assignments = (dict(zip(objects, perm))
                       for perm in itertools.permutations(range(1, n + 1)))
        brute = [pos for pos in assignments if check(pos)]
        mine = list(iter_solutions(spec))
        assert [list(pos.items()) for pos in mine] == [list(pos.items()) for pos in brute]


class TestVerdict:
    def test_limit_requires_unknown(self):
        with pytest.raises(ValueError):
            Verdict("proved", limit_hit=True)

    def test_labels(self):
        assert Verdict("proved").label() == "true"
        assert Verdict("false").label() == "false"
        assert Verdict("option", option_index=2).label() == 2
