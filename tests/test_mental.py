"""Table updates, oracles, retroactive refinement, and the driver."""

from __future__ import annotations

import itertools

import pytest

from symdrift.diversify import DiversifyConfig, Resources, diversify_problem
from symdrift.errors import OracleFailure
from symdrift.fol import render_formula
from symdrift.harness import NaiveTranslator, StubClient, propose_from_templates
from symdrift.mental import (
    EXTEND,
    LLMOracle,
    LexiconOracle,
    MentalTable,
    Proposal,
    REFINE,
    REUSE,
    TranslationState,
    camel_case_symbol,
    process_expression,
    translate_with_mental,
)
from symdrift.problem import Problem, TextUnit
from symdrift.solver import enumerate_models


@pytest.fixture(scope="module")
def resources() -> Resources:
    return Resources.load()


@pytest.fixture(scope="module")
def oracle(resources):
    return LexiconOracle(resources.synonyms, resources.derivations)


def drive(expressions, oracle, state=None):
    state = state or TranslationState.empty()
    refs = []
    for e in expressions:
        state, ref = process_expression(state, e, oracle)
        refs.append(ref)
    return state, refs


class TestProcessExpression:
    def test_extend_names_by_content(self, oracle):
        state, (ref,) = drive(["kind"], oracle)
        assert ref.render() == "Kind"
        assert state.trace[0].decision == EXTEND

    def test_reuse_on_equivalent(self, oracle):
        state, refs = drive(["student", "the pupil"], oracle)
        assert refs[0].render() == refs[1].render() == "Student"
        assert state.trace[1].decision == REUSE
        assert state.table.lookup("the pupil").render() == "Student"

    def test_compound_after_atom_decomposes(self, oracle):
        state, refs = drive(["show", "popular show"], oracle)
        assert refs[1].render() == "Popular&Show"
        assert state.trace[1].decision == REFINE
        state.table.audit()

    def test_atom_after_compound_retroactively_rewrites(self, oracle):
        state = TranslationState.empty()
        state, ref = process_expression(state, "popular show", oracle)
        proposal = Proposal(unit=0, skeleton="Slot0(Idol)", slots=("popular show",))
        from symdrift.mental.translate import instantiate

        state, formula = instantiate(proposal, {0: ref}, state)
        state = TranslationState(
            registry=state.registry, premises=(formula,), query=state.query,
            table=state.table, trace=state.trace, revisions=state.revisions,
            semantics_mode=state.semantics_mode,
        )
        assert render_formula(state.premises[0], state.registry) == "PopularShow(Idol)"
        state, ref2 = process_expression(state, "show", oracle)
        assert render_formula(state.premises[0], state.registry) == "Popular(Idol) & Show(Idol)"
        assert state.registry.lookup("PopularShow", "predicate") is None
        assert state.revisions == 1
        state.table.audit()

    def test_lookup_reports_decomposition(self, oracle):
        state, _ = drive(["popular show", "show"], oracle)
        assert state.table.lookup("popular show").render() == "Popular&Show"

    def test_lookup_unseen_is_none(self, oracle):
        state, _ = drive(["kind"], oracle)
        assert state.table.lookup("tall") is None

    def test_reuse_idempotent(self, oracle):
        first, _ = drive(["kind", "benevolent"], oracle)
        second, _ = drive(["benevolent"], oracle, state=first)
        assert second.table.entries == first.table.entries
        assert second.premises == first.premises
        # the trace still records the call
        assert len(second.trace) == len(first.trace) + 1

    def test_audit_after_every_step(self, oracle):
        state = TranslationState.empty()
        for e in ["kind", "benevolent", "show", "popular show", "tall", "student"]:
            state, _ = process_expression(state, e, oracle)
            state.table.audit()

    def test_symbol_collision_gets_suffix(self):
        table = MentalTable()
        table, first = table.extend("kind")
        table, second = table.extend("kind society")  # camel prefix differs
        table, third = table.extend("Kind")  # same camel name as the first
        assert first.symbol == "Kind"
        assert third.symbol == "Kind2"

    def test_oracle_failure_leaves_state_usable(self, oracle):
        state, _ = drive(["kind"], oracle)

        class FailingOracle:
            def equiv(self, e, expressions):
                raise OracleFailure("endpoint unreachable")

            def conflict(self, e, expressions):
                raise OracleFailure("endpoint unreachable")

        with pytest.raises(OracleFailure):
            process_expression(state, "benevolent", FailingOracle())
        # the old state is untouched and can continue with a working oracle
        after, ref = process_expression(state, "benevolent", oracle)
        assert ref.render() == "Kind"
        assert len(state.trace) == 1 and len(after.trace) == 2

    def test_order_insensitive_partition_for_closed_relations(self, oracle):
        expressions = ["kind", "benevolent", "tall", "towering", "caring"]
        partitions = set()
        for order in itertools.permutations(expressions):
            state, _ = drive(list(order), oracle)
            groups = frozenset(
                frozenset(entry.expressions) for entry in state.table.entries
            )
            partitions.add(groups)
        assert len(partitions) == 1


class TestCamelCase:
    def test_drops_stopwords(self):
        assert camel_case_symbol("the pupil") == "Pupil"

    def test_multiword(self):
        assert camel_case_symbol("popular show") == "PopularShow"


class TestLexiconOracle:
    def test_equiv_synonym(self, oracle):
        assert oracle.equiv("kind", ("benevolent",))

    def test_equiv_rejects_unrelated(self, oracle):
        assert not oracle.equiv("kind", ("tall",))

    def test_equiv_derivation_link(self, oracle):
        assert oracle.equiv("kindness", ("kind",))

    def test_equiv_hypernym_link(self, oracle):
        assert oracle.equiv("the person", ("anne",))

    def test_conflict_containment(self, oracle):
        assert oracle.conflict("popular show", ("show",)) == ("show", "popular")

    def test_conflict_symmetric_direction(self, oracle):
        assert oracle.conflict("show", ("popular show",)) == ("show", "popular")

    def test_no_conflict_without_overlap(self, oracle):
        assert oracle.conflict("kind", ("tall",)) is None

    def test_equiv_before_conflict_in_processing(self, oracle):
        # "famous show" ~ "popular show" (famous~popular synonyms): equivalence
        # with the compound wins over conflict with the atom.
        state, refs = drive(["show", "popular show", "famous show"], oracle)
        assert refs[2].render() == refs[1].render()


class TestLLMOracle:
    def test_cached_pair_not_requeried(self):
        stub = StubClient(replies=["yes"])
        oracle = LLMOracle(stub, "E {expression} {entry}", "C {expression} {entry}")
        assert oracle.equiv("a", ("b",))
        assert oracle.equiv("a", ("b",))  # would exhaust the stub if re-asked
        assert stub.ledger.calls == 1

    def test_malformed_reply_retries_once_then_fails(self):
        stub = StubClient(replies=["garbled", "nonsense"])
        oracle = LLMOracle(stub, "E {expression} {entry}", "C {expression} {entry}")
        with pytest.raises(OracleFailure):
            oracle.equiv("a", ("b",))
        assert stub.ledger.calls == 2

    def test_conflict_reply_parsing(self):
        stub = StubClient(replies=["yes show | popular"])
        oracle = LLMOracle(stub, "E", "C {expression} {entry}")
        assert oracle.conflict("popular show", ("show",)) == ("show", "popular")

    def test_usage_accumulates(self):
        from symdrift.harness import Completion

        stub = StubClient(replies=[
            Completion("yes", 10, 2), Completion("no", 11, 3), Completion("no", 12, 4),
        ])
        oracle = LLMOracle(stub, "E {expression} {entry}", "C {expression} {entry}")
        oracle.equiv("a", ("b",))
        oracle.equiv("c", ("d",))
        oracle.conflict("e", ("f",))
        assert stub.ledger.tokens_in == 33 and stub.ledger.tokens_out == 9


class TestTranslateWithMental:
    def _diversified_fixture(self, resources):
        p = Problem(
            id="fx",
            sentences=(TextUnit.from_text("Anne is kind."),
                       TextUnit.from_text("All kind people are smart.")),
            question=TextUnit.from_text("Is Anne smart?"),
            gold_answer="true",
            task_kind="proofwriter",
        )
        return diversify_problem(p, DiversifyConfig(resources=resources))

    def test_guided_translation_unifies_surfaces(self, resources, oracle):
        d = self._diversified_fixture(resources)
        program, table, trace = translate_with_mental(
            d.problem, propose_from_templates(d.problem), oracle)
        names = {program.registry.name_of(s)
                 for s in program.registry.symbols("predicate")}
        assert names == {"Kind", "Smart"}
        open_world = type(program)(program.registry, program.premises,
                                   program.query, "open_world")
        assert enumerate_models(open_world).value == "proved"

    def test_unguided_translation_drifts(self, resources):
        d = self._diversified_fixture(resources)
        translator = NaiveTranslator()
        output = translator.translate(d)
        names = {output.program.registry.name_of(s)
                 for s in output.program.registry.symbols("predicate")}
        assert len(names) > 2  # distinct symbols for kind and its variant
        open_world = type(output.program)(
            output.program.registry, output.program.premises,
            output.program.query, "open_world")
        assert enumerate_models(open_world).value == "unknown"

    def test_empty_problem(self, oracle):
        empty = Problem(
            id="none", sentences=(), question=TextUnit.from_text(""),
            gold_answer="true", task_kind="proofwriter",
        )
        program, table, trace = translate_with_mental(empty, [], oracle)
        assert program is None and not table.entries and not trace

    def test_trace_length_matches_processed_expressions(self, resources, oracle):
        d = self._diversified_fixture(resources)
        proposals = propose_from_templates(d.problem)
        program, table, trace = translate_with_mental(d.problem, proposals, oracle)
        n_slots = sum(len(pr.slots) for pr in proposals)
        assert len(trace) == n_slots

    def test_zero_drift_with_provenance_oracle(self, resources):
        """An oracle that inverts diversification provenance exactly gives
        dispersion zero on every diversified fixture."""
        from symdrift.harness import SyntheticConfig, generate_synthetic
        from symdrift.harness.evaluate import evaluate_one
        from symdrift.metrics import compute_sds

        problems = generate_synthetic(SyntheticConfig(n_problems=8, seed=3))
        for p in problems:
            d = diversify_problem(p, DiversifyConfig(resources=resources))

            surfaces_by_concept = {
                cid: {e.surface.lower() for e in entries}
                for cid, entries in d.provenance.items()
            }

            class ProvenanceOracle:
                def equiv(self, e, expressions):
                    groups = [
                        cid for cid, surfaces in surfaces_by_concept.items()
                        if e.lower() in surfaces
                    ]
                    return any(
                        other.lower() in surfaces_by_concept.get(g, ())
                        for g in groups for other in expressions
                    )

                def conflict(self, e, expressions):
                    return None

            translator = NaiveTranslator(oracle=ProvenanceOracle())
            record = evaluate_one(d, translator, "auto")
            result = compute_sds([record])
            assert result.value == 0.0
