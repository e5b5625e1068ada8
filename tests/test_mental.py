"""Table updates, oracles, refinement from the final table, and `translate_with_mental`."""

from __future__ import annotations

import itertools
import re

import pytest

from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.errors import OracleFailure, TranslationFailure
from symdrift.fol.render import render_program
from symdrift.fol.terms import camel_identifier, fresh_name, walk_atoms
from symdrift.harness.config import TranslatorConfig
from symdrift.harness.prompts import PromptLibrary
from symdrift.harness.translators import (
    LLMTranslator,
    NaiveTranslator,
    _ledger,
    propose_from_templates,
)
from symdrift.mental.oracles import LLMOracle, LexiconOracle
from symdrift.mental.table import EXTEND, MentalTable, REFINE, REUSE, camel_case_symbol
from symdrift.mental.translate import (
    Proposal,
    TranslationState,
    process_expression,
    translate_with_mental,
)
from symdrift.problem import QUESTION_UNIT, Problem, TextUnit
from symdrift.solver.enumeration import enumerate_models
from symdrift.textproc import content_lemmas, word_lemmas
from symdrift.world import ATTRIBUTES

from .helpers import StubClient, as_item


@pytest.fixture(scope="module")
def resources() -> Resources:
    return Resources.load()


@pytest.fixture(scope="module")
def oracle(resources):
    return LexiconOracle(resources.synonyms)


# Open world, so that a refined fact is still a valid premise.
OPEN_PROBLEM = Problem(id="ow", sentences=(TextUnit.from_text("Idol is a show."),),
                       question=TextUnit.from_text("Is Idol a show?"),
                       gold_answer="proved", task_kind="folio")


def drive(expressions, oracle, state=None):
    state = state or TranslationState()
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
        assert state.table.renderings["the pupil"] == "Student"

    def test_compound_after_atom_decomposes(self, oracle):
        state, refs = drive(["show", "popular show"], oracle)
        assert refs[1].render() == "Popular&Show"
        assert state.trace[1].decision == REFINE
        state.table.audit()

    def test_atom_after_compound_retroactively_rewrites(self, oracle):
        proposals = [Proposal(0, "Slot0(Idol)", ("popular show",)),
                     Proposal(QUESTION_UNIT, "Slot0(Idol)", ("show",))]
        program, table, trace = translate_with_mental(OPEN_PROBLEM, proposals, oracle)
        assert render_program(program) == ("Popular(Idol) & Show(Idol)", "Show(Idol)")
        assert program.registry.lookup("PopularShow", "predicate") is None
        assert [t.program_revisions for t in trace] == [0, 1]
        table.audit()

    def test_lookup_reports_decomposition(self, oracle):
        state, _ = drive(["popular show", "show"], oracle)
        assert state.table.renderings["popular show"] == ("Popular", "Show")

    def test_lookup_unseen_is_none(self, oracle):
        state, _ = drive(["kind"], oracle)
        assert "tall" not in state.table.renderings

    def test_reuse_idempotent(self, oracle):
        first, _ = drive(["kind", "benevolent"], oracle)
        second, _ = drive(["benevolent"], oracle, state=first)
        assert second.table.entries == first.table.entries
        # the trace still records the call
        assert len(second.trace) == len(first.trace) + 1

    def test_audit_after_every_step(self, oracle):
        state = TranslationState()
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


class TestRefinementFromTheFinalTable:
    def test_slot_refined_by_its_own_proposal(self, oracle):
        """The rule's first slot resolves to PopularShow before its second slot
        decomposes that entry; the premise still uses the refined symbols."""
        proposals = [
            Proposal(0, "all x (Slot0(x) -> Slot1(x))", ("popular show", "show"),
                     slot_spans=((0, 12), (13, 17))),
            Proposal(QUESTION_UNIT, "Slot0(Idol)", ("popular show",),
                     slot_spans=((0, 12),)),
        ]
        program, table, _ = translate_with_mental(OPEN_PROBLEM, proposals, oracle)
        assert render_program(program) == ("all x (Popular(x) & Show(x) -> Show(x))",
                                           "Popular(Idol) & Show(Idol)")
        ledger = _ledger(proposals, table)
        assert ledger == {(0, 0, 12): "Popular&Show", (0, 13, 17): "Show",
                          (QUESTION_UNIT, 0, 12): "Popular&Show"}
        # One level deep, the table text reads `Modifier(x) & Base(x)`.
        assert table.render_text().splitlines() == [
            "{popular show} -> Popular(x) & Show(x)", "{show} -> Show", "{popular} -> Popular"]
        rule_body = program.premises[0].body
        for slot_formula, key in ((rule_body.left, (0, 0, 12)),
                                  (rule_body.right, (0, 13, 17)),
                                  (program.query, (QUESTION_UNIT, 0, 12))):
            assert [program.registry.name_of(a.pred) for a in walk_atoms(slot_formula)] == \
                ledger[key].split("&")

    def test_nested_refinement_expands_every_part(self, resources):
        reply = ("```\nunit 0: Slot0(Idol) | big popular show\n"
                 "unit 1: Slot0(Gala) | popular show\nquery: Slot0(Idol) | show\n```")
        translator = LLMTranslator(
            TranslatorConfig(kind="llm", mental=True), StubClient(replies=[reply]),
            PromptLibrary.load(), oracle=LexiconOracle(resources.synonyms))
        record = translator.translate(as_item(OPEN_PROBLEM, resources))
        assert record.parse_error is None
        assert record.logic[:2] == (("Big(Idol) & (Popular(Idol) & Show(Idol))",
                                     "Popular(Gala) & Show(Gala)"), "Show(Idol)")
        assert [t.decision for t in record.mental_trace] == [EXTEND, REFINE, REFINE]
        # The table text expands each decomposition as the program does.
        assert record.table_text.splitlines() == [
            "{big popular show} -> Big(x) & (Popular(x) & Show(x))",
            "{popular show} -> Popular(x) & Show(x)",
            "{big} -> Big", "{show} -> Show", "{popular} -> Popular",
        ]

    def test_decomposition_cycle_is_a_translation_failure(self):
        class CyclingOracle:
            """Names the old entry as the modifier of its own decomposition."""

            def equiv(self, e, expressions):
                return False

            def conflict(self, e, expressions):
                return ("good", "kind") if (e, expressions) == ("good", ("kind",)) else None

        proposals = [Proposal(0, "Slot0(Anne)", ("kind",)),
                     Proposal(QUESTION_UNIT, "Slot0(Anne)", ("good",))]
        with pytest.raises(TranslationFailure, match="decomposition cycle Kind -> Kind"):
            translate_with_mental(OPEN_PROBLEM, proposals, CyclingOracle())


class TestCamelCase:
    def test_drops_stopwords(self):
        assert camel_case_symbol("the pupil") == "Pupil"

    def test_multiword(self):
        assert camel_case_symbol("popular show") == "PopularShow"

    def test_fresh_name_counts_up_from_two(self):
        assert fresh_name("Kind", set()) == "Kind"
        assert fresh_name("Kind", {"Kind"}) == "Kind2"
        assert fresh_name("Kind", {"Kind", "Kind2", "Kind4"}) == "Kind3"

    @pytest.mark.parametrize("surface", ["good-natured", "Anne's dog", "3 dogs", "--", "café"])
    def test_always_a_valid_identifier(self, surface):
        identifier = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
        assert identifier.match(camel_case_symbol(surface))
        assert identifier.match(camel_identifier(surface))

    def test_punctuated_slot_translates(self, resources):
        reply = "```\nunit 0: Slot0(Anne) | good-natured\nquery: Slot0(Anne) | good-natured\n```"
        translator = LLMTranslator(
            TranslatorConfig(kind="llm", mental=True), StubClient(replies=[reply]),
            PromptLibrary.load(), oracle=LexiconOracle(resources.synonyms))
        record = translator.translate(as_item(OPEN_PROBLEM, resources))
        assert record.parse_error is None
        assert record.logic[:2] == (("GoodNatur(Anne)",), "GoodNatur(Anne)")

    def test_plain_words_keep_their_symbols(self, resources):
        """Lexicon words and generator attributes name the symbols they did
        before punctuation was split off."""
        for lemma, _tag in resources.synonyms.entries():
            lemmas = content_lemmas(lemma) or word_lemmas(lemma)
            assert camel_case_symbol(lemma) == "".join(w[:1].upper() + w[1:] for w in lemmas)
        for word in ATTRIBUTES:
            assert camel_identifier(word) == word[:1].upper() + word[1:]


class TestLexiconOracle:
    def test_equiv_synonym(self, oracle):
        assert oracle.equiv("kind", ("benevolent",))

    def test_equiv_rejects_unrelated(self, oracle):
        assert not oracle.equiv("kind", ("tall",))

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
        oracle = LLMOracle(stub, 0.2, "E {expression} {entry}", "C {expression} {entry}")
        assert oracle.equiv("a", ("b",))
        assert oracle.equiv("a", ("b",))  # would exhaust the stub if re-asked
        assert len(stub.prompts) == 1

    def test_malformed_reply_retries_once_then_fails(self):
        stub = StubClient(replies=["garbled", "nonsense"])
        oracle = LLMOracle(stub, 0.2, "E {expression} {entry}", "C {expression} {entry}")
        with pytest.raises(OracleFailure):
            oracle.equiv("a", ("b",))
        assert len(stub.prompts) == 2

    def test_conflict_reply_parsing(self):
        stub = StubClient(replies=["yes show | popular"])
        oracle = LLMOracle(stub, 0.2, "E", "C {expression} {entry}")
        assert oracle.conflict("popular show", ("show",)) == ("show", "popular")

    def test_usage_accumulates(self):
        """Each distinct question reaches the client once, rendered from its
        own template."""
        stub = StubClient(replies=["yes", "no", "no"])
        oracle = LLMOracle(stub, 0.2, "E {expression} {entry}", "C {expression} {entry}")
        oracle.equiv("a", ("b",))
        oracle.equiv("c", ("d",))
        oracle.conflict("e", ("f",))
        assert stub.prompts == ["E a b", "E c d", "C e f"]


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
        names = {i.name for i in map(program.registry.info, program.registry.symbols())
                 if i.kind == "predicate"}
        assert names == {"Kind", "Smart"}
        open_world = type(program)(program.registry, program.premises,
                                   program.query, "open_world")
        assert enumerate_models(open_world).value == "proved"

    def test_unguided_translation_drifts(self, resources):
        d = self._diversified_fixture(resources)
        translator = NaiveTranslator()
        output = translator.translate(d)
        registry = output.program.registry
        names = {i.name for i in map(registry.info, registry.symbols()) if i.kind == "predicate"}
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
        with pytest.raises(TranslationFailure, match="^no query was translated$"):
            translate_with_mental(empty, [], oracle)

    def test_trace_length_matches_processed_expressions(self, resources, oracle):
        d = self._diversified_fixture(resources)
        proposals = propose_from_templates(d.problem)
        program, table, trace = translate_with_mental(d.problem, proposals, oracle)
        n_slots = sum(len(pr.slots) for pr in proposals)
        assert len(trace) == n_slots

    def test_zero_drift_with_provenance_oracle(self, resources):
        """An oracle that inverts diversification provenance exactly gives
        dispersion zero on every diversified fixture."""
        from symdrift.harness.config import SyntheticConfig
        from symdrift.harness.evaluate import evaluate_one
        from symdrift.harness.synthetic import generate_synthetic
        from symdrift.metrics.sds import compute_sds

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
