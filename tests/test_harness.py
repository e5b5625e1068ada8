"""Dataset I/O, synthetic generation, translators, evaluation, export, client."""

from __future__ import annotations

import json
import re

import pytest

from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.errors import (
    ClientError,
    EmptyDataset,
    FormatError,
    MissingGold,
    NoTraces,
    SolverMismatch,
)
from symdrift.fol.parser import build_program
from symdrift.fol.render import render_formula
from symdrift.fol.terms import Not
from symdrift.harness.client import Completion, HttpChatClient
from symdrift.harness.config import SyntheticConfig, TranslatorConfig
from symdrift.harness.datasets import load_dataset, problem_to_json, save_dataset
from symdrift.harness.evaluate import (
    ALLOWED_SOLVERS,
    normalize_items,
    run_evaluation,
    solver_for,
    translate_one,
)
from symdrift.harness.prompts import PromptLibrary
from symdrift.harness.serialize import record_from_json, record_to_json
from symdrift.harness.sft import export_sft_traces
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import (
    GoldTranslator,
    LLMTranslator,
    NaiveTranslator,
    SplitAdversaryTranslator,
    extract_csp_block,
    extract_program_block,
    make_translator,
    parse_proposal_lines,
)
from symdrift.mental.oracles import LexiconOracle
from symdrift.problem import Problem, TextUnit

from .helpers import StubClient, as_item, proof_depth, reference_validate


@pytest.fixture(scope="module")
def resources():
    return Resources.load()


@pytest.fixture(scope="module")
def synthetic_batch():
    return generate_synthetic(SyntheticConfig(n_problems=30, seed=5))


@pytest.fixture(scope="module")
def diversified_batch(synthetic_batch, resources):
    return [diversify_problem(p, DiversifyConfig(resources=resources))
            for p in synthetic_batch]


class TestDatasets:
    def test_roundtrip(self, tmp_path, synthetic_batch):
        path = tmp_path / "problems.jsonl"
        save_dataset(path, synthetic_batch[:5])
        loaded = load_dataset(path)
        assert len(loaded) == 5
        assert loaded[0].id == synthetic_batch[0].id
        assert [u.text for u in loaded[0].sentences] == \
            [u.text for u in synthetic_batch[0].sentences]

    def test_two_line_file(self, tmp_path):
        path = tmp_path / "two.jsonl"
        rows = [
            {"id": "a", "sentences": ["Anne is kind."], "question": "Is Anne kind?",
             "answer": "true", "task_kind": "proofwriter"},
            {"id": "b", "sentences": ["Bob is tall."], "question": "Is Bob tall?",
             "answer": "true", "task_kind": "proofwriter"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        assert len(load_dataset(path)) == 2

    def test_missing_answer_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "id": "a", "sentences": ["x"], "question": "q", "task_kind": "folio",
        }))
        with pytest.raises(FormatError) as exc:
            load_dataset(path)
        assert exc.value.line == 1

    def test_gold_logic_roundtrip_and_typecheck(self, tmp_path, synthetic_batch):
        path = tmp_path / "gold.jsonl"
        save_dataset(path, synthetic_batch[:1])
        (loaded,) = load_dataset(path)
        assert loaded.gold_logic is not None
        program = reference_validate(build_program(loaded.gold_logic))
        from symdrift.fol.render import render_formula

        original = build_program(synthetic_batch[0].gold_logic)
        assert [render_formula(f, program.registry) for f in program.premises] == \
            [render_formula(f, original.registry) for f in original.premises]

    def test_diversified_roundtrip(self, tmp_path, diversified_batch):
        path = tmp_path / "div.jsonl"
        save_dataset(path, diversified_batch[:3])
        loaded = load_dataset(path)
        assert len(loaded) == 3
        assert loaded[0].provenance.keys() == diversified_batch[0].provenance.keys()
        assert loaded[0].intensity == diversified_batch[0].intensity


class TestSynthetic:
    def test_gold_answers_match_solver(self, synthetic_batch):
        from symdrift.solver.chaining import forward_chain_cwa

        for p in synthetic_batch:
            assert forward_chain_cwa(build_program(p.gold_logic)).value == p.gold_answer

    def test_determinism(self):
        cfg = SyntheticConfig(n_problems=10, seed=42)
        a = [json.dumps(problem_to_json(p), sort_keys=True) for p in generate_synthetic(cfg)]
        b = [json.dumps(problem_to_json(p), sort_keys=True) for p in generate_synthetic(cfg)]
        assert a == b

    def test_depth_matches_rule_applications(self):
        problems = generate_synthetic(SyntheticConfig(
            n_problems=20, depth=5, negation_rate=0.0, seed=9))
        for i, p in enumerate(problems):
            expected_depth = (i % 5) + 1
            if p.gold_answer == "true":
                assert proof_depth(p) == expected_depth

    def test_labels_balanced(self):
        problems = generate_synthetic(SyntheticConfig(n_problems=100, seed=2))
        trues = sum(1 for p in problems if p.gold_answer == "true")
        assert abs(trues - 50) <= 10

    def test_concept_spans_point_at_vocabulary(self, synthetic_batch):
        for p in synthetic_batch[:5]:
            for (unit, start, end), concept in p.gold_concepts.items():
                tokens = p.unit(unit).tokens
                assert tokens[start].lemma == concept


class TestTranslators:
    def test_gold_verbatim_on_undiversified(self, synthetic_batch, resources):
        p = synthetic_batch[0]
        output = GoldTranslator().translate(as_item(p, resources))
        assert output.program is None  # handed over as text, built when solved
        program, gold = build_program(output.logic), build_program(p.gold_logic)
        assert (program.premises, program.query, program.semantics_mode) \
            == (gold.premises, gold.query, gold.semantics_mode)
        assert [(s, program.registry.info(s)) for s in program.registry.symbols()] \
            == [(s, gold.registry.info(s)) for s in gold.registry.symbols()]

    def test_gold_missing_gold(self, resources):
        p = Problem(id="x", sentences=(TextUnit.from_text("Anne is kind."),),
                    question=TextUnit.from_text("Is Anne kind?"),
                    gold_answer="true", task_kind="proofwriter")
        with pytest.raises(MissingGold):
            GoldTranslator().translate(as_item(p, resources))

    def test_split_adversary_counts_surfaces(self, diversified_batch):
        d = next(item for item in diversified_batch
                 if any(len({e.surface.lower() for e in v}) > 1
                        for v in item.provenance.values()))
        output = SplitAdversaryTranslator().translate(d)
        from symdrift.metrics.records import TranslationRecord
        from symdrift.metrics.sds import align_symbols

        record = TranslationRecord(problem_id="t", gold="true",
                                   program=output.program)
        record.span_symbols = output.span_symbols
        alignment = align_symbols(record, d)
        for cid, entries in d.provenance.items():
            if cid not in alignment or not alignment[cid]:
                continue
            surfaces = {e.surface.lower() for e in entries}
            assert len(alignment[cid]) == len(surfaces)

    def test_split_adversary_identical_to_gold_when_undiversified(self, synthetic_batch,
                                                                    resources):
        """With one surface per concept there is nothing to split: the
        program and the span ledger are the gold translator's."""
        item = as_item(synthetic_batch[0], resources)
        adv, gold = SplitAdversaryTranslator().translate(item), GoldTranslator().translate(item)
        assert adv.logic == gold.logic
        assert adv.span_symbols == gold.span_symbols

    def test_split_adversary_degrades_query_to_unknown(self, resources):
        """When the query concept's surfaces split across units, the broken
        chain leaves the query undecided under open-world enumeration."""
        from symdrift.fol.parser import check_program
        from symdrift.fol.terms import LogicProgram
        from symdrift.solver.enumeration import enumerate_models

        gold_logic = check_program(["Kind(Anne)", "all x (Kind(x) -> Smart(x))"],
                                   "Smart(Anne)", "closed_world")
        p = Problem(
            id="fx", sentences=(TextUnit.from_text("Anne is kind."),
                                TextUnit.from_text("All kind people are smart.")),
            question=TextUnit.from_text("Is Anne smart?"),
            gold_answer="true", task_kind="proofwriter",
            gold_logic=gold_logic,
            gold_concepts={(0, 2, 3): "kind", (1, 1, 2): "kind",
                           (1, 4, 5): "smart", (-1, 2, 3): "smart"},
        )
        d = diversify_problem(p, DiversifyConfig(resources=resources))
        assert len({e.surface.lower() for e in d.provenance["kind"]}) == 2
        output = SplitAdversaryTranslator().translate(d)
        open_world = LogicProgram(output.program.registry, output.program.premises,
                                  output.program.query, "open_world")
        assert enumerate_models(open_world).value == "unknown"

    def test_only_what_renders_prompts_loads_them(self, resources, monkeypatch):
        """`gold`, `split-adversary` and `naive` with the lexicon oracle build
        with no prompt library; `naive` alone takes the oracle."""
        def refuse(prompt_dir=None):
            raise AssertionError("prompts loaded")

        monkeypatch.setattr(PromptLibrary, "load", staticmethod(refuse))
        built = {(kind, mental): make_translator(TranslatorConfig(kind=kind, mental=mental),
                                                 resources=resources)
                 for kind, mental in (("gold", False), ("split-adversary", False),
                                      ("naive", False), ("naive", True))}
        assert isinstance(built["gold", False], GoldTranslator)
        assert isinstance(built["split-adversary", False], SplitAdversaryTranslator)
        assert built["naive", False].oracle is None
        assert isinstance(built["naive", True].oracle, LexiconOracle)

    def test_naive_parse_failure_recorded(self, resources):
        p = Problem(id="x", sentences=(TextUnit.from_text("Gibberish beyond grammar!"),),
                    question=TextUnit.from_text("Is Anne kind?"),
                    gold_answer="true", task_kind="proofwriter")
        output = translate_one(as_item(p, resources), NaiveTranslator())
        assert output.program is None
        assert output.parse_error == "no template matches unit 0: 'Gibberish beyond grammar!'"


class TestExtraction:
    def test_program_block(self):
        text = "chatter\n```\npremise: Kind(Anne)\nquery: Kind(Anne)\n```\nmore"
        program = extract_program_block(text, "closed_world")
        assert len(program.premises) == 1

    def test_query_line_first_names_the_same_symbols(self):
        """Premises are parsed before the query wherever the reply puts its
        `query:` line, so symbol ids do not depend on the line order."""
        lines = ["premise: Kind(Anne)", "premise: all x (Kind(x) -> Smart(x))"]
        query = "query: Smart(Bob)"
        premise_first, query_first = (build_program(
            extract_program_block("```\n" + "\n".join(order) + "\n```", "closed_world"))
            for order in ([*lines, query], [query, *lines]))
        assert (query_first.premises, query_first.query) == \
            (premise_first.premises, premise_first.query)
        assert [(s, query_first.registry.info(s)) for s in query_first.registry.symbols()] == \
            [(s, premise_first.registry.info(s)) for s in premise_first.registry.symbols()]

    def test_last_query_line_wins(self):
        texts = extract_program_block(
            "```\nquery: Kind(Anne)\npremise: Kind(Anne)\nquery: Tall(Bob)\n```",
            "closed_world")
        assert texts.query == "Tall(Bob)"

    def test_missing_block(self):
        from symdrift.errors import TranslationFailure

        with pytest.raises(TranslationFailure):
            extract_program_block("no fences here", "closed_world")

    def test_csp_block(self):
        text = (
            "```\nobjects: A, B, C\nconstraint: LeftOf(A, B)\n"
            "constraint: AtPosition(C, 3)\noption 0: A at 1\noption 1: B at 1\n```"
        )
        spec, options = extract_csp_block(text)
        assert spec.objects == ["A", "B", "C"]
        assert len(spec.constraints) == 2 and len(options) == 2


class TestLLMTranslator:
    def _problem(self):
        return Problem(
            id="p", sentences=(TextUnit.from_text("Anne is kind."),),
            question=TextUnit.from_text("Is Anne kind?"),
            gold_answer="true", task_kind="proofwriter",
        )

    def test_canned_valid_program(self, resources):
        reply = "```\npremise: Kind(Anne)\nquery: Kind(Anne)\n```"
        stub = StubClient(replies=[Completion(reply, 100, 20)])
        cfg = TranslatorConfig(kind="llm", shots=2)
        translator = LLMTranslator(cfg, stub, PromptLibrary.load())
        output = translator.translate(as_item(self._problem(), resources))
        assert output.program is None  # handed over as text, built when solved
        assert output.logic == (("Kind(Anne)",), "Kind(Anne)", "closed_world")
        assert output.tokens_in == 100 and output.tokens_out == 20

    def test_reply_without_block_records_parse_error(self, resources):
        stub = StubClient(replies=["sorry, no logic today"])
        cfg = TranslatorConfig(kind="llm")
        translator = LLMTranslator(cfg, stub, PromptLibrary.load())
        output = translator.translate(as_item(self._problem(), resources))
        assert output.program is None and output.parse_error

    @pytest.mark.parametrize("mental, reply, error", [
        (False, "sorry, no logic today", "reply contains no fenced program block"),
        (True, "```\nunit 0: Slot0(Anne | kind\nquery: Slot0(Anne) | kind\n```",
         "unusable skeleton 'Slot0(Anne': "),
    ], ids=["no-fence", "mental-unusable-skeleton"])
    def test_failed_reply_keeps_its_raw_output_and_tokens(self, resources, mental, reply,
                                                           error):
        cfg = TranslatorConfig(kind="llm", mental=mental)
        oracle = LexiconOracle(resources.synonyms) if mental else None
        translator = LLMTranslator(cfg, StubClient(replies=[Completion(reply, 11, 5)]),
                                   PromptLibrary.load(), oracle=oracle)
        record = translate_one(as_item(self._problem(), resources), translator)
        assert record.program is None and record.parse_error.startswith(error)
        assert (record.raw_output, record.tokens_in, record.tokens_out) == (reply, 11, 5)

    def test_a_unit_minus_one_line_is_the_query_line(self):
        assert parse_proposal_lines("unit -1: Slot0(Anne) | kind") == \
            parse_proposal_lines("query: Slot0(Anne) | kind")

    def test_token_totals_equal_stub_sums(self, resources):
        replies = [Completion("```\npremise: Kind(Anne)\nquery: Kind(Anne)\n```", 7, 3)
                   for _ in range(3)]
        stub = StubClient(replies=replies)
        cfg = TranslatorConfig(kind="llm")
        translator = LLMTranslator(cfg, stub, PromptLibrary.load())
        problems = [self._problem() for _ in range(3)]
        report = run_evaluation(problems, translator, cfg, "auto", resources=resources)
        assert report.tokens_in == 21 and report.tokens_out == 9
        assert report.tokens_in == sum(reply.tokens_in for reply in replies)

    def test_mental_proposal_routing(self, resources):
        reply = (
            "```\nunit 0: Slot0(Anne) | kind\nquery: Slot0(Anne) | benevolent\n```"
        )
        stub = StubClient(replies=[reply])
        cfg = TranslatorConfig(kind="llm", mental=True)
        oracle = LexiconOracle(resources.synonyms)
        translator = LLMTranslator(cfg, stub, PromptLibrary.load(), oracle=oracle)
        output = translator.translate(as_item(self._problem(), resources))
        registry = output.program.registry
        names = {i.name for i in map(registry.info, registry.symbols()) if i.kind == "predicate"}
        assert names == {"Kind"}

    def test_mental_records_independent_of_workers(self, resources):
        """Proposals parsed from one reply never leak into another problem's
        translation, however the worker threads interleave."""
        import re
        import sys

        names = [f"Person{i}" for i in range(120)]
        problems = [Problem(
            id=f"p{i}", sentences=(TextUnit.from_text(f"{name} is kind."),),
            question=TextUnit.from_text(f"Is {name} kind?"),
            gold_answer="true", task_kind="proofwriter",
        ) for i, name in enumerate(names)]

        def respond(prompt):
            name = re.findall(r"Is (Person\d+) kind\?", prompt)[-1]
            return f"```\nunit 0: Slot0({name}) | kind\nquery: Slot0({name}) | kind\n```"

        cfg = TranslatorConfig(kind="llm", mental=True)

        def records(workers):
            translator = LLMTranslator(cfg, StubClient(responder=respond),
                                       PromptLibrary.load())
            report = run_evaluation(problems, translator, cfg, "auto",
                                    resources=resources, workers=workers)
            return [json.dumps(record_to_json(r), sort_keys=True) for r in report.records]

        sequential = records(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # a single run misses the race about one time in three
                assert records(8) == sequential
        finally:
            sys.setswitchinterval(interval)
        assert all(f'"query": "Kind({name})"' in r for name, r in zip(names, sequential))

    def test_shots_rendered_into_prompt(self, resources):
        stub = StubClient(replies=["``` \npremise: A(b)\nquery: A(b)\n```"])
        cfg = TranslatorConfig(kind="llm", shots=2)
        translator = LLMTranslator(cfg, stub, PromptLibrary.load())
        translator.translate(as_item(self._problem(), resources))
        assert stub.prompts[0].count("Task (proofwriter):") >= 2


class TestEvaluation:
    def test_solver_guard(self):
        with pytest.raises(SolverMismatch):
            solver_for("deduction", "cwa")
        assert solver_for("proofwriter", "auto") == "cwa"
        assert solver_for("folio", "auto") == "resolution"

    def test_three_way_open_world_labels(self, resources):
        from symdrift.fol.parser import check_program

        gold_logic = check_program(["Kind(Anne)"], "Tall(Anne)", "open_world")
        p = Problem(
            id="fol", sentences=(TextUnit.from_text("Anne is kind."),),
            question=TextUnit.from_text("Is Anne tall?"),
            gold_answer="unknown", task_kind="folio",
            gold_logic=gold_logic,
            gold_concepts={(0, 0, 1): "anne", (0, 2, 3): "kind"},
        )
        report = run_evaluation([p], GoldTranslator(), TranslatorConfig(kind="gold"),
                                "auto", resources=resources)
        assert report.records[0].predicted == "unknown"
        assert report.accuracy == 1.0

    @pytest.mark.parametrize("engine", ALLOWED_SOLVERS["proofwriter"])
    def test_gold_scores_one_on_every_proofwriter_engine(self, resources, engine):
        """A closed-world task reads an atom no engine can prove as false,
        so a negated query about it is true, whatever the engine's world."""
        problems = generate_synthetic(SyntheticConfig(
            n_problems=20, depth=3, n_constants=2, n_predicates=5,
            negation_rate=0.5, seed=7,
        ))
        assert any(isinstance(build_program(p.gold_logic).query, Not) and p.gold_answer == "true"
                   for p in problems)
        diversified = [diversify_problem(p, DiversifyConfig(resources=resources))
                       for p in problems]
        for dataset in (problems, diversified):
            report = run_evaluation(dataset, GoldTranslator(),
                                    TranslatorConfig(kind="gold"), engine,
                                    resources=resources)
            assert report.accuracy == 1.0

    def test_folio_reply_with_a_disjunctive_premise_is_open_world(self, resources):
        reply = (
            "```\npremise: Kind(Anne) | Tall(Anne)\n"
            "premise: all x (Kind(x) -> Happy(x))\n"
            "premise: all x (Tall(x) -> Happy(x))\nquery: Happy(Anne)\n```"
        )
        cfg = TranslatorConfig(kind="llm")
        translator = LLMTranslator(cfg, StubClient(replies=[reply]), PromptLibrary.load())
        p = Problem(
            id="fol-or",
            sentences=(TextUnit.from_text("Anne is kind or tall."),
                       TextUnit.from_text("All kind people are happy."),
                       TextUnit.from_text("All tall people are happy.")),
            question=TextUnit.from_text("Is Anne happy?"),
            gold_answer="true", task_kind="folio",
        )
        [record] = run_evaluation([p], translator, cfg, "auto", resources=resources).records
        assert record.parse_error is None and record.logic is not None
        assert record.predicted == "true"

    def test_limit_hit_on_a_closed_world_task_stays_unknown(self, resources, monkeypatch):
        from symdrift.harness import evaluate
        from symdrift.solver.verdict import Verdict

        monkeypatch.setattr(evaluate, "prove_resolution",
                            lambda program: Verdict("unknown", limit_hit=True))
        [item] = normalize_items(
            generate_synthetic(SyntheticConfig(n_problems=1, seed=3)), resources
        )
        record = evaluate.evaluate_one(item, GoldTranslator(), "resolution")
        assert record.verdict.limit_hit and record.predicted == "unknown"

    def test_deduction_lane_with_stub_translator(self, resources):
        reply = (
            "```\nobjects: Red, Blue, Green\nconstraint: LeftOf(Red, Blue)\n"
            "constraint: LeftOf(Blue, Green)\noption 0: Red at 1\n"
            "option 1: Blue at 1\n```"
        )
        stub = StubClient(replies=[Completion(reply, 5, 5)])
        cfg = TranslatorConfig(kind="llm")
        translator = LLMTranslator(cfg, stub, PromptLibrary.load())
        p = Problem(
            id="ded",
            sentences=(TextUnit.from_text("The red book is left of the blue book."),
                       TextUnit.from_text("The blue book is left of the green book.")),
            question=TextUnit.from_text("Which option is right?"),
            options=("Red at 1", "Blue at 1"),
            gold_answer=0, task_kind="deduction",
        )
        report = run_evaluation([p], translator, cfg, "auto", resources=resources)
        assert report.records[0].predicted == 0
        assert report.accuracy == 1.0

    def test_deduction_undefined_object_is_exec_error(self, resources):
        reply = (
            "```\nobjects: Red, Blue\nconstraint: LeftOf(Red, Verdant)\n"
            "option 0: Red at 1\n```"
        )
        stub = StubClient(replies=[Completion(reply, 5, 5)])
        cfg = TranslatorConfig(kind="llm")
        translator = LLMTranslator(cfg, stub, PromptLibrary.load())
        p = Problem(
            id="ded2",
            sentences=(TextUnit.from_text("The red book is left of the blue book."),),
            question=TextUnit.from_text("Which option is right?"),
            options=("Red at 1",),
            gold_answer=0, task_kind="deduction",
        )
        report = run_evaluation([p], translator, cfg, "auto", resources=resources)
        assert report.histogram["ExecError"] == 1

    def test_constraint_with_a_wrong_argument_list_is_a_parse_error(self, resources):
        """Every kind takes two arguments, a positional kind's second an
        integer; any other constraint line is a parse-error record, and the
        run goes on to the next problem."""
        bad = ("LeftOf(Blue)", "LeftOf(Red, Blue, Green)", "AtPosition(Red)",
               "AtPosition(Red, x)", "AtPosition(Red, 1, 2)")
        replies = [f"```\nobjects: Red, Blue, Green\nconstraint: {c}\noption 0: Red at 1\n```"
                   for c in bad]
        cfg = TranslatorConfig(kind="llm")
        translator = LLMTranslator(cfg, StubClient(replies), PromptLibrary.load())
        problems = [Problem(
            id=f"ded{i}", sentences=(TextUnit.from_text("The red book is first."),),
            question=TextUnit.from_text("Which option is right?"), options=("Red at 1",),
            gold_answer=0, task_kind="deduction",
        ) for i in range(len(bad))]
        report = run_evaluation(problems, translator, cfg, "auto", resources=resources)
        assert report.histogram["ParseError"] == len(bad)
        assert [r.parse_error for r in report.records] == \
            [f"bad constraint line: 'constraint: {c}'" for c in bad]

    def test_deduction_options_survive_the_record_round_trip(self, resources):
        from symdrift.harness.evaluate import normalize_items, solve_one, translate_one

        reply = (
            "```\nobjects: Red, Blue, Green\nconstraint: LeftOf(Red, Blue)\n"
            "constraint: LeftOf(Blue, Green)\noption 0: Blue at 1\n"
            "option 1: Red at 1\n```"
        )
        translator = LLMTranslator(TranslatorConfig(kind="llm"),
                                   StubClient(replies=[reply]), PromptLibrary.load())
        p = Problem(
            id="ded3",
            sentences=(TextUnit.from_text("The red book is left of the blue book."),
                       TextUnit.from_text("The blue book is left of the green book.")),
            question=TextUnit.from_text("Which option is right?"),
            options=("Blue at 1", "Red at 1"),
            gold_answer=1, task_kind="deduction",
        )
        [item] = normalize_items([p], resources)
        saved = json.dumps(record_to_json(translate_one(item, translator)), sort_keys=True)
        record = solve_one(record_from_json(json.loads(saved)), item, "auto")
        assert [(o.obj, o.position) for o in record.options] == [("Blue", 1), ("Red", 1)]
        assert record.verdict.option_index == 1
        assert record.predicted == 1

    def test_csp_record_with_all_different_still_solves(self, resources, tmp_path):
        """A records line that still carries the spec's retired
        `all_different` key reads back and solves to the verdict, option
        and `steps` it recorded."""
        from symdrift.harness.evaluate import solve_one
        from symdrift.harness.serialize import read_records

        line = (
            '{"alignment": {"book": []}, "alignment_misses": ["book:0:book", "book:0:book"], '
            '"exec_error": null, "gold": 1, "parse_error": null, "predicted": 1, '
            '"problem_id": "ded4", "program": {"csp": {"all_different": true, '
            '"constraints": [["LeftOf", "Red", "Blue"], ["NotAtPosition", "Green", 1]], '
            '"objects": ["Red", "Blue", "Green"]}, "options": [["Blue", 2], ["Red", 1]]}, '
            '"raw_output": "```\\nobjects: Red, Blue, Green\\nconstraint: LeftOf(Red, Blue)'
            '\\nconstraint: NotAtPosition(Green, 1)\\noption 0: Blue at 2\\noption 1: Red at 1'
            '\\n```", "span_symbols": [], "table": "", "tokens_in": 0, "tokens_out": 0, '
            '"trace": [], "verdict": {"limit_hit": false, "option_index": 1, "steps": 2, '
            '"value": "option"}}'
        )
        path = tmp_path / "records.jsonl"
        path.write_text(line + "\n")
        [record] = read_records(path)
        recorded = record.verdict
        p = Problem(
            id="ded4",
            sentences=(TextUnit.from_text("The red book is left of the blue book."),),
            question=TextUnit.from_text("Which option is right?"),
            options=("Blue at 2", "Red at 1"),
            gold_answer=1, task_kind="deduction",
        )
        [item] = normalize_items([p], resources)
        solve_one(record, item, "auto")
        assert record.verdict == recorded
        assert (record.verdict.option_index, record.verdict.steps) == (1, 2)
        assert record.predicted == 1 and record.exec_error is None
        assert json.dumps(record_to_json(record), sort_keys=True) == \
            line.replace('"all_different": true, ', "")

    def test_solve_one_replaces_an_earlier_solve(self, resources, diversified_batch):
        from symdrift.harness.evaluate import evaluate_one, solve_one

        def as_json(record):
            return json.dumps(record_to_json(record), sort_keys=True)

        [item] = normalize_items(diversified_batch[3:4], resources)
        record = evaluate_one(item, NaiveTranslator(), "auto")
        by_cwa = as_json(record)
        by_resolution = as_json(evaluate_one(item, NaiveTranslator(), "resolution"))
        assert record.alignment_misses and by_cwa != by_resolution
        assert as_json(solve_one(record, item, "resolution")) == by_resolution
        assert as_json(solve_one(record, item, "auto")) == by_cwa

    def test_unmeasured_sds_is_not_zero(self, resources):
        """A stub llm translator with table guidance yields no char spans, so
        every concept is dropped: the dispersion was not measured."""
        from symdrift.harness.evaluate import (
            intensity_sweep,
            render_report_text,
            report_to_json,
            sweep_to_csv,
        )

        problems = [Problem(
            id=f"p{i}", sentences=(TextUnit.from_text(f"Person{i} is kind."),),
            question=TextUnit.from_text(f"Is Person{i} kind?"),
            gold_answer="true", task_kind="proofwriter",
        ) for i in range(3)]

        def respond(prompt):  # the sweep rewrites "kind", never the name
            name = re.findall(r"Person\d+", prompt)[-1]
            return f"```\nunit 0: Slot0({name}) | kind\nquery: Slot0({name}) | kind\n```"

        cfg = TranslatorConfig(kind="llm", mental=True)
        translator = LLMTranslator(cfg, StubClient(responder=respond), PromptLibrary.load())
        report = run_evaluation(problems, translator, cfg, "auto", resources=resources)
        assert report.accuracy == 1.0
        assert all(r.alignment and not any(r.alignment.values()) for r in report.records)
        assert report.sds.value is None and report_to_json(report)["sds"] is None
        assert "sds        n/a" in render_report_text(report).splitlines()
        points = intensity_sweep(problems, translator, cfg, "auto", [0, 1.0],
                                 resources=resources)
        assert [pt.sds for pt in points] == [None, None]
        assert [line.split(",")[-1] for line in sweep_to_csv(points).splitlines()] == \
            ["sds", "n/a", "n/a"]

    def test_empty_dataset(self, resources):
        with pytest.raises(EmptyDataset):
            run_evaluation([], NaiveTranslator(), TranslatorConfig(), "auto",
                           resources=resources)

    def test_crash_isolation(self, resources, synthetic_batch):
        bad = Problem(id="bad", sentences=(TextUnit.from_text("????"),),
                      question=TextUnit.from_text("Is Anne kind?"),
                      gold_answer="true", task_kind="proofwriter")
        dataset = [synthetic_batch[0], bad, synthetic_batch[1]]
        report = run_evaluation(dataset, NaiveTranslator(), TranslatorConfig(),
                                "auto", resources=resources)
        assert len(report.records) == 3
        assert report.histogram["ParseError"] == 1

    def test_report_invariants(self, resources, diversified_batch):
        report = run_evaluation(diversified_batch, NaiveTranslator(),
                                TranslatorConfig(), "auto", resources=resources)
        assert sum(report.histogram.values()) == len(report.records)
        assert report.tokens_in == sum(r.tokens_in for r in report.records)

    def test_persistence_and_determinism(self, tmp_path, resources, diversified_batch):
        translator = NaiveTranslator()
        cfg = TranslatorConfig()
        run_evaluation(diversified_batch[:10], translator, cfg, "auto",
                       out_dir=tmp_path / "a", resources=resources)
        run_evaluation(diversified_batch[:10], translator, cfg, "auto",
                       out_dir=tmp_path / "b", resources=resources)
        for name in ("config", "records.jsonl", "report", "traces.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_record_serialization_roundtrip(self, resources, diversified_batch):
        report = run_evaluation(diversified_batch[:5], NaiveTranslator(),
                                TranslatorConfig(), "auto", resources=resources)
        for record in report.records:
            clone = record_from_json(json.loads(
                json.dumps(record_to_json(record), sort_keys=True)))
            assert clone.problem_id == record.problem_id
            assert clone.predicted == record.predicted
            assert clone.alignment == record.alignment
            assert clone.span_symbols == record.span_symbols

    def test_parallel_workers_match_sequential(self, resources, diversified_batch):
        cfg = TranslatorConfig()
        sequential = run_evaluation(diversified_batch[:12], NaiveTranslator(),
                                    cfg, "auto", resources=resources)
        parallel = run_evaluation(diversified_batch[:12], NaiveTranslator(),
                                  cfg, "auto", resources=resources, workers=4)
        assert [r.problem_id for r in parallel.records] == \
            [r.problem_id for r in sequential.records]
        assert [r.predicted for r in parallel.records] == \
            [r.predicted for r in sequential.records]
        assert parallel.accuracy == sequential.accuracy

    def test_gold_logic_preserved_under_diversification(self, resources):
        """Mapping diversified surfaces back through provenance re-derives a
        program whose verdict matches the original's under enumeration."""
        from symdrift.fol.terms import LogicProgram as LP
        from symdrift.solver.enumeration import enumerate_models

        small = generate_synthetic(SyntheticConfig(
            n_problems=10, n_predicates=4, n_constants=2, rule_branching=1, seed=8))
        for p in small:
            d = diversify_problem(p, DiversifyConfig(resources=resources))
            rederived = build_program(GoldTranslator().translate(d).logic)
            gold = build_program(p.gold_logic)
            a = enumerate_models(LP(gold.registry, gold.premises, gold.query, "open_world"))
            b = enumerate_models(LP(rederived.registry, rederived.premises,
                                    rederived.query, "open_world"))
            assert a.value == b.value


class TestSftExport:
    def test_export_counts_and_roundtrip(self, tmp_path, resources, diversified_batch):
        oracle = LexiconOracle(resources.synonyms)
        translator = NaiveTranslator(oracle=oracle)
        run_dir = tmp_path / "run"
        report = run_evaluation(diversified_batch[:8], translator,
                                TranslatorConfig(mental=True), "auto",
                                out_dir=run_dir, resources=resources)
        out = tmp_path / "sft.jsonl"
        count = export_sft_traces(run_dir, out)
        correct = report.histogram["Correct"]
        assert count == correct
        # exported programs re-parse and re-solve to the gold answer
        from symdrift.solver.chaining import forward_chain_cwa

        by_id = {item.problem.id: item.problem
                 for item in normalize_items(diversified_batch[:8], resources)}
        for line in out.read_text().splitlines():
            data = json.loads(line)
            program = extract_program_block(data["response"], "closed_world")
            matching = [p for p in by_id.values() if p.text() == data["instruction"]]
            assert matching
            assert forward_chain_cwa(build_program(program)).value == matching[0].gold_answer

    def test_incorrect_problems_excluded(self, tmp_path, resources, diversified_batch):
        run_dir = tmp_path / "run_naive"
        report = run_evaluation(diversified_batch[:8], NaiveTranslator(),
                                TranslatorConfig(), "auto",
                                out_dir=run_dir, resources=resources)
        if report.histogram["Correct"] == 0:
            with pytest.raises(NoTraces):
                export_sft_traces(run_dir, tmp_path / "x.jsonl")
        else:
            count = export_sft_traces(run_dir, tmp_path / "x.jsonl")
            assert count == report.histogram["Correct"]

    def test_missing_traces(self, tmp_path):
        with pytest.raises(NoTraces):
            export_sft_traces(tmp_path, tmp_path / "out.jsonl")

    def test_malformed_traces_line_is_a_format_error(self, tmp_path):
        (tmp_path / "traces.jsonl").write_text('{"correct": false}\n{not json\n')
        with pytest.raises(FormatError) as exc:
            export_sft_traces(tmp_path, tmp_path / "out.jsonl")
        assert exc.value.line == 2
        assert not (tmp_path / "out.jsonl").exists()


class TestClient:
    def test_http_client_requires_endpoint(self):
        with pytest.raises(ClientError):
            HttpChatClient("")

    def test_stub_exhaustion(self):
        stub = StubClient(replies=["one"])
        stub.complete("x", 0.2)
        with pytest.raises(ClientError):
            stub.complete("y", 0.2)

    def test_no_test_opens_a_socket(self):
        """The suite-wide guard refuses a connection before it is made."""
        import socket

        with pytest.raises(RuntimeError, match="network connection"):
            HttpChatClient("http://localhost:1/x", sleeper=pytest.fail).complete("hello", 0.2)
        with socket.socket() as sock:
            for connect in (socket.create_connection, sock.connect, sock.connect_ex):
                with pytest.raises(RuntimeError, match="network connection"):
                    connect(("localhost", 1))

    def test_retries_then_client_error(self, monkeypatch):
        import urllib.request

        calls = []

        def boom(*args, **kwargs):
            calls.append(1)
            raise OSError("connection refused")

        monkeypatch.setattr(urllib.request, "urlopen", boom)
        sleeps = []
        client = HttpChatClient("http://localhost:1/x", sleeper=sleeps.append)
        with pytest.raises(ClientError):
            client.complete("hello", 0.2)
        assert len(calls) == 3
        assert sleeps == [1.0, 2.0]

    @staticmethod
    def _replying(monkeypatch, body: bytes) -> list:
        """Patch `urlopen` to answer every request with `body`; returns the
        list of requests it saw."""
        import io
        import urllib.request

        requests = []

        def reply(request, timeout):
            requests.append(request)
            return io.BytesIO(body)

        monkeypatch.setattr(urllib.request, "urlopen", reply)
        return requests

    def test_protocol_reply_is_read(self, monkeypatch):
        requests = self._replying(monkeypatch, b'{"text": "ok", "usage": {"input_tokens": 3, '
                                               b'"output_tokens": 4}}')
        client = HttpChatClient("http://localhost:1/x", sleeper=pytest.fail)
        assert client.complete("hello", 0.7) == Completion("ok", 3, 4)
        assert json.loads(requests[0].data) == {"prompt": "hello", "temperature": 0.7}
        self._replying(monkeypatch, b'{"text": "ok"}')
        assert client.complete("hello", 0.2) == Completion("ok", 0, 0)

    @pytest.mark.parametrize("body", [
        b"[]", b'"hi"', b'{"text": "x", "usage": null}', b"{not json",
        b'{"text": "x", "usage": {"input_tokens": "3"}}',
        b'{"text": "x", "usage": {"output_tokens": null}}',
        b'{"text": null}', b'{"usage": {}}',
    ], ids=["list", "string", "null_usage", "not_json", "string_count", "null_count",
            "null_text", "no_text"])
    def test_malformed_reply_is_retried_then_client_error(self, monkeypatch, body):
        """A body that is JSON but not the protocol's object fails as one
        that is not JSON does: retried, then a `ClientError`."""
        requests = self._replying(monkeypatch, body)
        sleeps = []
        client = HttpChatClient("http://localhost:1/x", sleeper=sleeps.append)
        with pytest.raises(ClientError, match="after 3 attempts"):
            client.complete("hello", 0.2)
        assert len(requests) == 3
        assert sleeps == [1.0, 2.0]


class TestOracleOutage:
    """An oracle that cannot answer is a remote-service failure: it stops the
    run instead of being scored as the translator's parse errors."""

    @staticmethod
    def _garbled_oracle():
        from symdrift.mental.oracles import LLMOracle

        return LLMOracle(StubClient(["garbled"] * 100), 0.2, "E {expression} {entry}",
                         "C {expression} {entry}")

    def test_naive_run_raises(self, synthetic_batch, resources):
        from symdrift.errors import OracleFailure

        translator = NaiveTranslator(oracle=self._garbled_oracle())
        with pytest.raises(OracleFailure):
            run_evaluation(synthetic_batch[:3], translator,
                           TranslatorConfig(mental=True), "auto", resources=resources)

    def test_llm_translator_raises(self, resources):
        from symdrift.errors import OracleFailure

        problem = Problem(
            id="p0", sentences=(TextUnit.from_text("Anne is kind."),),
            question=TextUnit.from_text("Is Anne nice?"),
            gold_answer="true", task_kind="proofwriter",
        )
        reply = "```\nunit 0: Slot0(Anne) | kind\nquery: Slot0(Anne) | nice\n```"
        cfg = TranslatorConfig(kind="llm", mental=True)
        translator = LLMTranslator(cfg, StubClient(replies=[reply]), PromptLibrary.load(),
                                   oracle=self._garbled_oracle())
        with pytest.raises(OracleFailure):
            run_evaluation([problem], translator, cfg, "auto", resources=resources)


def test_report_text_names_dropped_concepts_and_limit_hits(diversified_batch, resources):
    """The text report prints the dropped-concept share and the limit hits;
    an unmeasured SDS is every concept dropped."""
    from symdrift.harness.evaluate import render_report_text
    from symdrift.metrics.records import TranslationRecord
    from symdrift.metrics.sds import compute_sds
    from symdrift.solver.verdict import Verdict

    report = run_evaluation(diversified_batch[:5], NaiveTranslator(), TranslatorConfig(),
                            "auto", resources=resources)
    lines = render_report_text(report).splitlines()
    assert f"dropped    {report.sds.dropped_concepts}/{report.sds.concepts} concepts" in lines
    assert "limit hits 0" in lines

    first = report.records[0]
    record = TranslationRecord(first.problem_id, first.gold, program=first.logic,
                               verdict=Verdict("unknown", limit_hit=True),
                               alignment={concept: set() for concept in first.alignment})
    unmeasured = report._replace(records=[record], sds=compute_sds([record]))
    lines = render_report_text(unmeasured).splitlines()
    n = len(record.alignment)
    assert n and f"dropped    {n}/{n} concepts" in lines
    assert "limit hits 1" in lines and "sds        n/a" in lines
