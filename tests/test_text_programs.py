"""A program that arrives as text stays text until it is solved: the `gold`
translator and an `llm` program block hand the record checked, canonical
texts, and `solve_one` is the one place that builds them. Table-guided
programs are assembled from parts, and `instantiate` checks each predicate's
arity as it declares it. A dataset names each problem once."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest

import symdrift.fol.parser as parser_module
import symdrift.fol.render as render_module
import symdrift.harness.evaluate as evaluate_module
import symdrift.metrics.records as records_module
from symdrift.diversify.resources import Resources
from symdrift.harness.cli import EXIT_DATA, EXIT_OK, main
from symdrift.harness.client import Completion
from symdrift.harness.config import SyntheticConfig, TranslatorConfig
from symdrift.harness.evaluate import run_evaluation, translate_one
from symdrift.harness.prompts import PromptLibrary
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import GoldTranslator, LLMTranslator
from symdrift.problem import Problem, TextUnit

from .helpers import StubClient, as_item


@pytest.fixture(scope="module")
def resources() -> Resources:
    return Resources.load()


@contextlib.contextmanager
def _counting():
    """Count `build_program` calls with their program texts, and every
    `render_program` call, wherever they are bound."""
    built = mock.Mock(wraps=parser_module.build_program)
    rendered = mock.Mock(wraps=render_module.render_program)
    with mock.patch.object(parser_module, "build_program", built), \
            mock.patch.object(evaluate_module, "build_program", built), \
            mock.patch.object(render_module, "render_program", rendered), \
            mock.patch.object(records_module, "render_program", rendered):
        yield built, rendered


_GOOD = "```\npremise: Kind(Anne)\nquery: Kind(Anne)\n```"


@pytest.mark.parametrize("kind, solver", [("gold", "cwa"), ("gold", "resolution"),
                                          ("llm", "auto")])
def test_a_text_program_is_built_once_when_solved_and_never_rendered(resources, kind,
                                                                     solver):
    problems = generate_synthetic(SyntheticConfig(n_problems=12, seed=5))
    cfg = TranslatorConfig(kind=kind)
    if kind == "gold":
        translator = GoldTranslator()
    else:  # every third reply is garbled, and becomes a parse error
        replies = [Completion("no block" if i % 3 == 2 else _GOOD) for i in range(12)]
        translator = LLMTranslator(cfg, StubClient(replies=replies), PromptLibrary.load())
    with _counting() as (built, rendered):
        report = run_evaluation(problems, translator, cfg, solver, resources)
    solved = [r for r in report.records if r.parse_error is None]
    assert solved and all(r.verdict is not None for r in solved)
    assert [call.args[0] for call in built.call_args_list] == [r.logic for r in solved]
    assert rendered.call_count == 0


def test_translate_with_the_gold_translator_builds_and_renders_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--n", "12", "--seed", "5", "--out", "p.jsonl"]) == EXIT_OK
        with _counting() as (built, rendered):
            assert main(["translate", "--in", "p.jsonl", "--translator", "gold",
                         "--out", "t.jsonl"]) == EXIT_OK
    assert (built.call_count, rendered.call_count) == (0, 0)
    rows = [json.loads(line) for line in Path("t.jsonl").read_text().splitlines()]
    assert len(rows) == 12 and all(row["program"]["logic"] for row in rows)


def _problem() -> Problem:
    return Problem(id="p", sentences=(TextUnit.from_text("Anne is kind."),),
                   question=TextUnit.from_text("Is Anne kind?"), gold_answer="true",
                   task_kind="proofwriter")


@pytest.mark.parametrize("block", [
    "premise:  Kind( Anne )\nquery: Kind(Anne) .",
    "premise : Kind(Anne)\nQuery : (Kind(Anne))",
], ids=["spaced-formulas", "spaced-keys"])
def test_an_llm_program_block_gets_its_canonical_texts(resources, block):
    reply = f"```\n{block}\n```"
    translator = LLMTranslator(TranslatorConfig(kind="llm"), StubClient(replies=[reply]),
                               PromptLibrary.load())
    record = translate_one(as_item(_problem(), resources), translator)
    assert record.parse_error is None and record.program is None
    assert record.logic == (("Kind(Anne)",), "Kind(Anne)", "closed_world")
    assert record.raw_output == reply


@pytest.mark.parametrize("proposals, error", [
    (["unit 0: Slot0(Anne) | kind", "query: Slot0(Anne, Bob) | kind"],
     "symbol 'Kind' declared with arity 1, used with 2"),
    # The query is listed first and holds one clash; the premise holds
    # another, with the query's `Smart`. Each atom is checked as it is
    # instantiated, in proposal order, so the query's clash is the one
    # reported; the whole-program check that used to follow walked the
    # premises first and reported "symbol 'Smart' declared with arity 2,
    # used with 1".
    (["query: Slot0(Anne) & Slot1(Anne, Bob) & Slot2(Anne, Bob) | kind | kind | smart",
      "unit 0: Slot0(Anne) | smart"],
     "symbol 'Kind' declared with arity 1, used with 2"),
], ids=["premise-first", "query-first"])
def test_a_table_guided_arity_clash_is_a_parse_error(resources, proposals, error):
    reply = "```\n" + "\n".join(proposals) + "\n```"
    translator = LLMTranslator(TranslatorConfig(kind="llm", mental=True),
                               StubClient(replies=[reply]), PromptLibrary.load())
    record = translate_one(as_item(_problem(), resources), translator)
    assert (record.program, record.logic, record.parse_error) == (None, None, error)


def _row(sentence: str, question: str, answer: str) -> str:
    return json.dumps({"id": "a", "sentences": [sentence], "question": question,
                       "answer": answer, "task_kind": "proofwriter"})


@pytest.mark.parametrize("argv", [
    ("translate", "--in", "p.jsonl", "--translator", "naive", "--out", "t.jsonl"),
    ("evaluate", "--in", "p.jsonl", "--translator", "naive", "--out", "run"),
    ("diversify", "--in", "p.jsonl", "--out", "d.jsonl"),
], ids=lambda argv: argv[0])
def test_a_repeated_problem_id_is_a_data_error(tmp_path, monkeypatch, capsys, argv):
    """Records are matched to their problems by id: `solve` used to align the
    first record of a repeated id against the second problem."""
    monkeypatch.chdir(tmp_path)
    Path("p.jsonl").write_text(_row("Anne is kind.", "Is Anne smart?", "false") + "\n"
                               + _row("Bob is smart.", "Is Bob smart?", "true") + "\n")
    assert main(list(argv)) == EXIT_DATA
    assert capsys.readouterr().err == "data error: problem id 'a' repeats in p.jsonl\n"
    assert not Path(argv[-1]).exists()


@pytest.mark.parametrize("command", ["solve", "sds", "compare"])
def test_a_repeated_problem_id_in_records_is_a_data_error(tmp_path, monkeypatch, capsys,
                                                          command):
    """A records file concatenated with itself: `solve` solved each record
    twice, `sds` counted each concept twice, and `compare` read the counts of
    one copy."""
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--n", "2", "--seed", "1", "--out", "p.jsonl"]) == EXIT_OK
    Path("run").mkdir()
    assert main(["translate", "--in", "p.jsonl", "--out", "run/records.jsonl"]) == EXIT_OK
    records = Path("run/records.jsonl").read_text()
    Path("run/records.jsonl").write_text(records + records)
    first = json.loads(records.splitlines()[0])["problem_id"]
    argv = {"solve": ["--records", "run/records.jsonl", "--problems", "p.jsonl"],
            "sds": ["--records", "run/records.jsonl"],
            "compare": ["--before", "run", "--after", "run"]}[command]
    capsys.readouterr()
    assert main([command, *argv, "--out", "out"]) == EXIT_DATA
    assert capsys.readouterr().err == \
        f"data error: problem id {first!r} repeats in run/records.jsonl\n"
    assert not Path("out").exists()
