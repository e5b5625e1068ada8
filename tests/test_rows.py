"""Every JSONL row kind is read through its documented shape.

Valid rows of every kind come from the toolkit's own output: a generated
set, a diversified set, naive records with the expression table off and on,
constraint-program records of the `deduction` task (one solved, one that did
not parse), a traces file and a reply body. A fuzz test replaces one field,
at any depth, with a value of another JSON type, or drops it. The load must
then succeed when the formats below allow the new row, and otherwise raise
`FormatError` naming the field and the line; no other exception may escape.

The formats are written out here from the README's "File formats" section,
not imported from `symdrift`, so the checker is compared with what the
README promises. The named tests after the fuzz test are malformed lines
that used to load as something else, or to crash.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from symdrift.diversify.resources import Resources
from symdrift.errors import ClientError, FormatError
from symdrift.harness.cli import EXIT_DATA, EXIT_OK, main
from symdrift.harness.client import HttpChatClient
from symdrift.harness.config import TranslatorConfig
from symdrift.harness.datasets import load_dataset, save_dataset
from symdrift.harness.evaluate import run_evaluation
from symdrift.harness.prompts import PromptLibrary
from symdrift.harness.serialize import read_records
from symdrift.harness.sft import export_sft_traces
from symdrift.harness.translators import LLMTranslator
from symdrift.problem import Problem, TextUnit

from .helpers import StubClient

# ---------------------------------------------------------------------------
# The documented formats. A format is a predicate on a value, or one of the
# containers below; `Obj` lists its required and its optional fields.


def string(v) -> bool:
    return type(v) is str


def integer(v) -> bool:
    return type(v) is int


def boolean(v) -> bool:
    return type(v) is bool


def null(v) -> bool:
    return v is None


def literal(*words):
    return lambda v: type(v) is str and v in words


class ListOf(tuple):
    """A list whose every item has the format `self[0]`."""


class MapOf(tuple):
    """An object from any key to a value of the format `self[0]`."""


class Row(tuple):
    """A list of exactly these item formats, in order."""


class Either(tuple):
    """A value of any one of these formats."""


class Obj:
    def __init__(self, required: dict, optional: dict | None = None):
        self.fields = {**required, **(optional or {})}
        self.required = set(required)


def valid(value, fmt) -> bool:
    if isinstance(fmt, Obj):
        return (type(value) is dict and fmt.required <= value.keys()
                and all(valid(value[k], f) for k, f in fmt.fields.items() if k in value))
    if isinstance(fmt, ListOf):
        return type(value) is list and all(valid(v, fmt[0]) for v in value)
    if isinstance(fmt, MapOf):
        return type(value) is dict and all(valid(v, fmt[0]) for v in value.values())
    if isinstance(fmt, Row):
        return (type(value) is list and len(value) == len(fmt)
                and all(valid(v, f) for v, f in zip(value, fmt)))
    if isinstance(fmt, Either):
        return any(valid(value, f) for f in fmt)
    return fmt(value)


ID = Either((string, integer))
LABEL = Either((literal("true", "false", "unknown"), integer))
SPAN = Row((integer, integer, integer, string))
EVENT = Row((string, string, string, integer))
LOGIC = Obj({"premises": ListOf((string,)), "query": string},
            {"mode": literal("open_world", "closed_world")})
PROBLEM = Obj(
    {"id": ID, "sentences": ListOf((string,)), "question": string, "answer": LABEL,
     "task_kind": literal("folio", "proofwriter", "prontoqa", "proverqa", "deduction")},
    {"options": ListOf((string,)), "gold_logic": LOGIC, "gold_concepts": ListOf((SPAN,))})
DIVERSIFIED = Obj({"base_id": ID, "problem": PROBLEM, "provenance": MapOf((ListOf((SPAN,)),)),
                   "intensity": integer}, {"no_repeats": boolean})
CSP = Obj({"objects": ListOf((string,))},
          {"constraints": ListOf((Either((Row((string, string, string)),
                                          Row((string, string, integer)))),))})
PROGRAM = Obj({}, {"logic": LOGIC, "csp": CSP,
                   "options": ListOf((Row((string, integer)),))})
VERDICT = Obj({"value": literal("proved", "disproved", "unknown", "true", "false", "option")},
              {"option_index": Either((integer, null)), "steps": integer,
               "limit_hit": boolean})
RECORD = Obj({"problem_id": ID, "gold": LABEL}, {
    "raw_output": string, "program": Either((null, PROGRAM)),
    "parse_error": Either((string, null)), "verdict": Either((null, VERDICT)),
    "exec_error": Either((string, null)), "predicted": Either((LABEL, null)),
    "alignment": MapOf((ListOf((string,)),)), "span_symbols": ListOf((SPAN,)),
    "alignment_misses": ListOf((string,)), "tokens_in": integer, "tokens_out": integer,
    "trace": ListOf((EVENT,)), "table": string})
TRACE = Obj({}, {"problem_id": ID, "gold": LABEL, "correct": boolean, "instruction": string,
                 "table": string, "program": string, "trace": ListOf((EVENT,))})
REPLY = Obj({"text": string},
            {"usage": Obj({}, {"input_tokens": integer, "output_tokens": integer})})

FORMATS = {"problem": PROBLEM, "diversified": DIVERSIFIED, "record": RECORD,
           "trace": TRACE, "reply": REPLY}


def broken_rule(kind: str, row: dict) -> str | None:
    """The text of the rule across fields that a row of the right types
    breaks, if it breaks one."""
    if kind == "trace" and row.get("correct") is True:
        missing = [k for k in ("instruction", "program", "table") if k not in row]
        return f"missing field {missing[0]!r}" if missing else None
    if kind != "record":
        return None
    program, verdict = row.get("program"), row.get("verdict")
    has_program = program is not None and ("logic" in program or "csp" in program)
    if has_program == (row.get("parse_error") is not None):
        return "exactly one of program / parse_error must be set"
    if verdict is not None and verdict["value"] == "option" \
            and verdict.get("option_index") is None:
        return "option verdicts carry an option index"
    if verdict is not None and verdict.get("limit_hit") and verdict["value"] != "unknown":
        return "a hit step limit always yields an unknown verdict"
    if row.get("predicted") is not None and verdict is None:
        return "a prediction requires a verdict"
    return None


def field_name(row, fmt, path: tuple) -> str:
    """How an error at `path` names its field: the object keys on the way,
    up to the first row (a row is reported whole, by its container's name)."""
    names, value = [], row
    for step in path:
        if isinstance(fmt, Either):
            fmt = next(f for f in fmt if valid_container(value, f))
        if isinstance(fmt, Row):
            break
        if isinstance(fmt, Obj):
            names.append(step)
            fmt = fmt.fields[step]
        else:
            fmt = fmt[0]
        value = value[step]
    return ".".join(names)


def valid_container(value, fmt) -> bool:
    kinds = {Obj: dict, MapOf: dict, ListOf: list, Row: list}
    return isinstance(value, kinds.get(type(fmt), ()))


# ---------------------------------------------------------------------------
# Valid rows from the toolkit's own output


CSP_REPLY = ("```\nobjects: Red, Blue, Green\nconstraint: LeftOf(Red, Blue)\n"
             "constraint: NotAtPosition(Green, 1)\noption 0: Blue at 1\n"
             "option 1: Red at 1\n```")


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _books(id: str) -> Problem:
    return Problem(id=id, sentences=(TextUnit.from_text("The red book is left of the blue book."),
                                     TextUnit.from_text("The green book is not first.")),
                   question=TextUnit.from_text("Which option is right?"),
                   options=("Blue at 1", "Red at 1"), gold_answer=1, task_kind="deduction")


@pytest.fixture(scope="module")
def rows(tmp_path_factory) -> dict[str, list[dict]]:
    root = tmp_path_factory.mktemp("rows")

    def cli(*argv: str) -> None:
        assert main(list(argv)) == EXIT_OK, argv

    cli("generate", "--n", "4", "--seed", "1", "--out", str(root / "p.jsonl"))
    cli("diversify", "--in", str(root / "p.jsonl"), "--out", str(root / "d.jsonl"))
    for mental in ("off", "on"):
        cli("evaluate", "--in", str(root / "d.jsonl"), "--translator", "naive",
            "--mental", mental, "--out", str(root / f"run-{mental}"))
    books = [_books("ded1"), _books("ded2")]
    save_dataset(root / "books.jsonl", books)
    cfg = TranslatorConfig(kind="llm")
    translator = LLMTranslator(cfg, StubClient([CSP_REPLY, "garbled"]), PromptLibrary.load())
    run_evaluation(books, translator, cfg, "auto", Resources.load(), out_dir=root / "run-books")
    records = (_lines(root / "run-off/records.jsonl") + _lines(root / "run-on/records.jsonl")
               + _lines(root / "run-books/records.jsonl"))
    assert {r["program"] is None for r in records} == {True, False}
    assert any(r["verdict"] and r["verdict"]["value"] == "option" for r in records)
    traces = _lines(root / "run-on/traces.jsonl")
    assert any(t["correct"] for t in traces)
    return {
        "problem": _lines(root / "p.jsonl") + _lines(root / "books.jsonl"),
        "diversified": _lines(root / "d.jsonl"),
        "record": records,
        "trace": traces,
        "reply": [{"text": "ok", "usage": {"input_tokens": 3, "output_tokens": 4}}],
    }


def test_every_valid_row_has_its_documented_format(rows):
    for kind, found in rows.items():
        for row in found:
            assert valid(row, FORMATS[kind]) and broken_rule(kind, row) is None, (kind, row)


# ---------------------------------------------------------------------------
# The fuzz test

DROP = "<drop>"
REPLACEMENTS = (None, True, 0, 1.5, "x", ["x"], {"x": 1})


def paths(value, prefix: tuple = ()):
    """The path of every field, item and map value under `value`."""
    children = value.items() if type(value) is dict else \
        enumerate(value) if type(value) is list else ()
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def at(row, path: tuple):
    for step in path:
        row = row[step]
    return row


def mutated(row, path: tuple, replacement):
    row = json.loads(json.dumps(row))
    parent = at(row, path[:-1])
    if replacement is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return row


def load(kind: str, row, first, workdir: Path):
    """Load a file whose line 2 is `row`, after the valid row `first`, the way
    the toolkit reads that kind; a reply body goes through the chat client."""
    if kind == "reply":
        body = json.dumps(row).encode("utf-8")
        with mock.patch("urllib.request.urlopen", lambda request, timeout: io.BytesIO(body)):
            return HttpChatClient("http://localhost:1/x", sleeper=lambda s: None).complete("q", 0.2)
    path = workdir / ("traces.jsonl" if kind == "trace" else f"{kind}.jsonl")
    path.write_text(json.dumps(first) + "\n" + json.dumps(row) + "\n")
    if kind == "record":
        return read_records(path)
    if kind == "trace":
        return export_sft_traces(workdir, workdir / "sft.jsonl")
    return load_dataset(path)


class Cases(NamedTuple):
    """Every (row, path) to change by kind, the valid first line of each
    kind (a solved trace, so that an export never runs out of rows) and a
    directory to write the changed files in."""
    by_kind: dict[str, list[tuple[dict, tuple]]]
    first: dict[str, dict]
    workdir: Path

    def __repr__(self) -> str:
        # A falsifying example prints its arguments, and hypothesis parses
        # that text to write a patch: every row in it took gigabytes.
        return f"Cases({sum(map(len, self.by_kind.values()))} changes)"


@pytest.fixture(scope="module")
def cases(rows, tmp_path_factory) -> Cases:
    first = {kind: next(r for r in found if kind != "trace" or r["correct"])
             for kind, found in rows.items()}
    by_kind = {kind: [(row, path) for row in found for path in paths(row)]
               for kind, found in rows.items()}
    return Cases(by_kind, first, tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_one_changed_field_loads_or_is_a_format_error_naming_it(cases, data):
    """The kind is drawn first, uniformly, so that a kind with few paths
    (a reply has a handful, a record thousands) is changed in every run."""
    by_kind, first, workdir = cases
    kind = data.draw(st.sampled_from(sorted(by_kind)), label="kind")
    row, path = data.draw(st.sampled_from(by_kind[kind]), label="case")
    original = at(row, path)
    replacement = data.draw(st.sampled_from(
        [DROP] + [r for r in REPLACEMENTS if type(r) is not type(original)]), label="change")
    bad = mutated(row, path, replacement)
    allowed = valid(bad, FORMATS[kind])
    rule = broken_rule(kind, bad) if allowed else None
    try:
        load(kind, bad, first[kind], workdir)
    except (FormatError, ClientError) as exc:
        text = str(exc)
        assert not allowed or rule is not None, f"refused a documented row: {text}"
        if rule is None:
            name = ("reply." if kind == "reply" else "") + field_name(row, FORMATS[kind], path)
            assert any(form in text for form in (f"{name} must be", f"bad {name} ",
                                                 f"missing field '{name}")), (name, text)
        else:
            assert rule in text
        assert kind == "reply" or text.endswith("(line 2)")
        return
    assert allowed and rule is None, f"loaded {kind} with {path} = {replacement!r}"


# ---------------------------------------------------------------------------
# Malformed lines that used to load as something else, or to crash. Each is
# line 2 of its file, read by the CLI, and is a data error naming its field.

def _reader(source: str, path: str) -> tuple[str, ...]:
    """The CLI command that reads a file of `source` rows at `path`."""
    kind = source.split()[-1]
    if kind == "record":
        return ("sds", "--records", path, "--out", "run")
    if kind == "trace":
        return ("export-sft", "--run", str(Path(path).parent), "--out", "run")
    return ("evaluate", "--in", path, "--translator", "gold", "--out", "run")


def _valid_row(rows, source: str) -> dict:
    if source == "csp record":
        return next(r for r in rows["record"] if r["verdict"] and r["program"]
                    and "csp" in r["program"])
    if source == "trace":
        return next(r for r in rows["trace"] if r["correct"])
    return rows[source][0]


@pytest.mark.parametrize("source, path, value, text", [
    ("problem", ("answer",), True, "answer must be"),
    ("problem", ("answer",), "True", "answer must be"),
    ("problem", ("question",), 5, "question must be a string, got 5"),
    ("problem", ("task_kind",), "bogus", "task_kind must be"),
    ("problem", ("gold_logic", "mode"), "bogus", "gold_logic.mode must be"),
    ("diversified", ("intensity",), "0", "intensity must be an integer, got '0'"),
    ("diversified", ("intensity",), 0.7, "intensity must be an integer, got 0.7"),
    ("diversified", ("no_repeats",), "no", "no_repeats must be a boolean, got 'no'"),
    ("diversified", ("problem", "answer"), True, "problem.answer must be"),
    ("record", ("tokens_in",), "12", "tokens_in must be an integer, got '12'"),
    ("record", ("verdict", "steps"), "9", "verdict.steps must be an integer, got '9'"),
    ("record", ("verdict", "value"), "bogus", "verdict.value must be"),
    ("record", ("table",), 7, "table must be a string, got 7"),
    ("record", ("raw_output",), 5, "raw_output must be a string, got 5"),
    ("record", ("alignment_misses",), "ab", "alignment_misses must be a list of strings"),
    ("record", ("program", "logic", "mode"), "bogus", "program.logic.mode must be"),
    ("record", ("problem_id",), [1], "problem_id must be a string or an integer, got [1]"),
    ("csp record", ("program", "csp", "objects"), "ABC",
     "program.csp.objects must be a list of strings, got 'ABC'"),
    ("csp record", ("program", "options", 0), ["Blue", "1"], "bad program.options row"),
    ("csp record", ("verdict", "option_index"), "0", "verdict.option_index must be"),
    ("csp record", ("verdict",), None, "malformed line: a prediction requires a verdict"),
    ("trace", ("correct",), "no", "correct must be a boolean, got 'no'"),
], ids=["answer_bool", "answer_capitalised", "question_number", "task_kind_unknown",
        "gold_mode_unknown", "intensity_string", "intensity_float", "no_repeats_string",
        "nested_answer_bool", "tokens_in_string", "verdict_steps_string",
        "verdict_value_unknown", "table_number", "raw_output_number", "misses_string",
        "record_mode_unknown", "problem_id_list", "csp_objects_string",
        "csp_option_position_string", "option_index_string", "prediction_without_verdict",
        "trace_correct_string"])
def test_malformed_line_is_a_data_error(rows, tmp_path, monkeypatch, capsys, source, path,
                                        value, text):
    monkeypatch.chdir(tmp_path)
    good = _valid_row(rows, source)
    name = "traces.jsonl" if source == "trace" else "in.jsonl"
    Path(name).write_text(json.dumps(good) + "\n" + json.dumps(mutated(good, path, value))
                          + "\n")
    capsys.readouterr()
    assert main(list(_reader(source, name))) == EXIT_DATA
    err = capsys.readouterr().err
    assert text in err and err.rstrip().endswith("(line 2)"), err
    assert not Path("run").exists()


def test_sds_refuses_an_alignment_that_is_not_a_list(rows, tmp_path, capsys):
    """A string of symbols used to count as one symbol per character."""
    bad = mutated(rows["record"][0], ("alignment",), {"kind": "ab"})
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(rows["record"][0]) + "\n" + json.dumps(bad) + "\n")
    capsys.readouterr()
    assert main(["sds", "--records", str(path)]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad alignment entry 'ab': expected a list of strings (line 2)" in err


def _logic_record(rows) -> dict:
    return next(r for r in rows["record"] if r["verdict"] and r["program"]
                and "logic" in r["program"])


def test_sds_names_a_stored_formula_that_does_not_parse(rows, tmp_path, capsys):
    """The parser's message used to reach the user with no field and no line."""
    good = _logic_record(rows)
    bad = mutated(good, ("program", "logic", "premises"), ["Kind(Anne"])
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    capsys.readouterr()
    assert main(["sds", "--records", str(path)]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert "bad program.logic: unexpected end of input at position 9 (line 2)" in err


def test_sds_ignores_a_verdict_key_its_shape_does_not_name(rows, tmp_path, capsys):
    """A verdict object ignores unknown keys, as every other object does."""
    good = _logic_record(rows)
    plain, extra = tmp_path / "plain.jsonl", tmp_path / "extra.jsonl"
    plain.write_text(json.dumps(good) + "\n")
    extra.write_text(json.dumps(mutated(good, ("verdict", "extra"), 1)) + "\n")
    capsys.readouterr()
    assert main(["sds", "--records", str(plain)]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["sds", "--records", str(extra)]) == EXIT_OK
    assert capsys.readouterr() == (expected, "")


def test_a_problems_line_that_is_not_an_object_is_named(tmp_path, monkeypatch, capsys):
    """Such a line used to fail on looking for a diversified row's keys in it."""
    monkeypatch.chdir(tmp_path)
    Path("p.jsonl").write_text("5\n")
    capsys.readouterr()
    assert main(["evaluate", "--in", "p.jsonl", "--out", "run"]) == EXIT_DATA
    assert "a line must be an object, got 5 (line 1)" in capsys.readouterr().err
    assert not Path("run").exists()


def _translated() -> tuple[list[dict], list[dict]]:
    """Two generated problems and their naive records, in the working directory."""
    assert main(["generate", "--n", "2", "--seed", "1", "--out", "p.jsonl"]) == EXIT_OK
    assert main(["translate", "--in", "p.jsonl", "--out", "t.jsonl"]) == EXIT_OK
    return _lines(Path("p.jsonl")), _lines(Path("t.jsonl"))


def test_solve_matches_integer_problem_ids(tmp_path, monkeypatch, capsys):
    """A records line's `problem_id` is read like a problem's `id`: an integer
    is its text, so records of integer-id problems find their problems."""
    monkeypatch.chdir(tmp_path)
    problems, records = _translated()
    for number, (problem, record) in enumerate(zip(problems, records)):
        problem["id"] = record["problem_id"] = number
    Path("p_int.jsonl").write_text("".join(json.dumps(p) + "\n" for p in problems))
    Path("t_int.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["solve", "--records", "t_int.jsonl", "--problems", "p_int.jsonl",
                 "--out", "s.jsonl"]) == EXIT_OK
    solved = _lines(Path("s.jsonl"))
    assert [r["problem_id"] for r in solved] == ["0", "1"]
    assert all(r["verdict"] is not None for r in solved)


def test_solve_refuses_a_problem_id_that_is_not_text(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _, (first, second) = _translated()
    second["problem_id"] = [1]
    Path("bad.jsonl").write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    capsys.readouterr()
    assert main(["solve", "--records", "bad.jsonl", "--problems", "p.jsonl",
                 "--out", "s.jsonl"]) == EXIT_DATA
    assert "problem_id must be a string or an integer, got [1] (line 2)" \
        in capsys.readouterr().err
    assert not Path("s.jsonl").exists()


def test_gold_run_does_not_write_back_an_unknown_mode(rows, tmp_path, monkeypatch, capsys):
    """A gold program's `mode` is one of the two worlds; anything else used to
    load and be written into `records.jsonl` as it was."""
    monkeypatch.chdir(tmp_path)
    bad = mutated(rows["problem"][0], ("gold_logic", "mode"), "bogus")
    Path("p.jsonl").write_text(json.dumps(bad) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--in", "p.jsonl", "--translator", "gold", "--out", "run"]) \
        == EXIT_DATA
    assert "gold_logic.mode must be 'closed_world' or 'open_world', got 'bogus' (line 1)" \
        in capsys.readouterr().err
    assert not Path("run").exists()
