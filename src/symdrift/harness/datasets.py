"""Problem (de)serialization, dataset loading, and the JSONL codec.

`read_jsonl` and `write_jsonl` are the toolkit's one JSONL reader and
writer: problems, translation records, run traces and tuning data all go
through them. A file is one canonical (key-sorted) JSON object per line;
reading skips blank lines, yields objects lazily, and reports a missing file
or a line that is not JSON as a `FormatError` with the line number.

Each row kind's fields are declared once, as a shape below (`PROBLEM`,
`DIVERSIFIED`, `RECORD` with its `PROGRAM` and `VERDICT`, `TRACE`, `REPLY`).
Every reader passes its row to `check` first, which raises a `FormatError`
naming the field; `parse_jsonl` adds the line number. A row's gold logic is
checked as `parse_program` would parse it (`check_program`), with the same
error, and kept as its texts, written back as a parse renders them; only the
translators that read the program build it. Provenance must point into its
own problem's text (`DiversifiedProblem.check_spans`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from ..errors import FormatError, SymdriftError
from ..fol.parser import ProgramTexts, check_program
from ..fol.render import render_text
from ..fol.terms import CLOSED_WORLD, OPEN_WORLD
from ..problem import (
    DiversifiedProblem,
    Problem,
    ProvenanceEntry,
    TASK_KINDS,
    TextUnit,
)
from ..solver.verdict import DISPROVED, FALSE, OPTION, PROVED, TRUE, UNKNOWN

T = TypeVar("T")

# The shape of each JSONL row kind, read by `check`. A shape is a type (an int is
# never a bool); a set of alternatives (types, string literals, rows); `(None, shape)`,
# null or that shape; `[shape]`, a list; a tuple of types, a fixed row; `{str: shape}`,
# a map; or `{"key": shape, "key?": shape}`, an object whose `?` keys are optional and
# others ignored. The problem a diversified row nests is checked by its own reader.
ID = {str, int}
ANSWER = {"true", "false", "unknown", int}
SPAN_ROW = (int, int, int, str)
LOGIC = {"premises": [str], "query": str, "mode?": {OPEN_WORLD, CLOSED_WORLD}}
PROBLEM = {"id": ID, "sentences": [str], "question": str, "answer": ANSWER,
           "task_kind": set(TASK_KINDS), "options?": [str], "gold_logic?": LOGIC,
           "gold_concepts?": [SPAN_ROW]}
DIVERSIFIED = {"base_id": ID, "problem": dict, "provenance": {str: [SPAN_ROW]},
               "intensity": int, "no_repeats?": bool}
PROGRAM = {"logic?": LOGIC, "options?": [(str, int)],
           "csp?": {"objects": [str], "constraints?": [{(str, str, str), (str, str, int)}]}}
VERDICT = {"value": {PROVED, DISPROVED, UNKNOWN, TRUE, FALSE, OPTION},
           "option_index?": (None, int), "steps?": int, "limit_hit?": bool}
RECORD = {"problem_id": ID, "gold": ANSWER, "raw_output?": str, "program?": (None, PROGRAM),
          "parse_error?": (None, str), "verdict?": (None, VERDICT), "exec_error?": (None, str),
          "predicted?": (None, ANSWER), "alignment?": {str: [str]},
          "span_symbols?": [SPAN_ROW], "alignment_misses?": [str], "tokens_in?": int,
          "tokens_out?": int, "trace?": [(str, str, str, int)], "table?": str}
TRACE = {"problem_id?": ID, "gold?": ANSWER, "correct?": bool, "instruction?": str,
         "table?": str, "program?": str, "trace?": RECORD["trace?"]}
SOLVED_TRACE = {"instruction": str, "table": str, "program": str}
REPLY = {"text": str, "usage?": {"input_tokens?": int, "output_tokens?": int}}

_NAMES = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object"}


def check(value, shape, field: str, item: bool = False) -> None:
    """Raise `FormatError` naming `field` (dotted object keys, "" for the line)
    unless `value` has `shape`; an `item` of a list or map is named by its list or map."""
    kind = type(value)
    if kind is shape or type(shape) is set and (kind in shape or kind is str and value in shape):
        return  # the common leaves first: every row of a file passes through here
    if isinstance(shape, tuple) and shape[0] is None:
        if value is not None:
            check(value, shape[1], field, item)
    elif isinstance(shape, list) and kind is list:
        sub = shape[0]
        rows = type(sub) is tuple
        for element in value:
            if not (type(element) is sub or rows and type(element) is list
                    and tuple(map(type, element)) == sub):
                check(element, sub, field, item=True)
    elif isinstance(shape, dict) and kind is dict:
        for key, sub in shape.items():
            if key is str:
                for element in value.values():
                    check(element, sub, field, item=True)
                continue
            name = key.rstrip("?")
            path = f"{field}.{name}" if field else name
            if name in value:
                check(value[name], sub, path)
            elif name == key:
                raise FormatError(f"missing field {path!r}")
    elif kind is not list or tuple(map(type, value)) not in (
            shape if type(shape) is set else [shape]):
        if item:
            noun = "row" if isinstance(shape, (tuple, set)) else "entry"
            raise FormatError(f"bad {field} {noun} {value!r}: expected {_describe(shape)}")
        raise FormatError(f"{field or 'a line'} must be {_describe(shape)}, got {value!r}")


def _describe(shape) -> str:
    """The shape in words, a set's alternatives sorted: no message depends on set order."""
    if isinstance(shape, set):
        return " or ".join(sorted(map(_describe, shape)))
    if isinstance(shape, tuple):
        return "[" + ", ".join(t.__name__ for t in shape) + "]"
    if isinstance(shape, list):
        return "a list of strings" if shape[0] is str else "a list of rows"
    return "an object" if isinstance(shape, dict) else _NAMES.get(shape, repr(shape))


def logic_to_json(texts: tuple[str, ...], semantics_mode: str) -> dict:
    """A program's row from its premise texts, then its query text."""
    *premises, query = texts
    return {"premises": premises, "query": query, "mode": semantics_mode}


def texts_from_json(data: dict, field: str) -> ProgramTexts:
    try:
        return check_program(data["premises"], data["query"], data.get("mode", OPEN_WORLD))
    except (SymdriftError, RecursionError) as exc:  # the parser recurses on nesting
        raise FormatError(f"bad {field}: {exc}") from exc


def problem_to_json(p: Problem) -> dict:
    out: dict = {
        "id": p.id,
        "sentences": [u.text for u in p.sentences],
        "question": p.question.text,
        "answer": p.gold_answer,
        "task_kind": p.task_kind,
    }
    if p.options is not None:
        out["options"] = list(p.options)
    if (gold := p.gold_logic) is not None:  # written canonically, as a parse renders it
        out["gold_logic"] = logic_to_json(tuple(map(render_text, (*gold.premises, gold.query))),
                                          gold.semantics_mode)
    if p.gold_concepts is not None:
        out["gold_concepts"] = [
            [unit, start, end, concept]
            for (unit, start, end), concept in sorted(p.gold_concepts.items())
        ]
    return out


def problem_from_json(data: dict, field: str = "") -> Problem:
    check(data, PROBLEM, field)
    return Problem(
        id=str(data["id"]),
        sentences=tuple(map(TextUnit.from_text, data["sentences"])),
        question=TextUnit.from_text(data["question"]),
        gold_answer=data["answer"],
        task_kind=data["task_kind"],
        options=tuple(data["options"]) if "options" in data else None,
        gold_logic=(texts_from_json(data["gold_logic"], "gold_logic")
                    if "gold_logic" in data else None),
        gold_concepts=({(unit, start, end): concept
                        for unit, start, end, concept in data["gold_concepts"]}
                       if "gold_concepts" in data else None),
    )


def diversified_to_json(d: DiversifiedProblem) -> dict:
    return {
        "base_id": d.base_id,
        "problem": problem_to_json(d.problem),
        "provenance": {
            cid: [[e.unit, e.char_start, e.char_end, e.surface] for e in entries]
            for cid, entries in sorted(d.provenance.items())
        },
        "intensity": d.intensity,
        "no_repeats": d.no_repeats,
    }


def diversified_from_json(data: dict) -> DiversifiedProblem:
    check(data, DIVERSIFIED, "")
    return DiversifiedProblem(
        base_id=str(data["base_id"]),
        problem=problem_from_json(data["problem"], "problem"),
        provenance={cid: [ProvenanceEntry(*row) for row in entries]
                    for cid, entries in data["provenance"].items()},
        intensity=data["intensity"],
        no_repeats=data.get("no_repeats", False),
    ).check_spans()


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line, one at a time."""
    p = Path(path)
    if not p.exists():
        raise FormatError(f"file not found: {p}")
    with p.open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                data = json.loads(raw)
            except ValueError as exc:
                raise FormatError(f"invalid JSON: {exc}", line=lineno) from exc
            yield lineno, data


def parse_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """`parse` of each line's object. A `FormatError` that `parse` raises
    gets the line number; so does a value the row's constructor refuses,
    such as a record with both a program and a parse error."""
    out = []
    for lineno, data in read_jsonl(path):
        try:
            out.append(parse(data))
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from exc
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed line: {exc}", line=lineno) from exc
    return out


def write_jsonl(path: str | Path, objects: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for obj in objects:
            handle.write(json.dumps(obj, sort_keys=True) + "\n")


def load_dataset(path: str | Path) -> list[Problem | DiversifiedProblem]:
    """Read a JSONL problem file; a line with `problem` or `provenance` is diversified."""
    return parse_jsonl(path, lambda row: diversified_from_json(row) if type(row) is dict
                       and ("problem" in row or "provenance" in row) else problem_from_json(row))


def save_dataset(path: str | Path, items: list[Problem | DiversifiedProblem]) -> None:
    write_jsonl(path, (diversified_to_json(item) if isinstance(item, DiversifiedProblem)
                       else problem_to_json(item) for item in items))
