"""Problem (de)serialization, dataset loading, and the JSONL codec.

`read_jsonl` and `write_jsonl` are the toolkit's one JSONL reader and
writer: problems, translation records, run traces and tuning data all go
through them. A file is one canonical (key-sorted) JSON object per line;
reading skips blank lines, yields objects lazily, and reports a missing file
or a line that is not JSON as a `FormatError` with the line number.
`parse_jsonl` does the same for a line that is JSON but not what the file
should hold, such as a records line without `problem_id`.

One problem per JSONL line:

    {"id": ..., "sentences": [...], "question": ..., "answer": "true",
     "task_kind": "proofwriter", "options": [...]?,
     "gold_logic": {"premises": [...], "query": ..., "mode": ...}?,
     "gold_concepts": [[unit, tok_start, tok_end, concept], ...]?}

Diversified problems add `base_id`, `provenance`, `intensity`, `no_repeats`
around a nested `problem` object.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from ..errors import FormatError
from ..fol.parser import parse_program
from ..fol.render import render_program
from ..fol.terms import LogicProgram, OPEN_WORLD
from ..problem import (
    DiversifiedProblem,
    Problem,
    ProvenanceEntry,
    TASK_KINDS,
    TextUnit,
)

T = TypeVar("T")

_REQUIRED = ("id", "sentences", "question", "answer", "task_kind")
_SPAN_ROW_TYPES = (int, int, int, str)


def program_to_json(program: LogicProgram, texts: tuple[str, ...] = ()) -> dict:
    """`texts` is the program's `render_program` output when the caller
    already has it."""
    *premises, query = texts or render_program(program)
    return {"premises": premises, "query": query, "mode": program.semantics_mode}


def program_from_json(data: dict) -> LogicProgram:
    return parse_program(data["premises"], data["query"], data.get("mode", OPEN_WORLD))


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
    if p.gold_logic is not None:
        out["gold_logic"] = program_to_json(p.gold_logic)
    if p.gold_concepts is not None:
        out["gold_concepts"] = [
            [unit, start, end, concept]
            for (unit, start, end), concept in sorted(p.gold_concepts.items())
        ]
    return out


def problem_from_json(data: dict) -> Problem:
    for key in _REQUIRED:
        if key not in data:
            raise FormatError(f"missing field {key!r}")
    task_kind = data["task_kind"]
    if task_kind not in TASK_KINDS:
        raise FormatError(f"unknown task_kind {task_kind!r}")
    answer = data["answer"]
    if isinstance(answer, str):
        answer = answer.lower()
        if answer not in ("true", "false", "unknown"):
            raise FormatError(f"bad answer label {data['answer']!r}")
    elif not isinstance(answer, int):
        raise FormatError(f"answer must be a label or option index")
    try:
        gold_logic = program_from_json(data["gold_logic"]) if "gold_logic" in data else None
    except Exception as exc:
        raise FormatError(f"bad gold_logic: {exc}") from exc
    gold_concepts = None
    if "gold_concepts" in data:
        gold_concepts = {(unit, start, end): concept for unit, start, end, concept
                         in _span_rows(data["gold_concepts"], "gold_concepts")}
    return Problem(
        id=_id(data, "id"),
        sentences=tuple(TextUnit.from_text(s) for s in _strings(data, "sentences")),
        question=TextUnit.from_text(data["question"]),
        gold_answer=answer,
        task_kind=task_kind,
        options=tuple(_strings(data, "options")) if "options" in data else None,
        gold_logic=gold_logic,
        gold_concepts=gold_concepts,
    )


def _id(data: dict, key: str) -> str:
    """An id field as text: a string, or an integer (not a bool)."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise FormatError(f"{key} must be a string or an integer, got {value!r}")
    return str(value)


def _strings(data: dict, key: str) -> list[str]:
    if not isinstance(data[key], list) or not all(isinstance(s, str) for s in data[key]):
        raise FormatError(f"{key} must be a list of strings")
    return data[key]


def _span_rows(rows, field: str) -> list:
    """The rows of a span field (`gold_concepts`, `provenance`, a record's
    `span_symbols`), checked to be three ints (not bools), then a string."""
    if not isinstance(rows, list):
        raise FormatError(f"{field} must be a list of rows")
    for row in rows:
        if not isinstance(row, list) or tuple(map(type, row)) != _SPAN_ROW_TYPES:
            raise FormatError(f"bad {field} row {row!r}: expected three ints, then a string")
    return rows


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
    problem = problem_from_json(data["problem"])
    provenance = {
        cid: [ProvenanceEntry(*row) for row in _span_rows(entries, "provenance")]
        for cid, entries in data["provenance"].items()
    }
    return DiversifiedProblem(
        base_id=_id(data, "base_id"),
        problem=problem,
        provenance=provenance,
        intensity=int(data["intensity"]),
        no_repeats=bool(data.get("no_repeats", False)),
    )


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
    """`parse` of each line's object. A line that is JSON but that `parse`
    cannot read, for a missing key or a wrong shape, is a `FormatError`
    with its line number; so is a `FormatError` that `parse` raises."""
    out = []
    for lineno, data in read_jsonl(path):
        try:
            out.append(parse(data))
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from exc
        except KeyError as exc:
            raise FormatError(f"missing field {exc.args[0]!r}", line=lineno) from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed line: {exc}", line=lineno) from exc
    return out


def write_jsonl(path: str | Path, objects: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for obj in objects:
            handle.write(json.dumps(obj, sort_keys=True) + "\n")


def load_dataset(path: str | Path) -> list[Problem | DiversifiedProblem]:
    """Read a JSONL problem file; diversified lines are detected by shape."""
    return parse_jsonl(path, lambda data: diversified_from_json(data) if "provenance" in data
                       else problem_from_json(data))


def save_dataset(path: str | Path, items: list[Problem | DiversifiedProblem]) -> None:
    write_jsonl(path, (diversified_to_json(item) if isinstance(item, DiversifiedProblem)
                       else problem_to_json(item) for item in items))
