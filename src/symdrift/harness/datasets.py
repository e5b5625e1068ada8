"""Problem (de)serialization and dataset loading.

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

_REQUIRED = ("id", "sentences", "question", "answer", "task_kind")


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


def problem_from_json(data: dict, line: int | None = None) -> Problem:
    for key in _REQUIRED:
        if key not in data:
            raise FormatError(f"missing field {key!r}", line=line)
    task_kind = data["task_kind"]
    if task_kind not in TASK_KINDS:
        raise FormatError(f"unknown task_kind {task_kind!r}", line=line)
    answer = data["answer"]
    if isinstance(answer, str):
        answer = answer.lower()
        if answer not in ("true", "false", "unknown"):
            raise FormatError(f"bad answer label {data['answer']!r}", line=line)
    elif not isinstance(answer, int):
        raise FormatError(f"answer must be a label or option index", line=line)
    try:
        gold_logic = program_from_json(data["gold_logic"]) if "gold_logic" in data else None
    except Exception as exc:
        raise FormatError(f"bad gold_logic: {exc}", line=line) from exc
    gold_concepts = None
    if "gold_concepts" in data:
        gold_concepts = {
            (int(unit), int(start), int(end)): concept
            for unit, start, end, concept in data["gold_concepts"]
        }
    return Problem(
        id=str(data["id"]),
        sentences=tuple(TextUnit.from_text(s) for s in data["sentences"]),
        question=TextUnit.from_text(data["question"]),
        gold_answer=answer,
        task_kind=task_kind,
        options=tuple(data["options"]) if "options" in data else None,
        gold_logic=gold_logic,
        gold_concepts=gold_concepts,
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


def diversified_from_json(data: dict, line: int | None = None) -> DiversifiedProblem:
    problem = problem_from_json(data["problem"], line=line)
    provenance = {
        cid: [ProvenanceEntry(int(u), int(cs), int(ce), surface)
              for u, cs, ce, surface in entries]
        for cid, entries in data["provenance"].items()
    }
    return DiversifiedProblem(
        base_id=str(data["base_id"]),
        problem=problem,
        provenance=provenance,
        intensity=int(data["intensity"]),
        no_repeats=bool(data.get("no_repeats", False)),
    )


def load_dataset(path: str | Path) -> list[Problem | DiversifiedProblem]:
    """Read a JSONL problem file; diversified lines are detected by shape."""
    p = Path(path)
    if not p.exists():
        raise FormatError(f"dataset file not found: {p}")
    out: list[Problem | DiversifiedProblem] = []
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise FormatError(f"invalid JSON: {exc}", line=lineno) from exc
        if "provenance" in data:
            out.append(diversified_from_json(data, line=lineno))
        else:
            out.append(problem_from_json(data, line=lineno))
    return out


def save_dataset(path: str | Path, items: list[Problem | DiversifiedProblem]) -> None:
    lines = []
    for item in items:
        if isinstance(item, DiversifiedProblem):
            lines.append(json.dumps(diversified_to_json(item), sort_keys=True))
        else:
            lines.append(json.dumps(problem_to_json(item), sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
