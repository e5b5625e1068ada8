"""Record (de)serialization for records.jsonl round trips."""

from __future__ import annotations

from pathlib import Path

from ..fol.parser import build_program
from ..fol.terms import LogicProgram
from ..metrics.records import TranslationRecord
from ..mental.translate import TraceEvent
from ..solver.csp import Constraint, CSPSpec, Option
from ..solver.verdict import Verdict
from .datasets import (
    RECORD,
    VERDICT,
    check,
    logic_to_json,
    parse_jsonl,
    texts_from_json,
    write_jsonl,
)


def csp_to_json(spec: CSPSpec) -> dict:
    return {
        "objects": list(spec.objects),
        "constraints": [[c.kind, *c.args] for c in spec.constraints],
    }


def csp_from_json(data: dict) -> CSPSpec:
    constraints = [
        Constraint(kind, tuple(args)) for kind, *args in data.get("constraints", [])
    ]
    return CSPSpec(list(data["objects"]), constraints)


def record_to_json(r: TranslationRecord) -> dict:
    program = None
    if isinstance(r.program, LogicProgram):
        program = {"logic": logic_to_json(r.rendering, r.program.semantics_mode)}
    elif isinstance(r.program, CSPSpec):
        program = {"csp": csp_to_json(r.program),
                   "options": [[o.obj, o.position] for o in r.options]}
    return {
        "problem_id": r.problem_id,
        "gold": r.gold,
        "raw_output": r.raw_output,
        "program": program,
        "parse_error": r.parse_error,
        "verdict": r.verdict._asdict() if r.verdict is not None else None,
        "exec_error": r.exec_error,
        "predicted": r.predicted,
        "alignment": {c: sorted(symbols) for c, symbols in sorted(r.alignment.items())},
        "span_symbols": [
            [unit, start, end, symbol]
            for (unit, start, end), symbol in sorted(r.span_symbols.items())
        ],
        "alignment_misses": list(r.alignment_misses),
        "tokens_in": r.tokens_in,
        "tokens_out": r.tokens_out,
        "trace": [list(e) for e in r.mental_trace],
        "table": r.table_text,
    }


def program_from_json(data: dict, field: str) -> LogicProgram:
    return build_program(texts_from_json(data, field))


def record_from_json(data: dict) -> TranslationRecord:
    check(data, RECORD, "")
    block = data.get("program") or {}
    program, options = None, []
    if "logic" in block:
        program = program_from_json(block["logic"], "program.logic")
    elif "csp" in block:
        program = csp_from_json(block["csp"])
        options = [Option(obj, position) for obj, position in block.get("options", [])]
    verdict = data.get("verdict")
    names = {key.rstrip("?") for key in VERDICT}
    return TranslationRecord(
        problem_id=str(data["problem_id"]),
        gold=data["gold"],
        raw_output=data.get("raw_output", ""),
        program=program,
        parse_error=data.get("parse_error"),
        options=options,
        verdict=Verdict(**{k: v for k, v in verdict.items() if k in names}) if verdict else None,
        exec_error=data.get("exec_error"),
        predicted=data.get("predicted"),
        alignment={c: set(symbols) for c, symbols in data.get("alignment", {}).items()},
        span_symbols={(unit, start, end): symbol
                      for unit, start, end, symbol in data.get("span_symbols", [])},
        alignment_misses=list(data.get("alignment_misses", [])),
        tokens_in=data.get("tokens_in", 0),
        tokens_out=data.get("tokens_out", 0),
        mental_trace=tuple(TraceEvent(*event) for event in data.get("trace", [])),
        table_text=data.get("table", ""),
    )


def write_records(path: str | Path, records: list[TranslationRecord]) -> None:
    write_jsonl(path, map(record_to_json, records))


def read_records(path: str | Path) -> list[TranslationRecord]:
    return parse_jsonl(path, record_from_json)
