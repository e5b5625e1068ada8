"""Per-problem translation records: the unit metrics aggregate over."""

from __future__ import annotations

import sys

from ..fol.render import render_program
from ..fol.terms import LogicProgram
from ..solver.csp import CSPSpec, Option
from ..solver.verdict import Verdict

CORRECT = "Correct"
PARSE_ERROR = "ParseError"
EXEC_ERROR = "ExecError"
LOGIC_ERROR = "LogicError"

SpanKey = tuple[int, int, int]  # (unit, char start, char end)


class TranslationRecord:
    __slots__ = ("problem_id", "gold", "raw_output", "program", "parse_error", "options",
                 "verdict", "exec_error", "predicted", "alignment", "span_symbols",
                 "alignment_misses", "tokens_in", "tokens_out", "mental_trace", "table_text",
                 "rendering")

    def __init__(self, problem_id: str, gold: str | int, raw_output: str = "",
                 program: LogicProgram | CSPSpec | None = None, parse_error: str | None = None,
                 options: list[Option] | None = None, verdict: Verdict | None = None,
                 exec_error: str | None = None, predicted: str | int | None = None,
                 alignment: dict[str, set[str]] | None = None,
                 span_symbols: dict[SpanKey, str] | None = None,
                 alignment_misses: list[str] | None = None, tokens_in: int = 0,
                 tokens_out: int = 0, mental_trace: tuple = (), table_text: str = "") -> None:
        if (program is None) == (parse_error is None):
            raise ValueError("exactly one of program / parse_error must be set")
        if predicted is not None and verdict is None:
            raise ValueError("a prediction requires a verdict")
        self.problem_id = problem_id
        self.gold = gold
        self.raw_output = raw_output
        self.program = program
        self.parse_error = parse_error
        # answer options a constraint program is asked about
        self.options = [] if options is None else options
        self.verdict = verdict
        self.exec_error = exec_error
        self.predicted = predicted
        # concept id -> the set of symbol expressions its surfaces mapped to
        self.alignment = {} if alignment is None else alignment
        # expression ledger: rewritten-text span -> symbol expression
        self.span_symbols = {} if span_symbols is None else span_symbols
        self.alignment_misses = [] if alignment_misses is None else alignment_misses
        self.tokens_in = tokens_in
        self.tokens_out = tokens_out
        self.mental_trace = mental_trace
        self.table_text = table_text
        # A logic program's `render_program` texts, made once when the record
        # is built; every writer of the record reads them. Interned: a run's
        # programs repeat a few hundred distinct formulas thousands of times.
        self.rendering = (tuple(map(sys.intern, render_program(program)))
                          if isinstance(program, LogicProgram) else ())

    def is_consistent(self) -> bool:
        """Every aligned concept maps to at most one symbol expression."""
        return all(len(symbols) <= 1 for symbols in self.alignment.values())
