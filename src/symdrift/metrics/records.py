"""Per-problem translation records: the unit metrics aggregate over."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from ..fol.render import render_program
from ..fol.terms import LogicProgram
from ..solver.csp import CSPSpec, Option
from ..solver.verdict import Verdict

CORRECT = "Correct"
PARSE_ERROR = "ParseError"
EXEC_ERROR = "ExecError"
LOGIC_ERROR = "LogicError"

SpanKey = tuple[int, int, int]  # (unit, char start, char end)


@dataclass
class TranslationRecord:
    problem_id: str
    gold: str | int
    raw_output: str = ""
    program: LogicProgram | CSPSpec | None = None
    parse_error: str | None = None
    # answer options a constraint program is asked about
    options: list[Option] = field(default_factory=list)
    verdict: Verdict | None = None
    exec_error: str | None = None
    predicted: str | int | None = None
    # concept id -> the set of symbol expressions its surfaces mapped to
    alignment: dict[str, set[str]] = field(default_factory=dict)
    # expression ledger: rewritten-text span -> symbol expression
    span_symbols: dict[SpanKey, str] = field(default_factory=dict)
    alignment_misses: list[str] = field(default_factory=list)
    tokens_in: int = 0
    tokens_out: int = 0
    mental_trace: tuple = ()
    table_text: str = ""
    # A logic program's `render_program` texts, made once when the record is
    # built; every writer of the record reads them. Interned: a run's
    # programs repeat a few hundred distinct formulas thousands of times.
    rendering: tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.program is None) == (self.parse_error is None):
            raise ValueError("exactly one of program / parse_error must be set")
        if self.predicted is not None and self.verdict is None:
            raise ValueError("a prediction requires a verdict")
        if isinstance(self.program, LogicProgram):
            self.rendering = tuple(map(sys.intern, render_program(self.program)))

    def is_consistent(self) -> bool:
        """Every aligned concept maps to at most one symbol expression."""
        return all(len(symbols) <= 1 for symbols in self.alignment.values())

    def has_drift(self) -> bool:
        return any(len(symbols) > 1 for symbols in self.alignment.values())
