"""Exception hierarchy shared across the toolkit.

Errors are grouped by the pipeline stage that raises them so the harness can
map failures onto the error taxonomy (parse / execution / logic) and onto CLI
exit codes without string matching.
"""

from __future__ import annotations


class SymdriftError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# Logic layer


class FolError(SymdriftError):
    """Base class for logic-layer errors."""


class FormulaSyntaxError(FolError):
    """Raised by the formula parser; carries position and expectation."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class ArityMismatch(FolError):
    def __init__(self, name: str, expected: int, got: int):
        self.name = name
        self.expected = expected
        self.got = got
        super().__init__(f"symbol {name!r} declared with arity {expected}, used with {got}")


class UnknownSymbol(FolError):
    pass


class UnsupportedSkolemFunction(FolError):
    """An existential quantifier occurs under a universal one (fragment limit)."""


# ---------------------------------------------------------------------------
# Solver layer


class SolverError(SymdriftError):
    """Base class for solver execution errors."""


class DomainTooLarge(SolverError):
    pass


class NotHorn(SolverError):
    pass


class CSPSpecError(SolverError):
    """The constraint spec references undeclared objects or bad positions."""


class Unsatisfiable(SolverError):
    pass


class AmbiguousOptions(SolverError):
    pass


class NoEntailedOption(SolverError):
    """Constraints are satisfiable but no option holds in every solution."""


# ---------------------------------------------------------------------------
# Diversification / resources


class ResourceMissing(SymdriftError):
    pass


class ScorerUnavailable(SymdriftError):
    pass


# ---------------------------------------------------------------------------
# Translation / table maintenance


class OracleFailure(SymdriftError):
    pass


class TranslationFailure(SymdriftError):
    pass


# ---------------------------------------------------------------------------
# Metrics


class AlignmentIncomplete(SymdriftError):
    """A surface form could not be matched to any symbol (recorded, not fatal)."""


class PairingMismatch(SymdriftError):
    pass


# ---------------------------------------------------------------------------
# Harness


class FormatError(SymdriftError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"{message}" + (f" (line {line})" if line is not None else ""))


class MissingGold(SymdriftError):
    pass


class EmptyDataset(SymdriftError):
    pass


class SolverMismatch(SymdriftError):
    """Refused (task_kind, solver) pairing."""


class ClientError(SymdriftError):
    """Remote LLM endpoint unusable after retries."""


class NoTraces(SymdriftError):
    pass
