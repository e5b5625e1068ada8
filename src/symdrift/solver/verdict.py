"""Solver verdicts shared by every engine."""

from __future__ import annotations

from typing import NamedTuple

PROVED = "proved"
DISPROVED = "disproved"
UNKNOWN = "unknown"
TRUE = "true"
FALSE = "false"
OPTION = "option"


class _VerdictFields(NamedTuple):
    value: str
    option_index: int | None = None
    steps: int = 0
    limit_hit: bool = False


class Verdict(_VerdictFields):
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        """Checks the value `__new__` built; `_replace` builds without it."""
        if self.value == OPTION and self.option_index is None:
            raise ValueError("option verdicts carry an option index")
        if self.limit_hit and self.value != UNKNOWN:
            raise ValueError("a hit step limit always yields an unknown verdict")

    def label(self) -> str | int:
        """Canonical predicted label for accuracy scoring."""
        if self.value == OPTION:
            assert self.option_index is not None
            return self.option_index
        return {PROVED: "true", DISPROVED: "false", UNKNOWN: "unknown",
                TRUE: "true", FALSE: "false"}[self.value]
