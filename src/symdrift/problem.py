"""Reasoning-problem data model shared by diversification, translation, metrics.

A problem is an ordered list of premise sentences plus a question; text units
are addressed by index, with `QUESTION_UNIT` (-1) naming the question. A
concept inventory is a plain dict from concept id to entry.
"""

from __future__ import annotations

from typing import NamedTuple

from .fol.terms import CLOSED_WORLD, CSP_MODE, LogicProgram, OPEN_WORLD
from .textproc import Token, tokenize

QUESTION_UNIT = -1

TASK_FOLIO = "folio"
TASK_PROOFWRITER = "proofwriter"
TASK_PRONTOQA = "prontoqa"
TASK_PROVERQA = "proverqa"
TASK_DEDUCTION = "deduction"

# Each task kind is read in one world: rule-base tasks closed (what is not
# derivable is false), first-order tasks open, ordering puzzles as constraints.
TASK_KINDS = {
    TASK_FOLIO: OPEN_WORLD,
    TASK_PROOFWRITER: CLOSED_WORLD,
    TASK_PRONTOQA: CLOSED_WORLD,
    TASK_PROVERQA: OPEN_WORLD,
    TASK_DEDUCTION: CSP_MODE,
}


class TextUnit(NamedTuple):
    text: str
    tokens: tuple[Token, ...]

    @staticmethod
    def from_text(text: str) -> "TextUnit":
        return TextUnit(text, tokenize(text))


class Problem(NamedTuple):
    id: str
    sentences: tuple[TextUnit, ...]
    question: TextUnit
    gold_answer: str | int
    task_kind: str
    options: tuple[str, ...] | None = None
    gold_logic: LogicProgram | None = None
    # (unit, token start, token end exclusive) -> concept id
    gold_concepts: dict[tuple[int, int, int], str] | None = None

    def unit(self, index: int) -> TextUnit:
        return self.question if index == QUESTION_UNIT else self.sentences[index]

    def units(self) -> list[tuple[int, TextUnit]]:
        out: list[tuple[int, TextUnit]] = list(enumerate(self.sentences))
        out.append((QUESTION_UNIT, self.question))
        return out

    def with_units(self, sentences: tuple[TextUnit, ...], question: TextUnit) -> "Problem":
        return self._replace(sentences=sentences, question=question)

    def text(self) -> str:
        return " ".join([u.text for u in self.sentences] + [self.question.text])


class ConceptOccurrence(NamedTuple):
    unit: int
    tok_start: int
    tok_end: int  # exclusive
    char_start: int
    char_end: int
    surface: str


class ConceptEntry(NamedTuple):
    lemmas: tuple[str, ...]
    pos: tuple[str, ...]  # tags aligned with lemmas, from the first occurrence
    occurrences: tuple[ConceptOccurrence, ...]


# Concept id (the lemma sequence joined by spaces) -> entry, shortest first.
ConceptInventory = dict[str, ConceptEntry]


WORD_LEVEL = "word"
PHRASE_LEVEL = "phrase"


class Variant(NamedTuple):
    text: str
    level: str  # WORD_LEVEL | PHRASE_LEVEL


VariantSet = dict[str, list[Variant]]


class ProvenanceEntry(NamedTuple):
    """One concept occurrence in the rewritten text."""
    unit: int
    char_start: int
    char_end: int
    surface: str


class DiversifiedProblem:
    __slots__ = ("base_id", "problem", "provenance", "intensity", "no_repeats")

    def __init__(self, base_id: str, problem: Problem,
                 provenance: dict[str, list[ProvenanceEntry]], intensity: int,
                 no_repeats: bool = False) -> None:
        self.base_id = base_id
        self.problem = problem  # rewritten sentences/question, retokenized
        self.provenance = provenance
        self.intensity = intensity  # premise sentences whose text changed
        self.no_repeats = no_repeats  # the source problem had nothing to diversify

    def validate(self, base: Problem) -> "DiversifiedProblem":
        if len(self.problem.sentences) != len(base.sentences):
            raise ValueError("sentence count changed during diversification")
        changed = sum(
            1 for ours, theirs in zip(self.problem.sentences, base.sentences)
            if ours.text != theirs.text
        )
        if changed != self.intensity:
            raise ValueError(f"intensity {self.intensity} != changed count {changed}")
        for cid, entries in self.provenance.items():
            for e in entries:
                text = self.problem.unit(e.unit).text
                if text[e.char_start:e.char_end] != e.surface:
                    raise ValueError(
                        f"provenance span for {cid!r} does not match text: "
                        f"{text[e.char_start:e.char_end]!r} != {e.surface!r}"
                    )
        return self
