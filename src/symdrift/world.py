"""Worlds as data: each sentence form is a formula template plus the texts
that say it, over `str.format` slots: `name` is a constant, written as a
capitalised word, and any other slot a predicate, written as one word. The
generator, the rule rewriter and the naive translator all read this table.
"""

from __future__ import annotations

import re
from string import Formatter
from typing import NamedTuple

from .fol.terms import camel_identifier

NAME = "name"
_NAME_PATTERN, _PREDICATE_PATTERN = r"[A-Z]\w*", r"\w+"


def _pattern(text: str) -> re.Pattern:
    """`text` as a pattern for `fullmatch`, one named group a slot."""
    pattern = ""
    for literal, slot, _, _ in Formatter().parse(text):
        pattern += re.escape(literal)
        if slot is not None:
            pattern += f"(?P<{slot}>{_NAME_PATTERN if slot == NAME else _PREDICATE_PATTERN})"
    return re.compile(pattern)


class Said(NamedTuple):
    """A filled form: the sentence, its formula, and each slot's char span
    and concept (the slot's word, lowercased), in text order."""
    text: str
    formula: str
    spans: tuple[tuple[int, int, str], ...]


class Form(NamedTuple):
    """A formula template and the texts that say it; `say` writes the first."""
    formula: str
    texts: tuple[str, ...]
    patterns: tuple[re.Pattern, ...]  # one per text
    pieces: tuple[tuple, ...]  # the first text as `Formatter().parse` splits it
    query: bool = False  # read only as a problem's question

    def say(self, **values: str) -> Said:
        """The form's first text filled with `values`, and its formula with
        each value camel-cased."""
        text, spans = "", []
        for literal, slot, _, _ in self.pieces:
            text += literal
            if slot is not None:
                spans.append((len(text), len(text) + len(values[slot]), values[slot].lower()))
                text += values[slot]
        formula = self.formula.format_map({s: camel_identifier(v) for s, v in values.items()})
        return Said(text, formula, tuple(spans))


def _form(formula: str, *texts: str, query: bool = False) -> Form:
    return Form(formula, texts, tuple(map(_pattern, texts)),
                tuple(Formatter().parse(texts[0])), query)


class World(NamedTuple):
    names: tuple[str, ...]
    attributes: tuple[str, ...]
    forms: dict[str, Form]  # in reading order


# Vocabulary mirrored in the bundled synonym lexicon so that every attribute
# and name is diversifiable.
ATTRIBUTES = (
    "kind", "smart", "tall", "quiet", "strong", "happy", "calm", "brave",
    "honest", "polite", "tidy", "wise", "friendly", "gentle", "young",
    "cold", "big", "red", "green", "round",
)
NAMES = (
    "Anne", "Bob", "Carol", "Dave", "Erin", "Fred", "Gail", "Harry", "Ivy",
    "Jack", "Kate", "Leo", "Mona", "Nick", "Olive", "Paul", "Quinn", "Rose",
    "Sam", "Tina",
)

# The rule texts are logically equivalent, so each rewrites to the others.
PROOFWRITER = World(NAMES, ATTRIBUTES, {
    "fact": _form("{attr}({name})", "{name} is {attr}."),
    "negated fact": _form("~{attr}({name})", "{name} is not {attr}."),
    "rule": _form("all x ({a}(x) -> {b}(x))", "All {a} people are {b}.",
                  "Every {a} person is {b}.", "If someone is {a}, then they are {b}."),
    "question": _form("{attr}({name})", "Is {name} {attr}?", query=True),
    "negated question": _form("~{attr}({name})", "Is {name} not {attr}?", query=True),
})
