"""Formula rendering in the canonical dialect.

The output round-trips: parsing it against the same registry rebuilds a
structurally identical formula. `render_text` gives a formula text's
canonical rendering, memoized per text, and `render_texts` a program's, so
checked texts are rendered as their program would be without building it:
a dataset's gold logic as it is written, and the logic of a `gold` or `llm`
record.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .parser import ProgramTexts, parse_shape
from .terms import (
    And,
    Atom,
    Const,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    LogicProgram,
    Not,
    Or,
    SymbolRegistry,
    Var,
)

# Binding strength; higher binds tighter.
_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, ForAll: 5, Exists: 5, Atom: 6}

_CONNECTIVE = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def render_formula(f: Formula, registry: SymbolRegistry) -> str:
    return _render(f, registry, parent_prec=0)


def render_program(program: LogicProgram) -> tuple[str, ...]:
    """The text of each premise, then of the query."""
    registry = program.registry
    return tuple(_render(f, registry, 0) for f in (*program.premises, program.query))


@lru_cache(maxsize=None)
def render_text(text: str) -> str:
    """The canonical rendering of a formula text that parses, interned: what
    `render_program` gives for it in any program, as only names are printed."""
    shape = parse_shape(text)
    return sys.intern(render_formula(shape.formula, shape.registry()))


def render_texts(texts: ProgramTexts) -> ProgramTexts:
    """Checked texts rendered canonically: the texts `render_program` gives
    for the program they build."""
    return texts._replace(premises=tuple(map(render_text, texts.premises)),
                          query=render_text(texts.query))


def _term_str(t, registry: SymbolRegistry) -> str:
    if isinstance(t, Var):
        return t.name
    assert isinstance(t, Const)
    return registry.name_of(t.symbol)


def _render(f: Formula, registry: SymbolRegistry, parent_prec: int) -> str:
    if isinstance(f, Atom):
        name = registry.name_of(f.pred)
        if not f.args:
            return name
        return f"{name}({', '.join(_term_str(a, registry) for a in f.args)})"
    if isinstance(f, Not):
        return "~" + _render(f.body, registry, _PREC[Not])
    if isinstance(f, (ForAll, Exists)):
        kw = "all" if isinstance(f, ForAll) else "exists"
        body = f.body
        if isinstance(body, (Atom, Not, ForAll, Exists)):
            return f"{kw} {f.var} {_render(body, registry, _PREC[type(f)])}"
        return f"{kw} {f.var} ({_render(body, registry, 0)})"
    op = _CONNECTIVE[type(f)]
    prec = _PREC[type(f)]
    # Right-associative arrows reparse correctly when the right child keeps the
    # parent's precedence; chains of the left-folded & and | likewise.
    if isinstance(f, (Implies, Iff)):
        left = _render(f.left, registry, prec + 1)
        right = _render(f.right, registry, prec)
    else:
        left = _render(f.left, registry, prec)
        right = _render(f.right, registry, prec + 1)
    out = f"{left} {op} {right}"
    if prec < parent_prec:
        return f"({out})"
    return out
