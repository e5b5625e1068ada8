"""The expression-to-symbol table that keeps translations consistent.

Each entry groups semantically equivalent surface expressions under one
symbol name; an entry may instead carry a decomposition (base & modifier)
after a compound concept has been refined. Tables are immutable; updates
return new tables. `renderings` maps every expression to what it renders as
in the final table, which is the one place refinement takes effect.

The update methods, `entry_for` and `renderings` take expressions already
normalized by `normalize_expression`, so routing an expression normalizes it
once.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import NamedTuple, Union

from ..errors import TranslationFailure
from ..fol.terms import camel_identifier, fresh_name
from ..textproc import content_lemmas, word_lemmas

EXTEND = "extend"
REUSE = "reuse"
REFINE = "refine"

# A symbol name, or the (modifier, base) pair of a decomposed entry with each
# part rendered the same way; it reads as the conjunction modifier & base.
Rendering = Union[str, tuple["Rendering", "Rendering"]]


def rendering_symbols(rendering: Rendering) -> tuple[str, ...]:
    """The symbol names of a rendering, left to right."""
    if isinstance(rendering, str):
        return (rendering,)
    modifier, base = rendering
    return rendering_symbols(modifier) + rendering_symbols(base)


class SymbolRef(NamedTuple):
    """How an expression renders into the logical form.

    `base` is the atomic concept's symbol; a decomposed reference renders
    modifier-first (PopularShow becomes Popular(x) & Show(x)).
    """
    base: str
    modifier: str | None = None

    def render(self) -> str:
        if self.modifier is None:
            return self.base
        return f"{self.modifier}&{self.base}"


class TableEntry(NamedTuple):
    entry_id: int
    expressions: tuple[str, ...]  # normalized, insertion order
    symbol: str  # symbol name
    decomposition: tuple[str, str] | None = None  # (base name, modifier name)

    def ref(self) -> SymbolRef:
        if self.decomposition is not None:
            return SymbolRef(self.decomposition[0], self.decomposition[1])
        return SymbolRef(self.symbol)


def normalize_expression(e: str) -> str:
    # Interned: records keep their traces, which repeat a few hundred
    # distinct expressions thousands of times in a run.
    return sys.intern(" ".join(e.lower().split()))


def camel_case_symbol(e: str) -> str:
    return camel_identifier(" ".join(content_lemmas(e) or word_lemmas(e)))


class _TableFields(NamedTuple):
    entries: tuple[TableEntry, ...] = ()


class MentalTable(_TableFields):
    """Declares no `__slots__`, so each table has the instance dict that
    `renderings` is cached in."""

    def entry_for(self, norm: str) -> TableEntry | None:
        for entry in self.entries:
            if norm in entry.expressions:
                return entry
        return None

    def symbol_names(self) -> set[str]:
        names = {entry.symbol for entry in self.entries}
        for entry in self.entries:
            if entry.decomposition:
                names.update(entry.decomposition)
        return names

    def fresh_symbol(self, norm: str) -> str:
        return fresh_name(camel_case_symbol(norm), self.symbol_names())

    def extend(self, norm: str) -> tuple["MentalTable", TableEntry]:
        entry = TableEntry(len(self.entries), (norm,), self.fresh_symbol(norm))
        return MentalTable(self.entries + (entry,)), entry

    def reuse(self, norm: str, entry_id: int) -> tuple["MentalTable", TableEntry]:
        entry = self.entries[entry_id]
        if norm in entry.expressions:
            return self, entry
        entry = entry._replace(expressions=entry.expressions + (norm,))
        return self._with(entry), entry

    def decompose(self, entry_id: int, base: str, modifier: str) -> "MentalTable":
        return self._with(self.entries[entry_id]._replace(decomposition=(base, modifier)))

    def add_decomposed(self, norm: str, base: str, modifier: str) -> tuple["MentalTable", TableEntry]:
        entry = TableEntry(len(self.entries), (norm,), self.fresh_symbol(norm), (base, modifier))
        return MentalTable(self.entries + (entry,)), entry

    def _with(self, entry: TableEntry) -> "MentalTable":
        """This table with the entry of the same id replaced by `entry`."""
        i = entry.entry_id
        return MentalTable(self.entries[:i] + (entry,) + self.entries[i + 1:])

    def audit(self) -> None:
        """Raise TranslationFailure when the table invariants are broken: an
        expression or a symbol in two entries, a decomposition part that is
        no entry's symbol, or a decomposition that reaches its own entry."""
        seen_expressions: set[str] = set()
        by_symbol: dict[str, TableEntry] = {}
        for entry in self.entries:
            overlap = seen_expressions & set(entry.expressions)
            if overlap:
                raise TranslationFailure(f"expression sets overlap on {sorted(overlap)}")
            seen_expressions.update(entry.expressions)
            if entry.symbol in by_symbol:
                raise TranslationFailure(f"symbol {entry.symbol!r} owned by two entries")
            by_symbol[entry.symbol] = entry
        done: set[str] = set()
        for entry in self.entries:
            if entry.decomposition is not None:
                _check_decomposition(entry, by_symbol, (), done)

    @cached_property
    def renderings(self) -> dict[str, Rendering]:
        """Every normalized expression's rendering: an undecomposed entry's
        symbol, or its decomposition with both parts expanded. Read it only
        after `audit` has passed, which rules out cycles."""
        by_symbol = {entry.symbol: entry for entry in self.entries}
        out: dict[str, Rendering] = {}
        for entry in self.entries:
            rendering = _rendering_of(entry, by_symbol)
            for e in entry.expressions:
                out[e] = rendering
        return out

    def render_text(self) -> str:
        """Human-readable table used in exported traces: a decomposed entry
        reads as its rendering in full, as the program and the ledger do."""
        lines = []
        renderings = self.renderings
        for entry in self.entries:
            expressions = ", ".join(entry.expressions)
            if entry.decomposition:
                target = _rendering_text(renderings[entry.expressions[0]])
            else:
                target = entry.symbol
            lines.append(f"{{{expressions}}} -> {target}")
        return "\n".join(lines)


# Module-level recursion: a recursive closure is a reference cycle per call.

def _check_decomposition(entry: TableEntry, by_symbol: dict[str, TableEntry],
                         path: tuple[str, ...], done: set[str]) -> None:
    if entry.symbol in path:
        raise TranslationFailure(f"decomposition cycle {' -> '.join(path + (entry.symbol,))}")
    if entry.decomposition is None or entry.symbol in done:
        return
    for part in entry.decomposition:
        if part not in by_symbol:
            raise TranslationFailure(
                f"decomposition part {part!r} of {entry.symbol!r} is not an entry's symbol")
        _check_decomposition(by_symbol[part], by_symbol, path + (entry.symbol,), done)
    done.add(entry.symbol)


def _rendering_text(rendering: Rendering) -> str:
    """A rendering over the variable x, bracketed as `render_formula`
    brackets modifier & base: a decomposed base in parentheses."""
    if isinstance(rendering, str):
        return f"{rendering}(x)"
    modifier, base = rendering
    base_text = _rendering_text(base) if isinstance(base, str) else f"({_rendering_text(base)})"
    return f"{_rendering_text(modifier)} & {base_text}"


def _rendering_of(entry: TableEntry, by_symbol: dict[str, TableEntry]) -> Rendering:
    if entry.decomposition is None:
        return entry.symbol
    base, modifier = entry.decomposition
    return (_rendering_of(by_symbol[modifier], by_symbol),
            _rendering_of(by_symbol[base], by_symbol))
