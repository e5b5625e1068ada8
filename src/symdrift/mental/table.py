"""The expression-to-symbol table that keeps translations consistent.

Each entry groups semantically equivalent surface expressions under one
symbol name; an entry may instead carry a decomposition (base & modifier)
after a compound concept has been refined. Tables are immutable; updates
return new tables.

The update methods and `entry_for` take expressions already normalized by
`normalize_expression`, so a routed expression is normalized once; `lookup`
takes a raw surface.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

from ..textproc import content_lemmas, word_lemmas

EXTEND = "extend"
REUSE = "reuse"
REFINE = "refine"


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
    lemmas = content_lemmas(e) or word_lemmas(e)
    if not lemmas:
        return "Expr"
    return "".join(l[:1].upper() + l[1:] for l in lemmas)


@dataclass(frozen=True)
class MentalTable:
    entries: tuple[TableEntry, ...] = ()

    def entry_for(self, norm: str) -> TableEntry | None:
        for entry in self.entries:
            if norm in entry.expressions:
                return entry
        return None

    def lookup(self, e: str) -> SymbolRef | None:
        """Exact-surface match; never consults an oracle."""
        entry = self.entry_for(normalize_expression(e))
        return entry.ref() if entry else None

    def symbol_names(self) -> set[str]:
        names = {entry.symbol for entry in self.entries}
        for entry in self.entries:
            if entry.decomposition:
                names.update(entry.decomposition)
        return names

    def fresh_symbol(self, norm: str) -> str:
        base = camel_case_symbol(norm)
        taken = self.symbol_names()
        if base not in taken:
            return base
        n = 2
        while f"{base}{n}" in taken:
            n += 1
        return f"{base}{n}"

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
        """Raise when the table invariants are broken."""
        seen_expressions: set[str] = set()
        seen_symbols: set[str] = set()
        for entry in self.entries:
            overlap = seen_expressions & set(entry.expressions)
            if overlap:
                raise AssertionError(f"expression sets overlap on {sorted(overlap)}")
            seen_expressions.update(entry.expressions)
            if entry.symbol in seen_symbols:
                raise AssertionError(f"symbol {entry.symbol!r} owned by two entries")
            seen_symbols.add(entry.symbol)
        atomic_symbols = {e.symbol for e in self.entries if e.decomposition is None}
        for entry in self.entries:
            if entry.decomposition is None:
                continue
            for part in entry.decomposition:
                if part not in atomic_symbols:
                    raise AssertionError(
                        f"decomposition part {part!r} of {entry.symbol!r} "
                        "is not an atomic entry's symbol"
                    )

    def render_text(self) -> str:
        """Human-readable table used in exported traces."""
        lines = []
        for entry in self.entries:
            expressions = ", ".join(entry.expressions)
            if entry.decomposition:
                base, modifier = entry.decomposition
                target = f"{modifier}(x) & {base}(x)"
            else:
                target = entry.symbol
            lines.append(f"{{{expressions}}} -> {target}")
        return "\n".join(lines)
