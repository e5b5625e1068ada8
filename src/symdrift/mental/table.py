"""The expression-to-symbol table that keeps translations consistent.

Each entry groups semantically equivalent surface expressions under one
symbol name; an entry may instead carry a decomposition (base & modifier)
after a compound concept has been refined. Tables are immutable; updates
return new tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..textproc import content_lemmas, word_lemmas

EXTEND = "extend"
REUSE = "reuse"
REFINE = "refine"


@dataclass(frozen=True)
class SymbolRef:
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


@dataclass(frozen=True)
class TableEntry:
    entry_id: int
    expressions: tuple[str, ...]  # normalized, insertion order
    symbol: str  # symbol name
    decomposition: tuple[str, str] | None = None  # (base name, modifier name)

    def ref(self) -> SymbolRef:
        if self.decomposition is not None:
            return SymbolRef(self.decomposition[0], self.decomposition[1])
        return SymbolRef(self.symbol)


def normalize_expression(e: str) -> str:
    return " ".join(e.lower().split())


def camel_case_symbol(e: str) -> str:
    lemmas = content_lemmas(e) or word_lemmas(e)
    if not lemmas:
        return "Expr"
    return "".join(l[:1].upper() + l[1:] for l in lemmas)


@dataclass(frozen=True)
class MentalTable:
    entries: tuple[TableEntry, ...] = ()

    def entry_for(self, e: str) -> TableEntry | None:
        norm = normalize_expression(e)
        for entry in self.entries:
            if norm in entry.expressions:
                return entry
        return None

    def lookup(self, e: str) -> SymbolRef | None:
        """Exact-surface match; never consults an oracle."""
        entry = self.entry_for(e)
        return entry.ref() if entry else None

    def symbol_names(self) -> set[str]:
        names = {entry.symbol for entry in self.entries}
        for entry in self.entries:
            if entry.decomposition:
                names.update(entry.decomposition)
        return names

    def fresh_symbol(self, e: str) -> str:
        base = camel_case_symbol(e)
        taken = self.symbol_names()
        if base not in taken:
            return base
        n = 2
        while f"{base}{n}" in taken:
            n += 1
        return f"{base}{n}"

    def extend(self, e: str) -> tuple["MentalTable", TableEntry]:
        norm = normalize_expression(e)
        entry = TableEntry(len(self.entries), (norm,), self.fresh_symbol(e))
        return MentalTable(self.entries + (entry,)), entry

    def reuse(self, e: str, entry_id: int) -> tuple["MentalTable", TableEntry]:
        norm = normalize_expression(e)
        entries = list(self.entries)
        entry = entries[entry_id]
        if norm not in entry.expressions:
            entry = replace(entry, expressions=entry.expressions + (norm,))
            entries[entry_id] = entry
        return MentalTable(tuple(entries)), entry

    def decompose(self, entry_id: int, base: str, modifier: str) -> "MentalTable":
        entries = list(self.entries)
        entries[entry_id] = replace(entries[entry_id], decomposition=(base, modifier))
        return MentalTable(tuple(entries))

    def add_decomposed(self, e: str, base: str, modifier: str) -> tuple["MentalTable", TableEntry]:
        norm = normalize_expression(e)
        entry = TableEntry(len(self.entries), (norm,), self.fresh_symbol(e), (base, modifier))
        return MentalTable(self.entries + (entry,)), entry

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
