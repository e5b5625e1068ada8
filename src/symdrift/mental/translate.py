"""Expression routing and the table-guided translation driver.

`process_expression` implements the three-way update: scan entries in
insertion order for an equivalence hit (reuse the symbol), otherwise for a
conflict hit (refine, keeping the more atomic concept and retroactively
rewriting the program), otherwise extend with a fresh symbol. The driver
takes a problem's per-unit formula skeletons with named predicate slots,
however they were proposed, and routes every slot surface through the table.

States, trace events and table entries are named tuples, and tables are
immutable: an update builds a new state that shares everything it did not
change. `process_expression` normalizes its expression once and hands the
normalized text to every table method it calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..errors import TranslationFailure
from ..fol.parser import parse_formula
from ..fol.rewrite import ensure_predicate, refine_symbol
from ..fol.terms import (
    And,
    Atom,
    CLOSED_WORLD,
    CONSTANT,
    Const,
    Formula,
    LogicProgram,
    PREDICATE,
    SymbolRegistry,
    map_atoms,
)
from ..problem import Problem, QUESTION_UNIT, TASK_KINDS
from .oracles import EquivalenceOracle
from .table import EXTEND, MentalTable, REFINE, REUSE, SymbolRef, normalize_expression


class TraceEvent(NamedTuple):
    expression: str
    decision: str  # EXTEND | REUSE | REFINE
    symbol: str  # rendered symbol or "Base&Modifier"
    program_revisions: int  # retroactive rewrites applied so far


class TranslationState(NamedTuple):
    registry: SymbolRegistry
    premises: tuple[Formula, ...] = ()
    query: Formula | None = None
    table: MentalTable = MentalTable()
    trace: tuple[TraceEvent, ...] = ()
    revisions: int = 0
    semantics_mode: str = CLOSED_WORLD

    @staticmethod
    def empty(semantics_mode: str = CLOSED_WORLD) -> "TranslationState":
        return TranslationState(SymbolRegistry(), semantics_mode=semantics_mode)

    def program(self) -> LogicProgram:
        if self.query is None:
            raise TranslationFailure("no query was translated")
        return LogicProgram(self.registry, self.premises, self.query,
                            self.semantics_mode).validate()


def _refine_program(state: TranslationState, compound_name: str, base_name: str,
                    modifier_name: str) -> TranslationState:
    """Retroactively rewrite compound(t) -> modifier(t) & base(t) everywhere."""
    registry = state.registry.copy()
    compound = registry.lookup(compound_name, PREDICATE)
    if compound is None:
        return state  # symbol never reached the program; nothing to rewrite
    base = ensure_predicate(registry, base_name)
    modifier = ensure_predicate(registry, modifier_name)
    program = refine_symbol(
        LogicProgram(registry, state.premises, state.query, state.semantics_mode),
        compound, modifier, base,
    )
    return state._replace(registry=program.registry, premises=program.premises,
                          query=program.query, revisions=state.revisions + 1)


def process_expression(st: TranslationState, e: str,
                       oracle: EquivalenceOracle) -> tuple[TranslationState, SymbolRef]:
    """Route one surface expression through the table; returns the new state
    and the symbol reference the expression should render as."""
    if not e or not e.strip():
        raise TranslationFailure("empty expression")
    norm = normalize_expression(e)

    hit = st.table.entry_for(norm)
    if hit is None:
        for entry in st.table.entries:
            if oracle.equiv(norm, entry.expressions):
                hit = entry
                break
    if hit is not None:
        table, entry = st.table.reuse(norm, hit.entry_id)
        ref = entry.ref()
        trace = st.trace + (TraceEvent(norm, REUSE, ref.render(), st.revisions),)
        return st._replace(table=table, trace=trace), ref

    for entry in st.table.entries:
        found = oracle.conflict(norm, entry.expressions)
        if found is None:
            continue
        atomic, modifier_text = found
        atomic = normalize_expression(atomic)
        out = st
        if atomic == norm:
            # The newcomer is the more atomic concept: its fresh symbol becomes
            # the base, the old compound entry is decomposed, and prior
            # occurrences of the compound are rewritten in the program.
            table, base_entry = out.table.extend(norm)
            out = out._replace(table=table)
            out, modifier_ref = _resolve_modifier(out, modifier_text, oracle)
            table = out.table.decompose(entry.entry_id, base_entry.symbol,
                                        modifier_ref.base)
            out = out._replace(table=table)
            out = _refine_program(out, entry.symbol, base_entry.symbol, modifier_ref.base)
            ref = base_entry.ref()
        else:
            # The newcomer is the compound: render it as entry's atomic base
            # conjoined with the modifier; no prior occurrences exist.
            out, modifier_ref = _resolve_modifier(out, modifier_text, oracle)
            table, new_entry = out.table.add_decomposed(norm, entry.symbol,
                                                        modifier_ref.base)
            out = out._replace(table=table)
            ref = new_entry.ref()
        trace = out.trace + (TraceEvent(norm, REFINE, ref.render(), out.revisions),)
        return out._replace(trace=trace), ref

    table, entry = st.table.extend(norm)
    ref = entry.ref()
    trace = st.trace + (TraceEvent(norm, EXTEND, ref.render(), st.revisions),)
    return st._replace(table=table, trace=trace), ref


def _resolve_modifier(st: TranslationState, modifier_text: str,
                      oracle: EquivalenceOracle) -> tuple[TranslationState, SymbolRef]:
    """The modifier is itself a concept expression: reuse its entry when one
    matches, otherwise create an atomic entry for it."""
    norm = normalize_expression(modifier_text)
    entry = st.table.entry_for(norm)
    if entry is None:
        for candidate in st.table.entries:
            if candidate.decomposition is None and oracle.equiv(norm, candidate.expressions):
                entry = candidate
                break
    if entry is not None:
        table, entry = st.table.reuse(norm, entry.entry_id)
        return st._replace(table=table), entry.ref()
    table, entry = st.table.extend(norm)
    return st._replace(table=table), entry.ref()


# ---------------------------------------------------------------------------
# Skeleton proposals and the driver


@dataclass(frozen=True)
class Proposal:
    """One unit's translation sketch: a formula over Slot0..SlotN predicate
    placeholders plus the surface expression behind each slot.

    `slot_spans` carries the char span of each slot surface in the unit text
    and `anchors` the (span, symbol name) of terms the translator resolved
    itself (constants); both feed the alignment ledger.
    """
    unit: int
    skeleton: str  # canonical-dialect text using SlotK placeholder predicates
    slots: tuple[str, ...]
    is_query: bool = False
    slot_spans: tuple[tuple[int, int], ...] = ()
    anchors: tuple[tuple[int, int, str], ...] = ()


def instantiate(proposal: Proposal, resolved: dict[int, SymbolRef],
                state: TranslationState) -> tuple[TranslationState, Formula]:
    """Replace slot predicates with resolved symbols (or base & modifier
    conjunctions) and merge the formula into the state's registry."""
    scratch = SymbolRegistry()
    try:
        sketch = parse_formula(proposal.skeleton, scratch)
    except Exception as exc:
        raise TranslationFailure(f"unusable skeleton {proposal.skeleton!r}: {exc}") from exc
    registry = state.registry.copy()

    slot_ids = {
        scratch.lookup(f"Slot{k}", PREDICATE): resolved[k]
        for k in range(len(proposal.slots))
    }
    slot_ids.pop(None, None)

    const_map: dict[str, str] = {}

    def migrate_const(symbol: str) -> str:
        if symbol not in const_map:
            name = scratch.name_of(symbol)
            sid = registry.lookup(name, CONSTANT)
            const_map[symbol] = sid if sid is not None else registry.declare(name, 0, CONSTANT)
        return const_map[symbol]

    def rebuild(atom: Atom) -> Formula:
        args = tuple(
            Const(migrate_const(a.symbol)) if isinstance(a, Const) else a
            for a in atom.args
        )
        ref = slot_ids.get(atom.pred)
        if ref is None:
            name = scratch.name_of(atom.pred)
            return Atom(ensure_predicate(registry, name, len(args)), args)
        base = Atom(ensure_predicate(registry, ref.base, len(args)), args)
        if ref.modifier is None:
            return base
        return And(Atom(ensure_predicate(registry, ref.modifier, len(args)), args), base)

    formula = map_atoms(sketch, rebuild)
    return state._replace(registry=registry), formula


def translate_with_mental(problem: Problem, proposals: list[Proposal],
                          oracle: EquivalenceOracle,
                          ) -> tuple[LogicProgram | None, MentalTable, tuple[TraceEvent, ...]]:
    """Build `problem`'s program from its proposals, in proposal order, with
    every slot surface routed through the table; the program is built in the
    world of the problem's task kind.

    An empty proposal list returns (None, empty table, empty trace) rather
    than fabricating a program.
    """
    state = TranslationState.empty(TASK_KINDS[problem.task_kind])
    if not proposals:
        return None, state.table, state.trace
    for proposal in proposals:
        resolved: dict[int, SymbolRef] = {}
        for k, surface in enumerate(proposal.slots):
            state, ref = process_expression(state, surface, oracle)
            resolved[k] = ref
        state, formula = instantiate(proposal, resolved, state)
        if proposal.is_query or proposal.unit == QUESTION_UNIT:
            state = state._replace(query=formula)
        else:
            state = state._replace(premises=state.premises + (formula,))
    state.table.audit()
    return state.program(), state.table, state.trace
