"""Expression routing and the table-guided translation driver.

`process_expression` implements the three-way update: scan entries in
insertion order for an equivalence hit (reuse the symbol), otherwise for a
conflict hit (refine, keeping the more atomic concept), otherwise extend with
a fresh symbol. Without an oracle only an identical normalized surface is a
hit, which is the drift-prone baseline. `translate_with_mental` takes a
problem's per-unit formula skeletons with named predicate slots, however
they were proposed, and routes every slot surface through the table. Only
then does it build the program, once, with each slot rendered from the final
table, so a refinement reaches every unit whether it came before or after the
compound.

States, trace events and table entries are named tuples, and tables are
immutable: an update builds a new state that shares everything it did not
change. `process_expression` normalizes its expression once and hands the
normalized text to every table method it calls.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import TranslationFailure
from ..fol.parser import parse_shape
from ..fol.terms import (
    And,
    Atom,
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
from .table import (
    EXTEND,
    MentalTable,
    REFINE,
    REUSE,
    Rendering,
    SymbolRef,
    normalize_expression,
)


class TraceEvent(NamedTuple):
    expression: str
    decision: str  # EXTEND | REUSE | REFINE
    symbol: str  # the symbol, or "Modifier&Base" of a decomposed entry
    program_revisions: int  # refinements of a symbol earlier units used, so far


class TranslationState(NamedTuple):
    table: MentalTable = MentalTable()
    trace: tuple[TraceEvent, ...] = ()
    revisions: int = 0
    # Symbols the slots of earlier units resolved to, as they resolved:
    # decomposing one of them revises a unit already translated.
    placed: frozenset[str] = frozenset()


def process_expression(st: TranslationState, e: str, oracle: EquivalenceOracle | None,
                       ) -> tuple[TranslationState, SymbolRef]:
    """Route one surface expression through the table; returns the new state
    and the symbol reference the expression resolves to now. The program
    renders from the final table, which later refinements may still change.
    With `oracle` None only the exact normalized surface reuses an entry."""
    if not e or not e.strip():
        raise TranslationFailure("empty expression")
    norm = normalize_expression(e)

    hit = st.table.entry_for(norm)
    if hit is None and oracle is not None:
        for entry in st.table.entries:
            if oracle.equiv(norm, entry.expressions):
                hit = entry
                break
    if hit is not None:
        table, entry = st.table.reuse(norm, hit.entry_id)
        ref = entry.ref()
        trace = st.trace + (TraceEvent(norm, REUSE, ref.render(), st.revisions),)
        return st._replace(table=table, trace=trace), ref

    for entry in st.table.entries if oracle is not None else ():
        found = oracle.conflict(norm, entry.expressions)
        if found is None:
            continue
        atomic, modifier_text = found
        atomic = normalize_expression(atomic)
        out = st
        if atomic == norm:
            # The newcomer is the more atomic concept: its fresh symbol becomes
            # the base and the old compound entry is decomposed, which every
            # occurrence of the compound renders as once the program is built.
            table, base_entry = out.table.extend(norm)
            out = out._replace(table=table)
            out, modifier_ref = _resolve_modifier(out, modifier_text, oracle)
            table = out.table.decompose(entry.entry_id, base_entry.symbol,
                                        modifier_ref.base)
            out = out._replace(table=table)
            if entry.symbol in out.placed:
                out = out._replace(
                    revisions=out.revisions + 1,
                    placed=out.placed - {entry.symbol} | {base_entry.symbol, modifier_ref.base})
            ref = base_entry.ref()
        else:
            # The newcomer is the compound: render it as entry's base
            # conjoined with the modifier.
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


class Proposal(NamedTuple):
    """One unit's translation sketch (`QUESTION_UNIT` is the question's): a
    formula over Slot0..SlotN placeholder predicates and each slot's surface.

    `slot_spans` carries the char span of each slot surface in the unit text
    and `anchors` the (span, symbol name) of terms the translator resolved
    itself (constants); both feed the alignment ledger.
    """
    unit: int
    skeleton: str  # canonical-dialect text using SlotK placeholder predicates
    slots: tuple[str, ...]
    slot_spans: tuple[tuple[int, int], ...] = ()
    anchors: tuple[tuple[int, int, str], ...] = ()


class Skeleton(NamedTuple):
    formula: Formula  # over the symbol ids of `names`
    names: dict[str, str]  # symbol id -> name
    slots: dict[str, int]  # slot predicate id -> slot index


def _parse_skeleton(proposal: Proposal) -> Skeleton:
    try:
        shape = parse_shape(proposal.skeleton)
    except Exception as exc:
        raise TranslationFailure(f"unusable skeleton {proposal.skeleton!r}: {exc}") from exc
    slot_index = {f"Slot{k}": k for k in range(len(proposal.slots))}
    slots = {sid: slot_index[info.name] for sid, info in shape.symbols
             if info.kind == PREDICATE and info.name in slot_index}
    return Skeleton(shape.formula, {sid: info.name for sid, info in shape.symbols}, slots)


def instantiate(skeleton: Skeleton, renderings: list[Rendering],
                registry: SymbolRegistry) -> Formula:
    """The skeleton's formula over `registry`: slot k's predicate replaced by
    `renderings[k]` (a decomposition as the conjunction modifier & base),
    every other symbol by the same-named one, declared on first use. A
    predicate used at another arity than it was declared with raises
    `ArityMismatch` at its atom."""
    names, slots = skeleton.names, skeleton.slots

    def constant(symbol: str) -> Const:
        return Const(registry.declare(names[symbol], 0, CONSTANT))

    def rebuild(atom: Atom) -> Formula:
        args = tuple(constant(a.symbol) if isinstance(a, Const) else a for a in atom.args)
        k = slots.get(atom.pred)
        return _expand(names[atom.pred] if k is None else renderings[k], args, registry)

    return map_atoms(skeleton.formula, rebuild)


def _expand(rendering: Rendering, args: tuple, registry: SymbolRegistry) -> Formula:
    # Module level: a recursive closure would be a reference cycle per call.
    if isinstance(rendering, str):
        return Atom(registry.declare(rendering, len(args), PREDICATE), args)
    modifier, base = rendering
    return And(_expand(modifier, args, registry), _expand(base, args, registry))


def translate_with_mental(problem: Problem, proposals: list[Proposal],
                          oracle: EquivalenceOracle | None,
                          ) -> tuple[LogicProgram, MentalTable, tuple[TraceEvent, ...]]:
    """Build `problem`'s program from its proposals, in the world of the
    problem's task kind. Every slot surface is routed through the table in
    proposal order, each skeleton is parsed once its slots are routed, and
    the program is built from the final table after the last proposal.
    `oracle` None routes by exact normalized surface only, so every distinct
    surface gets its own symbol: the drift-prone baseline.

    Proposals with no query, an empty list among them, raise
    `TranslationFailure` rather than fabricate a program. Each formula is
    type-checked as it is instantiated, so only the world is checked after.
    """
    state = TranslationState()
    units = []
    for proposal in proposals:
        refs, norms = [], []
        for surface in proposal.slots:
            state, ref = process_expression(state, surface, oracle)
            refs.append(ref)
            norms.append(state.trace[-1].expression)  # the surface, normalized
        skeleton = _parse_skeleton(proposal)
        units.append((proposal, skeleton, norms))
        # What this unit's slots resolved to now, base and modifier: a later
        # refinement of one of them revises this unit (`program_revisions`).
        placed = {name for k in skeleton.slots.values() for name in refs[k] if name}
        if not placed <= state.placed:
            state = state._replace(placed=state.placed | placed)
    state.table.audit()
    if all(proposal.unit != QUESTION_UNIT for proposal in proposals):
        raise TranslationFailure("no query was translated")
    renderings = state.table.renderings
    registry = SymbolRegistry()
    premises: list[Formula] = []
    for proposal, skeleton, norms in units:
        formula = instantiate(skeleton, [renderings[norm] for norm in norms], registry)
        if proposal.unit == QUESTION_UNIT:
            query = formula
        else:
            premises.append(formula)
    program = LogicProgram(registry, tuple(premises), query, TASK_KINDS[problem.task_kind])
    return program.check_world(), state.table, state.trace
