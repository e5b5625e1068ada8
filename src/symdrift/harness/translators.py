"""Translator implementations: gold, naive, split-adversary, and LLM-backed.

Every `translate()` returns an unsolved `TranslationRecord`: the program, the
span-to-symbol ledger that `align_symbols` joins with the diversification
provenance, any answer options, and the rendered table and trace of
table-guided translation. A program that arrives as text (the gold logic, an
`llm` program block) is handed over as its checked, canonical texts; one
assembled from parts (table-guided, split-adversary) is handed over built.
`harness.evaluate.solve_one` fills in the rest. A translation that fails
raises, and `harness.evaluate.translate_one` records it; the `llm`
translator records its own, keeping the reply and its tokens.
"""

from __future__ import annotations

import re

from ..diversify.resources import Resources
from ..errors import MissingGold, OracleFailure, TranslationFailure
from ..fol.parser import ProgramTexts, check_program, parse_shape
from ..fol.render import render_texts
from ..fol.terms import LogicProgram, SymbolRegistry, camel_identifier, fresh_name, walk_atoms
from ..mental.oracles import EquivalenceOracle, LexiconOracle, LLMOracle
from ..mental.table import MentalTable, normalize_expression, rendering_symbols
from ..mental.translate import Proposal, Skeleton, instantiate, translate_with_mental
from ..metrics.records import SpanKey, TranslationRecord
from ..problem import DiversifiedProblem, Problem, QUESTION_UNIT, TASK_KINDS
from ..solver.csp import AT_POSITION, CSPSpec, Constraint, NOT_AT_POSITION, Option
from ..world import Form, NAME, PROOFWRITER
from .config import GOLD, LLM, NAIVE, ORACLE_LLM, SPLIT_ADVERSARY, TranslatorConfig
from .prompts import PromptLibrary


def translation_record(problem: Problem, table: MentalTable | None = None,
                       **fields) -> TranslationRecord:
    """The unsolved record of one translation of `problem`; a symbol table
    is stored as its rendered text, and a logic program given without a raw
    output gets its program block as one."""
    record = TranslationRecord(problem_id=problem.id, gold=problem.gold_answer,
                               table_text=table.render_text() if table is not None else "",
                               **fields)
    if "raw_output" not in fields and record.logic is not None:
        record.raw_output = program_block(record.logic)
    return record


# ---------------------------------------------------------------------------
# Template proposal extraction (shared by naive and table-guided translation)

def _reading(form: Form, pattern: re.Pattern) -> tuple[re.Pattern, str, tuple[str, ...]]:
    """A form's text as a reading: its pattern, the form's formula over
    `Slot0..` (`{name}` left for the constant), and the predicate slots."""
    slots = tuple(slot for slot in pattern.groupindex if slot != NAME)
    names = {slot: f"Slot{i}" for i, slot in enumerate(slots)}
    return pattern, form.formula.format(name="{name}", **names), slots


# Question unit or not -> the readings of the forms read there, in table order.
_READINGS = {query: tuple(_reading(form, pattern) for form in PROOFWRITER.forms.values()
                          if form.query == query for pattern in form.patterns)
             for query in (False, True)}


def propose_from_templates(p: Problem) -> list[Proposal]:
    """Per-unit skeletons for the world's sentence forms, `name` anchored as a
    constant; raises TranslationFailure on the first unit no form's text covers."""
    proposals = []
    for unit_index, unit in p.units():
        for pattern, skeleton, slots in _READINGS[unit_index == QUESTION_UNIT]:
            m = pattern.fullmatch(unit.text)
            if m:
                break
        else:
            raise TranslationFailure(f"no template matches unit {unit_index}: {unit.text!r}")
        anchors = ()
        if NAME in pattern.groupindex:
            subject = camel_identifier(m.group(NAME))
            skeleton, anchors = skeleton.format(name=subject), ((*m.span(NAME), subject),)
        proposals.append(Proposal(
            unit=unit_index, skeleton=skeleton, slots=tuple(map(m.group, slots)),
            slot_spans=tuple(map(m.span, slots)), anchors=anchors))
    return proposals


def _ledger(proposals: list[Proposal], table: MentalTable) -> dict[SpanKey, str]:
    """Each slot's symbols as the program renders it, from the same map of
    the final table, joined by `&`; then the translator-resolved anchors."""
    out: dict[SpanKey, str] = {}
    for proposal in proposals:
        for surface, (start, end) in zip(proposal.slots, proposal.slot_spans):
            rendering = table.renderings[normalize_expression(surface)]
            out[(proposal.unit, start, end)] = "&".join(rendering_symbols(rendering))
        for start, end, symbol in proposal.anchors:
            out[(proposal.unit, start, end)] = symbol
    return out


def _table_guided(problem: Problem, proposals: list[Proposal],
                  oracle: EquivalenceOracle | None, **usage) -> TranslationRecord:
    """The record of `problem` translated from `proposals` through the table
    (`oracle` None reproduces the drift-prone baseline). A build that fails,
    on the table, a formula or the world's check, raises."""
    program, table, trace = translate_with_mental(problem, proposals, oracle)
    return translation_record(problem, table, program=program, mental_trace=trace,
                              span_symbols=_ledger(proposals, table), **usage)


class NaiveTranslator:
    """Names every predicate after the literal surface form it sees; no
    cross-surface grouping unless wrapped with table guidance."""

    def __init__(self, oracle: EquivalenceOracle | None = None):
        self.oracle = oracle

    def translate(self, item: DiversifiedProblem) -> TranslationRecord:
        problem = item.problem
        return _table_guided(problem, propose_from_templates(problem), self.oracle)


def _require_gold(problem: Problem) -> ProgramTexts:
    """The problem's gold logic, as its checked texts."""
    if problem.gold_logic is None or problem.gold_concepts is None:
        raise MissingGold(f"problem {problem.id} lacks gold logic or concept spans")
    return problem.gold_logic


def _provenance_ledger(diversified: DiversifiedProblem, concept_symbols: dict[str, str],
                       symbol) -> dict[SpanKey, str]:
    """Each provenance span of a concept the gold program names, mapped to
    `symbol(concept_id, entry)`."""
    out: dict[SpanKey, str] = {}
    for concept_id, entries in diversified.provenance.items():
        if concept_id not in concept_symbols:
            continue
        for e in entries:
            out[(e.unit, e.char_start, e.char_end)] = symbol(concept_id, e)
    return out


class GoldTranslator:
    """Emits the gold logic, rendered canonically and unbuilt, with every
    diversified surface mapped back to its concept symbol through
    provenance; drift-free by construction."""

    def translate(self, item: DiversifiedProblem) -> TranslationRecord:
        problem = item.problem
        gold = _require_gold(problem)
        concept_symbols = _gold_concept_symbols(problem, gold)
        span_symbols = _provenance_ledger(
            item, concept_symbols, lambda concept_id, _entry: concept_symbols[concept_id])
        return translation_record(problem, program=render_texts(gold), span_symbols=span_symbols)


class SplitAdversaryTranslator:
    """Keeps the gold structure but assigns one symbol per distinct surface
    form of each concept: maximal drift with otherwise-correct logic. Each
    gold text's shape is instantiated as a skeleton whose slots are the
    concept predicates its unit mentions, each rendered as its surface's
    symbol."""

    def translate(self, item: DiversifiedProblem) -> TranslationRecord:
        problem = item.problem
        gold = _require_gold(problem)
        if len(gold.premises) != len(problem.sentences):
            raise MissingGold(f"problem {problem.id}: premises are not sentence-aligned")
        concept_symbols = _gold_concept_symbols(problem, gold)
        symbol_names: dict[tuple[str, str], str] = {}
        taken: set[str] = set()

        def per_surface_symbol(concept_id: str, surface: str) -> str:
            key = (concept_id, surface.lower())
            if key not in symbol_names:
                name = fresh_name(camel_identifier(surface), taken)
                taken.add(name)
                symbol_names[key] = name
            return symbol_names[key]

        # concept -> unit -> surface used there (first provenance entry wins)
        surface_at: dict[tuple[str, int], str] = {}
        for concept_id, entries in item.provenance.items():
            for e in entries:
                surface_at.setdefault((concept_id, e.unit), e.surface)

        pred_concepts = {symbol: concept_id for concept_id, symbol in concept_symbols.items()}
        registry = SymbolRegistry()
        formulas = []
        for unit, text in (*enumerate(gold.premises), (QUESTION_UNIT, gold.query)):
            shape = parse_shape(text)
            names = {sid: info.name for sid, info in shape.symbols}
            slots: dict[str, int] = {}
            renderings = []
            for atom in walk_atoms(shape.formula):
                concept_id = pred_concepts.get(names[atom.pred])
                surface = surface_at.get((concept_id, unit))
                if surface and atom.pred not in slots:
                    slots[atom.pred] = len(renderings)
                    renderings.append(per_surface_symbol(concept_id, surface))
            formulas.append(instantiate(Skeleton(shape.formula, names, slots), renderings, registry))
        *premises, query = formulas
        program = LogicProgram(registry, tuple(premises), query,
                               gold.semantics_mode).check_world()
        span_symbols = _provenance_ledger(
            item, concept_symbols,
            lambda concept_id, e: per_surface_symbol(concept_id, surface_at[(concept_id, e.unit)]))
        return translation_record(problem, program=program, span_symbols=span_symbols)


def _gold_concept_symbols(problem: Problem, gold: ProgramTexts) -> dict[str, str]:
    """Concept id -> gold symbol name, for concepts whose camel-cased name a
    gold text's shape declares (predicate or constant)."""
    declared = {info.name for text in (*gold.premises, gold.query)
                for _, info in parse_shape(text).symbols}
    out: dict[str, str] = {}
    for concept_id in set(problem.gold_concepts.values()):
        name = camel_identifier(concept_id)
        if name in declared:
            out[concept_id] = name
    return out


def program_block(logic: ProgramTexts) -> str:
    """The fenced `premise:`/`query:` block of a record's logic texts."""
    return "\n".join(["```", *(f"premise: {p}" for p in logic.premises),
                      f"query: {logic.query}", "```"])


# ---------------------------------------------------------------------------
# Fenced-block readers of the LLM translator

_FENCE = re.compile(r"```(?:\w*\n)?(.*?)```", re.DOTALL)


def _reply_lines(text: str, block: str | None) -> list[str]:
    """The stripped, non-empty lines of the reply's first fenced block. A
    reply with no fence fails, naming the `block` it lacks; with `block`
    None it is read whole instead."""
    m = _FENCE.search(text)
    if m:
        text = m.group(1)
    elif block is not None:
        raise TranslationFailure(f"reply contains no fenced {block} block")
    return [line for raw in text.splitlines() if (line := raw.strip())]


def extract_program_block(text: str, semantics_mode: str) -> ProgramTexts:
    """The checked texts of the first fenced block of `premise:`/`query:`
    lines, rendered canonically; the last `query:` line is the query."""
    premises: list[str] = []
    query: str | None = None
    for line in _reply_lines(text, "program"):
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key == "premise":
            premises.append(rest)
        elif key == "query":
            query = rest
        else:
            raise TranslationFailure(f"unexpected line in program block: {line!r}")
    if query is None:
        raise TranslationFailure("program block has no query line")
    return render_texts(check_program(premises, query, semantics_mode))


# Every kind takes two arguments; a positional kind's second is an integer.
_CSP_CONSTRAINT = re.compile(r"^(\w+)\(([^,)]*),([^,)]*)\)$")
_POSITION = re.compile(r"\s*-?\d+\s*\Z")


def extract_csp_block(text: str) -> tuple[CSPSpec, list[Option]]:
    """Parse a fenced block of `objects:` / `constraint:` / `option k:` lines."""
    objects: list[str] = []
    constraints: list[Constraint] = []
    options: list[Option] = []
    for line in _reply_lines(text, "constraint"):
        key, _, rest = line.partition(":")
        key, rest = key.strip().lower(), rest.strip()
        if key == "objects":
            objects = [o.strip() for o in rest.split(",") if o.strip()]
        elif key == "constraint":
            cm = _CSP_CONSTRAINT.match(rest)
            positional = cm is not None and cm.group(1) in (AT_POSITION, NOT_AT_POSITION)
            if not cm or positional and not _POSITION.match(cm.group(3)):
                raise TranslationFailure(f"bad constraint line: {line!r}")
            first, second = cm.group(2).strip(), cm.group(3).strip()
            constraints.append(Constraint(cm.group(1),
                                          (first, int(second) if positional else second)))
        elif key.startswith("option"):
            om = re.match(r"^(\w+) at (\d+)$", rest)
            if not om:
                raise TranslationFailure(f"bad option line: {line!r}")
            options.append(Option(om.group(1), int(om.group(2))))
        else:
            raise TranslationFailure(f"unexpected line in constraint block: {line!r}")
    if not objects:
        raise TranslationFailure("constraint block declares no objects")
    return CSPSpec(objects, constraints), options


class LLMTranslator:
    """Few-shot prompted translation through a chat client.

    Replies must carry a fenced program (or constraint) block; with table
    guidance enabled the reply instead lists per-unit skeletons and surfaces,
    which are routed through the table exactly like the offline translators.
    """

    def __init__(self, cfg: TranslatorConfig, client, prompts: "PromptLibrary",
                 oracle: EquivalenceOracle | None = None):
        self.cfg = cfg
        self.client = client
        self.prompts = prompts
        self.oracle = oracle

    def translate(self, item: DiversifiedProblem) -> TranslationRecord:
        problem = item.problem
        prompt = self.prompts.render_translation(problem, self.cfg)
        reply = self.client.complete(prompt, temperature=self.cfg.temperature)
        usage = dict(raw_output=reply.text, tokens_in=reply.tokens_in,
                     tokens_out=reply.tokens_out)
        try:
            if self.cfg.mental:
                return _table_guided(problem, parse_proposal_lines(reply.text),
                                     self.oracle, **usage)
            if problem.task_kind == "deduction":
                spec, options = extract_csp_block(reply.text)
                return translation_record(problem, program=spec, options=options, **usage)
            program = extract_program_block(reply.text, TASK_KINDS[problem.task_kind])
            return translation_record(problem, program=program, **usage)
        except OracleFailure:
            raise
        except Exception as exc:  # any garbled reply; recorded here to keep `usage`
            return translation_record(problem, parse_error=str(exc), **usage)


_PROPOSAL_LINE = re.compile(
    r"^(?:unit (?P<unit>-?\d+)|(?P<query>query)): (?P<skeleton>[^|]+)(?P<slots>(\|[^|]*)*)$"
)


def parse_proposal_lines(text: str) -> list[Proposal]:
    """Proposal format for table-guided replies, one unit per line:

        unit 0: Slot0(Anne) | benevolent
        query: Slot0(Anne) | smart
    """
    proposals = []
    for line in _reply_lines(text, None):
        pm = _PROPOSAL_LINE.match(line)
        if not pm:
            raise TranslationFailure(f"bad proposal line: {line!r}")
        slots = tuple(s.strip() for s in pm.group("slots").split("|")[1:] if s.strip())
        # No char spans are known for model-proposed surfaces; the ledger
        # stays empty, so they become alignment misses and the run's SDS
        # reads `n/a`.
        proposals.append(Proposal(
            unit=QUESTION_UNIT if pm.group("query") else int(pm.group("unit")),
            skeleton=pm.group("skeleton").strip(),
            slots=slots,
        ))
    if not proposals:
        raise TranslationFailure("reply contains no proposal lines")
    return proposals


def make_translator(cfg: TranslatorConfig, resources: Resources, client=None):
    """Build the configured translator; LLM kinds need a client, and the
    lexicon oracle reads the run's `resources`. Prompts are loaded only for
    what renders them: the `llm` translator and oracle."""
    if cfg.kind == GOLD:
        return GoldTranslator()
    if cfg.kind == SPLIT_ADVERSARY:
        return SplitAdversaryTranslator()
    llm_oracle = cfg.mental and cfg.oracle == ORACLE_LLM
    prompts = PromptLibrary.load(cfg.prompt_dir) if cfg.kind == LLM or llm_oracle else None
    oracle = None
    if llm_oracle:
        if client is None:
            raise ValueError("llm oracle requires a client")
        oracle = LLMOracle(client, cfg.temperature, *prompts.oracle_templates())
    elif cfg.mental:
        oracle = LexiconOracle(resources.synonyms)
    if cfg.kind == NAIVE:
        return NaiveTranslator(oracle=oracle)
    if client is None:  # the `llm` kind, the one `TranslatorConfig` leaves
        raise ValueError("llm translator requires a client")
    return LLMTranslator(cfg, client, prompts, oracle=oracle)
