"""Keyed oracle bags, tuple states and the one-check, one-rendering record
path against the reference implementations: the same oracle answers, tables, traces,
refs and programs, and the same whole records."""

from __future__ import annotations

import json
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.errors import FormatError, TranslationFailure
from symdrift.fol.parser import build_program
from symdrift.fol.render import render_formula, render_program
from symdrift.fol.terms import LogicProgram, walk_atoms
from symdrift.harness.client import Completion
from symdrift.harness.config import SyntheticConfig, TranslatorConfig
from symdrift.harness.datasets import load_dataset, texts_from_json
from symdrift.harness.evaluate import evaluate_one, normalize_items, solve_one
from symdrift.harness.prompts import PromptLibrary
from symdrift.harness.serialize import record_to_json
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import (
    LLMTranslator,
    NaiveTranslator,
    _ledger,
    program_block,
    propose_from_templates,
)
from symdrift.mental import translate as mental_translate
from symdrift.mental.oracles import LexiconOracle
from symdrift.mental.table import REFINE, normalize_expression
from symdrift.mental.translate import Proposal, process_expression, translate_with_mental
from symdrift.metrics.records import TranslationRecord
from symdrift.problem import QUESTION_UNIT

from .helpers import (
    ReferenceExactMatchOracle,
    ReferenceLexiconOracle,
    StubClient,
    reference_evaluate_json,
    reference_program_from_json,
    reference_translate_with_mental,
)
from .test_parse_memo import formula_texts


# Hypothesis strategies are built at import time, before any fixture.
_RESOURCES = Resources.load()


@pytest.fixture(scope="module")
def resources() -> Resources:
    return _RESOURCES


@pytest.fixture(scope="module")
def oracles(resources):
    return (LexiconOracle(resources.synonyms),
            ReferenceLexiconOracle(resources.synonyms))


def _words(resources, pos: tuple[str, ...]) -> list[str]:
    out = []
    for lemma, tag in resources.synonyms.entries():
        if tag in pos:
            out += [lemma, *resources.synonyms.synonyms(lemma, tag)]
    return out


def make_expression(rng: random.Random, bases: list[str], modifiers: list[str]) -> str:
    """A base lemma with zero to two modifiers, in any case and spacing."""
    words = [rng.choice(modifiers) for _ in range(rng.choice((0, 0, 1, 1, 2)))]
    words.append(rng.choice(bases))
    words = [w.upper() if rng.random() < 0.15 else w.capitalize() if rng.random() < 0.15
             else w for w in words]
    gap = rng.choice((" ", " ", "  ", "\t"))
    return rng.choice(("", " ")) + gap.join(words) + rng.choice(("", "  "))


def make_proposals(rng: random.Random, resources) -> list[Proposal]:
    """Facts and rules over a few bases and modifiers, ending in a query, so
    that compounds often meet their atoms in both orders."""
    # "the" has no content lemma: only an exact match can group it.
    bases = rng.sample(_words(resources, ("ADJ", "NOUN")), 3) + ["show", "the"]
    modifiers = rng.sample(_words(resources, ("ADJ",)), 2) + ["popular", "the"]
    proposals = []
    for unit in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            proposals.append(Proposal(unit, "Slot0(Anne)",
                                      (make_expression(rng, bases, modifiers),),
                                      slot_spans=((0, 1),)))
        else:
            proposals.append(Proposal(unit, "all x (Slot0(x) -> Slot1(x))", tuple(
                make_expression(rng, bases, modifiers) for _ in range(2)),
                slot_spans=((0, 1), (1, 2))))
    proposals.append(Proposal(QUESTION_UNIT, "~Slot0(Anne)",
                              (make_expression(rng, bases, modifiers),),
                              slot_spans=((0, 1),)))
    return proposals


def _outcome(step):
    try:
        return step(), None
    except Exception as exc:  # both implementations must fail alike
        return None, (type(exc).__name__, str(exc))


class RecordingOracle:
    """Passes every question on and records it with its arguments."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.calls: list[tuple] = []

    def equiv(self, e, expressions):
        self.calls.append(("equiv", e, expressions))
        return self.oracle.equiv(e, expressions)

    def conflict(self, e, expressions):
        self.calls.append(("conflict", e, expressions))
        return self.oracle.conflict(e, expressions)


# Open world, so that a refined fact is still a valid premise.
_PROBLEM = generate_synthetic(SyntheticConfig(n_problems=1, seed=1))[0]._replace(
    task_kind="folio")


def _expansion(table, surface: str) -> list[str] | None:
    """The symbols `surface` expands to in `table`, modifiers first, with
    decomposition parts expanded in turn; None when a part is no entry's."""
    by_symbol = {entry.symbol: entry for entry in table.entries}

    def leaves(entry):
        if entry is None:
            return None
        if entry.decomposition is None:
            return [entry.symbol]
        base, modifier = (leaves(by_symbol.get(part)) for part in entry.decomposition)
        return None if base is None or modifier is None else modifier + base

    return leaves(table.entry_for(normalize_expression(surface)))


def _slot_atoms_match(program: LogicProgram, proposals: list[Proposal], symbols_of) -> bool:
    """Whether each unit's atoms name, left to right, the symbols
    `symbols_of(proposal, k)` gives its slots (every skeleton of
    `make_proposals` holds Slot0, Slot1, ... once each, in order)."""
    premises = iter(program.premises)
    for proposal in proposals:
        formula = program.query if proposal.unit == QUESTION_UNIT else next(premises)
        expected = [name for k in range(len(proposal.slots))
                    for name in (symbols_of(proposal, k) or [None])]
        if [program.registry.name_of(a.pred) for a in walk_atoms(formula)] != expected:
            return False
    return True


def drive_both(proposals: list[Proposal], oracles, tally: Counter | None = None) -> list[str]:
    """Translate `proposals` with both implementations and compare every routing
    step (tables, traces, refs), the oracle questions asked, and the outcome;
    returns the decisions taken."""
    oracle, reference_oracle = (RecordingOracle(o) for o in oracles)
    steps, ref_steps = [], []

    def recorded(state, e, oracle_):
        steps.append(process_expression(state, e, oracle_))
        return steps[-1]

    with mock.patch.object(mental_translate, "process_expression", recorded):
        new, error = _outcome(lambda: translate_with_mental(_PROBLEM, proposals, oracle))
    old, ref_error = _outcome(lambda: reference_translate_with_mental(
        _PROBLEM, proposals, reference_oracle, ref_steps))
    assert oracle.calls == reference_oracle.calls
    assert len(steps) == len(ref_steps)
    for (state, ref), (ref_state, old_ref) in zip(steps, ref_steps):
        assert (ref.base, ref.modifier) == (old_ref.base, old_ref.modifier)
        assert [tuple(e) for e in state.table.entries] == [
            (e.entry_id, e.expressions, e.symbol, e.decomposition)
            for e in ref_state.table.entries]
        assert [tuple(t) for t in state.trace] == [
            (t.expression, t.decision, t.symbol, t.program_revisions)
            for t in ref_state.trace]
    decisions = [state.trace[-1].decision for state, _ in steps]
    if error is not None or ref_error is not None:
        assert error == ref_error
        if tally is not None:
            tally["error"] += 1
        return decisions
    (program, table, _), (ref_program, ref_table, _) = new, old
    ledger = _ledger(proposals, table)
    assert _slot_atoms_match(program, proposals, lambda p, k: ledger[
        (p.unit, *p.slot_spans[k])].split("&"))
    assert all(ledger[(p.unit, *span)] == "&".join(_expansion(table, surface))
               for p in proposals for surface, span in zip(p.slots, p.slot_spans))
    if _slot_atoms_match(ref_program, proposals,
                         lambda p, k: _expansion(ref_table, p.slots[k])):
        assert render_program(program) == render_program(ref_program)
        if tally is not None:
            tally["equal"] += 1
    elif tally is not None:
        tally["stale"] += 1
    return decisions


@st.composite
def expression_queries(draw, resources_):
    rng = draw(st.randoms(use_true_random=False))
    bases = _words(resources_, ("ADJ", "NOUN", "PROPN"))
    modifiers = _words(resources_, ("ADJ",)) + ["popular", "the"]
    e = make_expression(rng, bases, modifiers)
    entry = tuple(normalize_expression(make_expression(rng, bases, modifiers))
                  for _ in range(rng.randint(1, 3)))
    return e, entry


@settings(max_examples=300, deadline=None)
@given(expression_queries(_RESOURCES))
@example(("popular show", ("show",)))
@example(("show", ("the popular show", "popular show")))
@example(("the", ("the",)))
def test_oracle_answers_equal_the_reference(oracles, query):
    e, entry = query
    oracle, reference = oracles
    norm = normalize_expression(e)
    assert oracle.equiv(norm, entry) == reference.equiv(norm, entry)
    assert oracle.conflict(norm, entry) == reference.conflict(norm, entry)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_routing_matches_reference(oracles, rng):
    drive_both(make_proposals(rng, _RESOURCES), oracles)


def test_routing_matches_reference_through_refinement(oracles, resources):
    """Traced benchmark runs take no REFINE decision, so this drives both
    directions of refinement on purpose: a compound after its atom and an atom
    after its compound, across seeded sequences. Where a slot resolved before
    its own proposal refined it, the reference's program names a symbol its
    table decomposed; only there may the programs differ."""
    fixed = [
        [Proposal(0, "Slot0(Anne)", ("Popular  Show",), slot_spans=((0, 1),)),
         Proposal(QUESTION_UNIT, "Slot0(Anne)", ("show",),
                  slot_spans=((0, 1),))],
        [Proposal(0, "Slot0(Anne)", ("show",), slot_spans=((0, 1),)),
         Proposal(QUESTION_UNIT, "Slot0(Anne)", (" popular SHOW",),
                  slot_spans=((0, 1),))],
    ]
    decisions = []
    for proposals in fixed:
        decisions += drive_both(proposals, oracles)
    assert decisions.count(REFINE) == 2
    tally = Counter()
    for seed in range(300):
        decisions += drive_both(make_proposals(random.Random(seed), resources), oracles, tally)
    assert decisions.count(REFINE) > 20
    assert tally["equal"] > 200 and tally["stale"] > 0


def test_bad_skeleton_raises_before_later_slots_reach_the_oracle(oracles, resources):
    """A skeleton that does not parse fails the translation as soon as its own
    slots are routed, as the reference does: the oracle is asked exactly what
    routing the proposals up to the broken one asks."""
    for seed in range(40):
        rng = random.Random(seed)
        proposals = make_proposals(rng, resources)
        at = rng.randrange(len(proposals) - 1)
        broken = proposals[:at] + [proposals[at]._replace(skeleton="all x (Slot0(x) &")]
        broken += proposals[at + 1:]
        drive_both(broken, oracles)
        failing, routed = RecordingOracle(oracles[0]), RecordingOracle(oracles[0])
        with pytest.raises(TranslationFailure, match="unusable skeleton"):
            translate_with_mental(_PROBLEM, broken, failing)
        with pytest.raises(TranslationFailure, match="no query was translated"):
            translate_with_mental(_PROBLEM, proposals[:at + 1], routed)
        assert failing.calls == routed.calls


@pytest.fixture(scope="module")
def diversified_seed7(resources):
    problems = generate_synthetic(SyntheticConfig(n_problems=60, seed=7))
    return normalize_items(
        [diversify_problem(p, DiversifyConfig(resources=resources)) for p in problems],
        resources)


def _proposals_or_none(item):
    try:
        return propose_from_templates(item.problem)
    except TranslationFailure:
        return None


@pytest.mark.parametrize("mental", [True, False])
def test_naive_records_equal_the_reference(diversified_seed7, resources, mental):
    oracle = LexiconOracle(resources.synonyms) if mental else None
    reference_oracle = (ReferenceLexiconOracle(resources.synonyms)
                        if mental else ReferenceExactMatchOracle())
    translator = NaiveTranslator(oracle=oracle)
    for item in diversified_seed7:
        record = evaluate_one(item, translator, "auto")
        assert record_to_json(record) == reference_evaluate_json(
            item, _proposals_or_none(item), reference_oracle)


def _proposal_reply(proposals: list[Proposal]) -> str:
    lines = []
    for p in proposals:
        head = "query" if p.unit == QUESTION_UNIT else f"unit {p.unit}"
        lines.append(f"{head}: {p.skeleton} | " + " | ".join(p.slots))
    return "```\n" + "\n".join(lines) + "\n```"


def test_llm_mental_records_equal_the_reference(diversified_seed7, resources):
    from symdrift.harness.translators import parse_proposal_lines

    items = [i for i in diversified_seed7 if _proposals_or_none(i) is not None]
    replies = [Completion(_proposal_reply(propose_from_templates(i.problem)), 11, 5)
               for i in items]
    cfg = TranslatorConfig(kind="llm", mental=True)
    translator = LLMTranslator(cfg, StubClient(replies=list(replies)), PromptLibrary.load(),
                               oracle=LexiconOracle(resources.synonyms))
    reference_oracle = ReferenceLexiconOracle(resources.synonyms)
    for item, reply in zip(items, replies):
        record = evaluate_one(item, translator, "auto")
        expected = reference_evaluate_json(
            item, parse_proposal_lines(reply.text), reference_oracle,
            raw_output=reply.text, tokens=(11, 5))
        assert record_to_json(record) == expected
        # The traces writer's program block comes from the same rendering.
        premises = expected["program"]["logic"]["premises"]
        query = expected["program"]["logic"]["query"]
        assert program_block(record.logic) == "\n".join(
            ["```", *(f"premise: {p}" for p in premises), f"query: {query}", "```"])


def test_cwa_rechecks_the_horn_form_of_an_open_world_program(resources):
    """A program built for the open world may hold a premise the closed-world
    engine cannot read; solving it with `cwa` is an execution error."""
    from symdrift.harness.translators import extract_program_block

    [item] = normalize_items(generate_synthetic(SyntheticConfig(n_problems=1, seed=3)),
                             resources)
    program = extract_program_block(
        "```\npremise: Kind(Anne) | Tall(Anne)\nquery: Kind(Anne)\n```", "open_world")
    record = TranslationRecord(problem_id=item.problem.id, gold=item.problem.gold_answer,
                               program=program)
    solve_one(record, item, "cwa")
    assert record.verdict is None
    assert record.exec_error.startswith("NotHorn: premise is not a fact or Horn implication")
    solve_one(record, item, "resolution")
    assert record.exec_error is None and record.verdict is not None


# ---------------------------------------------------------------------------
# The load path checks closure and the Horn form once, after the parse.

# Case -> (gold logic, whether loading it fails). The parser reads an
# argument no quantifier binds as a constant, so the text of a free variable
# loads as a constant, on both paths.
GOLD_CASES = {
    "syntax error": ({"premises": ["Kind(Anne"], "query": "Kind(Anne)"}, True),
    "arity clash": ({"premises": ["Kind(Anne)", "Kind(Anne, Bob)"], "query": "Kind(Anne)"},
                    True),
    "predicate used as a constant": ({"premises": ["Kind(Tall)", "Tall(Anne)"],
                                      "query": "Kind(Anne)"}, False),
    "free variable": ({"premises": ["Kind(x)"], "query": "all y Kind(x)"}, False),
    "non-Horn closed-world premise": ({"premises": ["Kind(Anne) | Tall(Anne)"],
                                       "query": "Kind(Anne)", "mode": "closed_world"}, True),
    "non-Horn open-world premise": ({"premises": ["Kind(Anne) | Tall(Anne)"],
                                     "query": "Kind(Anne)", "mode": "open_world"}, False),
    "nesting past the recursion limit": ({"premises": ["(" * 3000 + "Kind(Anne)" + ")" * 3000],
                                          "query": "Kind(Anne)"}, True),
}


@pytest.mark.parametrize("case", sorted(GOLD_CASES))
def test_gold_logic_loads_as_the_reference_does(case, tmp_path):
    gold_logic, fails = GOLD_CASES[case]
    row = {"id": "g", "sentences": ["Anne is kind."], "question": "Is Anne kind?",
           "answer": "true", "task_kind": "proofwriter", "gold_logic": gold_logic}
    path = tmp_path / "problems.jsonl"
    path.write_text("\n\n" + json.dumps(row) + "\n")
    loaded, error = _outcome(lambda: load_dataset(path))
    problem = loaded[0] if loaded else None
    reference, reference_error = _outcome(lambda: reference_program_from_json(gold_logic))
    assert (error is not None) == fails
    if fails:
        assert error == ("FormatError",
                         str(FormatError(f"bad gold_logic: {reference_error[1]}", line=3)))
    else:
        assert reference_error is None
        _same_program(build_program(problem.gold_logic), reference)


def _same_program(a, b) -> None:
    assert (a.premises, a.query, a.semantics_mode) == (b.premises, b.query, b.semantics_mode)
    assert [(s, a.registry.info(s)) for s in a.registry.symbols()] == \
        [(s, b.registry.info(s)) for s in b.registry.symbols()]


@settings(max_examples=300, deadline=None)
@given(st.lists(formula_texts(), min_size=0, max_size=4), formula_texts(),
       st.sampled_from(("open_world", "closed_world")))
def test_program_from_json_matches_the_reference(premises, query, mode):
    data = {"premises": premises, "query": query, "mode": mode}
    new, new_error = _outcome(lambda: build_program(texts_from_json(data, "logic")))
    old, old_error = _outcome(lambda: reference_program_from_json(data))
    assert new_error == (old_error and ("FormatError", f"bad logic: {old_error[1]}"))
    if new is not None:
        _same_program(new, old)


def test_generated_gold_programs_load_as_the_reference_does():
    for problem in generate_synthetic(SyntheticConfig(n_problems=40, seed=7)):
        gold = build_program(problem.gold_logic)
        data = json.loads(json.dumps({
            "premises": [render_formula(f, gold.registry) for f in gold.premises],
            "query": render_formula(gold.query, gold.registry),
            "mode": gold.semantics_mode,
        }))
        _same_program(build_program(texts_from_json(data, "logic")),
                      reference_program_from_json(data))
