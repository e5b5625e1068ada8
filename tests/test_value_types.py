"""The immutable value types are named tuples that behave as the frozen
dataclasses they replaced did: formula nodes compare and hash by class as
well as by fields, every `repr` reads as before (error texts embed it), and
positional and keyword construction both work. The classes that were
dataclasses keep their checks' texts, their fresh list and dict defaults and
their refusal of assignment."""

from __future__ import annotations

import itertools
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symdrift.mental.table as table_module
from symdrift.diversify.pipeline import AssemblyResult, DiversifyConfig, parse_intensity
from symdrift.diversify.resources import ParaphraseTable, Resources, SynonymLexicon
from symdrift.fol.cnf import Literal
from symdrift.fol.parser import _Tok
from symdrift.fol.terms import (
    And,
    Atom,
    Const,
    Exists,
    ForAll,
    Iff,
    Implies,
    LogicProgram,
    Not,
    Or,
    SymbolInfo,
    SymbolRegistry,
    Var,
    walk_atoms,
)
from symdrift.harness.client import Completion
from symdrift.harness.config import CONFIG_DEFAULTS, SyntheticConfig, TranslatorConfig
from symdrift.harness.evaluate import SweepPoint
from symdrift.mental.table import MentalTable
from symdrift.mental.translate import Proposal
from symdrift.metrics.records import TranslationRecord
from symdrift.metrics.sds import SdsResult
from symdrift.problem import (
    ConceptEntry,
    ConceptOccurrence,
    Problem,
    ProvenanceEntry,
    TextUnit,
    Variant,
)
from symdrift.solver.csp import Constraint, CSPSpec, Option
from symdrift.solver.verdict import Verdict
from symdrift.textproc import Token

ATOM = Atom("p0", (Const("c0"), Var("x")))
ATOM_TEXT = "Atom(pred='p0', args=(Const(symbol='c0'), Var(name='x')))"

# Formula-node classes by field count; any two of one count built from the
# same field values must stay apart.
NODES_BY_ARITY = {1: (Var, Const, Not), 2: (Atom, And, Or, Implies, Iff, ForAll, Exists)}
SAME_FIELDS = {1: ("c0",), 2: ("x", ATOM)}

NODE_PAIRS = [(a, b) for arity, classes in NODES_BY_ARITY.items()
              for a, b in itertools.combinations(classes, 2)]


@pytest.mark.parametrize("first, second", NODE_PAIRS,
                         ids=[f"{a.__name__}-{b.__name__}" for a, b in NODE_PAIRS])
def test_nodes_of_different_classes_with_equal_fields_stay_apart(first, second):
    fields = SAME_FIELDS[len(first._fields)]
    a, b = first(*fields), second(*fields)
    assert a != b and b != a
    assert not (a == b) and not (b == a)
    assert len({a, b}) == 2
    assert {a: 1, b: 2}[a] == 1
    assert a == first(*fields) and hash(a) == hash(first(*fields))
    assert not (a != first(*fields))


@pytest.mark.parametrize("node", [Var("c0"), Const("c0"), ATOM, Not(ATOM), And(ATOM, ATOM),
                                  ForAll("x", ATOM)], ids=repr)
def test_a_node_is_not_the_plain_tuple_of_its_fields(node):
    plain = tuple(node)
    assert node != plain and plain != node
    assert not (node == plain) and not (plain == node)


def test_literals_over_a_variable_and_a_constant_differ():
    var, const = Literal(True, "p0", (Var("c0"),)), Literal(True, "p0", (Const("c0"),))
    assert var != const and len({var, const}) == 2
    assert var.negate() != var and var.negate().negate() == var


def test_nodes_survive_pickling_with_their_class():
    for node in (Var("c0"), Const("c0"), ForAll("x", ATOM), Exists("x", ATOM)):
        copy = pickle.loads(pickle.dumps(node))
        assert copy == node and type(copy) is type(node) and hash(copy) == hash(node)


REPRS = [
    (Var("x"), "Var(name='x')"),
    (Const("c0"), "Const(symbol='c0')"),
    (ATOM, ATOM_TEXT),
    (Atom("p1"), "Atom(pred='p1', args=())"),
    (Not(ATOM), f"Not(body={ATOM_TEXT})"),
    (And(ATOM, ATOM), f"And(left={ATOM_TEXT}, right={ATOM_TEXT})"),
    (Or(ATOM, Not(ATOM)), f"Or(left={ATOM_TEXT}, right=Not(body={ATOM_TEXT}))"),
    (Implies(ATOM, ATOM), f"Implies(left={ATOM_TEXT}, right={ATOM_TEXT})"),
    (Iff(ATOM, ATOM), f"Iff(left={ATOM_TEXT}, right={ATOM_TEXT})"),
    (ForAll("x", ATOM), f"ForAll(var='x', body={ATOM_TEXT})"),
    (Exists("x", ATOM), f"Exists(var='x', body={ATOM_TEXT})"),
    (SymbolInfo("Kind", 1, "predicate"), "SymbolInfo(name='Kind', arity=1, kind='predicate')"),
    (_Tok("->", 3), "_Tok(text='->', pos=3)"),
    (TextUnit("Anne"), "TextUnit(text='Anne')"),
    (Token("Anne", "anne", "PROPN", 0, 4),
     "Token(surface='Anne', lemma='anne', pos='PROPN', start=0, end=4)"),
    (ConceptEntry(("kind",), ("ADJ",), (ConceptOccurrence(0, 2, 3, 9, 13, "kind"),)),
     "ConceptEntry(lemmas=('kind',), pos=('ADJ',), occurrences=(ConceptOccurrence(unit=0, "
     "tok_start=2, tok_end=3, char_start=9, char_end=13, surface='kind'),))"),
    (Variant("nice", "word"), "Variant(text='nice', level='word')"),
    (ProvenanceEntry(-1, 0, 4, "Anne"),
     "ProvenanceEntry(unit=-1, char_start=0, char_end=4, surface='Anne')"),
    (Proposal(0, "Slot0(Anne)", ("kind",)),
     "Proposal(unit=0, skeleton='Slot0(Anne)', slots=('kind',), slot_spans=(), anchors=())"),
    (Completion("hi"), "Completion(text='hi', tokens_in=0, tokens_out=0)"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v, _ in REPRS])
def test_repr_reads_as_the_dataclass_printed(value, text):
    assert repr(value) == text


def test_error_texts_embed_the_repr():
    with pytest.raises(TypeError, match=re.escape("not a formula: Var(name='x')")):
        list(walk_atoms(Var("x")))


def test_positional_and_keyword_construction_agree():
    assert Atom("p0", (Var("x"),)) == Atom(pred="p0", args=(Var(name="x"),))
    assert ForAll("x", ATOM) == ForAll(var="x", body=ATOM)
    assert Atom("p1") == Atom(pred="p1", args=())
    assert Proposal(1, "Slot0(x)", ("nice",), ((0, 4),)) == \
        Proposal(unit=1, skeleton="Slot0(x)", slots=("nice",), slot_spans=((0, 4),))
    assert Completion("hi", 3, 4) == Completion(text="hi", tokens_in=3, tokens_out=4)
    assert ProvenanceEntry(0, 1, 2, "a") == ProvenanceEntry(surface="a", char_end=2,
                                                            char_start=1, unit=0)


def test_values_are_immutable():
    for value, _ in REPRS:
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)


# ---------------------------------------------------------------------------
# The value types that were dataclasses: named tuples where the value is
# immutable, slotted classes where it is a record the run fills in.

# Empty lexicons, for configs whose checks read none.
NO_LEXICONS = Resources(SynonymLexicon(), ParaphraseTable({}))

CHECKS = [
    (lambda: Verdict("option"), "option verdicts carry an option index"),
    (lambda: Verdict(value="proved", limit_hit=True),
     "a hit step limit always yields an unknown verdict"),
    (lambda: TranslatorConfig(kind="bogus"), "unknown translator kind 'bogus'"),
    (lambda: TranslatorConfig("naive", None, -1), "shots must be >= 0"),
    (lambda: TranslatorConfig(temperature=2.5), "temperature must be in [0, 2]"),
    (lambda: TranslatorConfig(oracle="bogus"), "unknown oracle 'bogus'"),
    (lambda: SyntheticConfig(n_predicates=0), "all counts must be positive"),
    (lambda: SyntheticConfig(50, 6), "depth must be within 1..5"),
    (lambda: SyntheticConfig(rule_branching=-1), "rule_branching must be >= 0"),
    (lambda: SyntheticConfig(negation_rate=1.5), "negation_rate must be a fraction"),
    (lambda: DiversifyConfig(NO_LEXICONS, theta=1.5), "theta must be in (0, 1], got 1.5"),
    (lambda: DiversifyConfig(NO_LEXICONS, 0.0), "theta must be in (0, 1], got 0.0"),
    (lambda: DiversifyConfig(NO_LEXICONS, intensity=-1),
     "intensity must be a sentence count or a fraction in [0, 1], got -1"),
    (lambda: DiversifyConfig(NO_LEXICONS, intensity=1.5),
     "intensity must be a sentence count or a fraction in [0, 1], got 1.5"),
    (lambda: DiversifyConfig(NO_LEXICONS, intensity=True),
     "intensity must be a sentence count or a fraction in [0, 1], got True"),
    (lambda: DiversifyConfig(NO_LEXICONS, scorer="bogus"), "unknown scorer 'bogus'"),
    (lambda: TranslationRecord("p0", "true"), "exactly one of program / parse_error must be set"),
    (lambda: TranslationRecord("p0", "true", parse_error="bad", program=CSPSpec(["A"])),
     "exactly one of program / parse_error must be set"),
    (lambda: TranslationRecord(problem_id="p0", gold="true", parse_error="bad", predicted="true"),
     "a prediction requires a verdict"),
]


@pytest.mark.parametrize("build, text", CHECKS, ids=[
    "verdict-option", "verdict-limit", "translator-kind", "translator-shots",
    "translator-temperature", "translator-oracle", "synthetic-counts", "synthetic-depth",
    "synthetic-branching", "synthetic-negation", "diversify-theta-high", "diversify-theta-zero",
    "diversify-intensity-negative", "diversify-intensity-fraction-high",
    "diversify-intensity-bool", "diversify-scorer", "record-neither", "record-both",
    "record-prediction"])
def test_construction_raises_the_checks_text(build, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build()


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just("full"), st.from_regex(r"\d+", fullmatch=True),
                 st.from_regex(r"0*[01]\.\d*|\.\d+", fullmatch=True)))
@example("0")
@example("0.0")
@example("1.")
@example("1.000")
def test_every_level_parse_intensity_reads_is_accepted(text):
    try:
        level = parse_intensity(text)
    except ValueError:
        assert float(text) > 1  # the one refusal the strategies reach
        return
    assert DiversifyConfig(NO_LEXICONS, intensity=level).intensity == level


# Each class with a mutable default, built twice from its defaults alone, and
# the fields that default to a fresh list or dict.
FRESH_DEFAULTS = [
    (lambda: TranslationRecord("p0", "true", parse_error="bad"),
     ("options", "alignment", "span_symbols", "alignment_misses")),
    (lambda: CSPSpec(["A"]), ("constraints",)),
    (AssemblyResult, ("chosen", "provenance")),
]


@pytest.mark.parametrize("build, names", FRESH_DEFAULTS,
                         ids=["TranslationRecord", "CSPSpec", "AssemblyResult"])
def test_default_built_values_share_no_list_or_dict(build, names):
    first, second = build(), build()
    for name in names:
        mine, theirs = getattr(first, name), getattr(second, name)
        assert mine == theirs == type(mine)() and mine is not theirs
        if isinstance(mine, list):
            mine.append("x")
        else:
            mine["x"] = "x"
        assert getattr(build(), name) == theirs == type(theirs)()


FROZEN = [
    (LogicProgram(SymbolRegistry(), (), ATOM), "query"),
    (Problem("p0", (), TextUnit("Is Anne kind?"), "true", "proofwriter"), "sentences"),
    (SdsResult(0.0, 1, 0, 0, {}), "per_problem"),
    (Verdict("proved"), "value"),
    (Constraint("LeftOf", ("A", "B")), "args"),
    (Option("A", 1), "position"),
    (MentalTable(), "entries"),
    (DiversifyConfig(NO_LEXICONS), "theta"),
    (TranslatorConfig(), "kind"),
    (SyntheticConfig(), "seed"),
    (SweepPoint(0.0, 0.0, 1.0, None), "sds"),
]


@pytest.mark.parametrize("value, name", FROZEN, ids=[type(v).__name__ for v, _ in FROZEN])
def test_formerly_frozen_values_refuse_assignment(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    assert getattr(value, name) is before


def test_config_defaults_keep_their_keys_values_and_order():
    assert list(CONFIG_DEFAULTS.items()) == [
        ("translator.kind", "naive"), ("translator.prompt_dir", None),
        ("translator.shots", 5), ("translator.temperature", 0.2),
        ("translator.mental", False), ("translator.oracle", "lexicon"),
        ("synthetic.n_problems", 50), ("synthetic.depth", 5), ("synthetic.n_constants", 3),
        ("synthetic.n_predicates", 8), ("synthetic.rule_branching", 2),
        ("synthetic.negation_rate", 0.25),
        ("resources.synonyms", None), ("resources.paraphrases", None),
        ("resources.vectors", None),
    ]


def test_table_renderings_are_computed_once_per_table(monkeypatch):
    calls = []
    rendering_of = table_module._rendering_of

    def counted(entry, by_symbol):
        calls.append(entry.symbol)
        return rendering_of(entry, by_symbol)

    monkeypatch.setattr(table_module, "_rendering_of", counted)
    table, _ = MentalTable().extend("kind")
    table, _ = table.extend("nice")
    first = table.renderings
    assert table.renderings is first and table.render_text() and calls == ["Kind", "Nice"]
    grown, _ = table.extend("red")
    assert grown.renderings == {**first, "red": "Red"}
    assert calls == ["Kind", "Nice", "Kind", "Nice", "Red"]
    assert table.renderings is first
