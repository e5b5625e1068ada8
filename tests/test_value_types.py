"""The immutable value types are named tuples that behave as the frozen
dataclasses they replaced did: formula nodes compare and hash by class as
well as by fields, every `repr` reads as before (error texts embed it), and
positional and keyword construction both work."""

from __future__ import annotations

import itertools
import pickle
import re

import pytest

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
    Not,
    Or,
    SymbolInfo,
    Var,
    free_variables,
)
from symdrift.harness.client import Completion
from symdrift.mental.translate import Proposal
from symdrift.problem import (
    ConceptEntry,
    ConceptOccurrence,
    ProvenanceEntry,
    TextUnit,
    Variant,
)
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
    (TextUnit("Anne", (Token("Anne", "anne", "PROPN", 0, 4),)),
     "TextUnit(text='Anne', tokens=(Token(surface='Anne', lemma='anne', pos='PROPN', "
     "start=0, end=4),))"),
    (ConceptEntry(("kind",), ("ADJ",), (ConceptOccurrence(0, 2, 3, 9, 13, "kind"),)),
     "ConceptEntry(lemmas=('kind',), pos=('ADJ',), occurrences=(ConceptOccurrence(unit=0, "
     "tok_start=2, tok_end=3, char_start=9, char_end=13, surface='kind'),))"),
    (Variant("nice", "word"), "Variant(text='nice', level='word')"),
    (ProvenanceEntry(-1, 0, 4, "Anne"),
     "ProvenanceEntry(unit=-1, char_start=0, char_end=4, surface='Anne')"),
    (Proposal(0, "Slot0(Anne)", ("kind",)),
     "Proposal(unit=0, skeleton='Slot0(Anne)', slots=('kind',), is_query=False, "
     "slot_spans=(), anchors=())"),
    (Completion("hi"), "Completion(text='hi', tokens_in=0, tokens_out=0)"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v, _ in REPRS])
def test_repr_reads_as_the_dataclass_printed(value, text):
    assert repr(value) == text


def test_error_texts_embed_the_repr():
    with pytest.raises(TypeError, match=re.escape("not a formula: Var(name='x')")):
        free_variables(Var("x"))


def test_positional_and_keyword_construction_agree():
    assert Atom("p0", (Var("x"),)) == Atom(pred="p0", args=(Var(name="x"),))
    assert ForAll("x", ATOM) == ForAll(var="x", body=ATOM)
    assert Atom("p1") == Atom(pred="p1", args=())
    assert Proposal(1, "Slot0(x)", ("nice",), True) == \
        Proposal(unit=1, skeleton="Slot0(x)", slots=("nice",), is_query=True)
    assert Completion("hi", 3, 4) == Completion(text="hi", tokens_in=3, tokens_out=4)
    assert ProvenanceEntry(0, 1, 2, "a") == ProvenanceEntry(surface="a", char_end=2,
                                                            char_start=1, unit=0)


def test_values_are_immutable():
    for value, _ in REPRS:
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
