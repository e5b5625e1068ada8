"""Recursive-descent parser for the canonical formula dialect.

Grammar (precedence low to high; `->` and `<->` are right-associative):

    formula := imp ("<->" formula)?
    imp     := disj ("->" imp)?
    disj    := conj ("|" conj)*
    conj    := unary ("&" unary)*
    unary   := "~" unary | ("all"|"exists") IDENT unary | atom | "(" formula ")"
    atom    := IDENT ("(" IDENT ("," IDENT)* ")")?

Identifiers in application position are predicates; argument identifiers are
variables when bound by an enclosing quantifier, constants otherwise. Unseen
identifiers are auto-registered, with arity locked at first use.

A formula text is parsed once per process. `parse_shape` lexes, parses and
type-checks it into a registry of its own and memoizes its shape: the
formula over the shape's own ids, its symbols in declaration order, and
whether it is a fact or a Horn rule. Every reader of a text reads that
shape. `parse_formula` binds a shape to a caller's registry by declaring its
symbols there in order, so it raises the text's own error, or the arity
clash of the first name the registry holds at another arity; no text is
parsed on a caller's registry. The memo lives for the process and holds only
immutable values, so threads share it.

A program is made from texts in two steps. `check_program` walks the texts'
shapes in reading order and raises what building the program would, without
building it: a dataset's gold logic, a model's fenced program block and the
synthetic generator's logic are all checked so and kept as texts.
`build_program` builds the program from texts so checked; only solving one
does (`harness.evaluate.solve_one`), and the generator, which solves its
logic for the label.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from functools import lru_cache
from typing import NamedTuple

from ..errors import ArityMismatch, FormulaSyntaxError
from .terms import (
    CLOSED_WORLD,
    CONSTANT,
    PREDICATE,
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
    SymbolInfo,
    SymbolRegistry,
    Term,
    Var,
    horn_parts,
    map_atoms,
    type_check,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow><->|->)|(?P<op>[~&|(),.])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)


class _Tok(NamedTuple):
    text: str
    pos: int


def _lex(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m or m.end() == i:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}", bad_at)
        text_part = m.group(1) or m.group(2) or m.group(3)
        tokens.append(_Tok(text_part, m.end() - len(text_part)))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, registry: SymbolRegistry):
        self.text = text
        self.tokens = _lex(text)
        self.idx = 0
        self.registry = registry
        self.bound: list[str] = []

    def peek(self) -> _Tok | None:
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def take(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        self.idx += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.peek()
        if tok is None or tok.text != text:
            pos = tok.pos if tok else len(self.text)
            raise FormulaSyntaxError(
                f"unexpected {tok.text!r}" if tok else "unexpected end of input",
                pos,
                expected=repr(text),
            )
        return self.take()

    # precedence ladder ----------------------------------------------------

    def formula(self) -> Formula:
        left = self.imp()
        tok = self.peek()
        if tok and tok.text == "<->":
            self.take()
            return Iff(left, self.formula())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        tok = self.peek()
        if tok and tok.text == "->":
            self.take()
            return Implies(left, self.imp())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while (tok := self.peek()) and tok.text == "|":
            self.take()
            left = Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while (tok := self.peek()) and tok.text == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text), "a formula")
        if tok.text == "~":
            self.take()
            return Not(self.unary())
        if tok.text in ("all", "exists"):
            self.take()
            var = self.take()
            if not var.text.isidentifier():
                raise FormulaSyntaxError(
                    f"unexpected {var.text!r}", var.pos, "a variable name"
                )
            self.bound.append(var.text)
            try:
                body = self.unary()
            finally:
                self.bound.pop()
            return (ForAll if tok.text == "all" else Exists)(var.text, body)
        if tok.text == "(":
            self.take()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.text.isidentifier():
            return self.atom()
        raise FormulaSyntaxError(f"unexpected {tok.text!r}", tok.pos, "a formula")

    def atom(self) -> Atom:
        name = self.take()
        args: list[Term] = []
        tok = self.peek()
        if tok and tok.text == "(":
            self.take()
            while True:
                arg = self.take()
                if not arg.text.isidentifier():
                    raise FormulaSyntaxError(
                        f"unexpected {arg.text!r}", arg.pos, "a term"
                    )
                args.append(self.term(arg.text))
                nxt = self.take()
                if nxt.text == ")":
                    break
                if nxt.text != ",":
                    raise FormulaSyntaxError(
                        f"unexpected {nxt.text!r}", nxt.pos, "',' or ')'"
                    )
        pred = self.registry.lookup(name.text, PREDICATE)
        if pred is None:
            pred = self.registry.declare(name.text, len(args), PREDICATE)
        return Atom(pred, tuple(args))

    def term(self, name: str) -> Term:
        if name in self.bound:
            return Var(name)
        const = self.registry.lookup(name, CONSTANT)
        if const is None:
            const = self.registry.declare(name, 0, CONSTANT)
        return Const(const)


class Shape(NamedTuple):
    """A formula text parsed on its own: the formula over its own symbol ids,
    those symbols in declaration order (first occurrence: an atom's
    constants, then its predicate), and whether it is a fact or a Horn rule."""
    formula: Formula
    symbols: tuple[tuple[str, SymbolInfo], ...]
    horn: bool

    def registry(self) -> SymbolRegistry:
        """A fresh registry holding the shape's symbols under their own ids."""
        registry = SymbolRegistry()
        for _, info in self.symbols:  # in order, so the ids are the shape's own
            registry.declare(info.name, info.arity, info.kind)
        return registry


@lru_cache(maxsize=None)
def parse_shape(text: str) -> Shape:
    """The text's shape, parsed into a fresh registry. Raises the text's own
    syntax error, or the arity clash of a name it uses at two arities.

    A trailing `.` (the external-prover statement terminator) is accepted and
    ignored, so emitted files re-parse through this same entry point.
    """
    if not text or not text.strip():
        raise FormulaSyntaxError("empty input", 0, "a formula")
    registry = SymbolRegistry()
    parser = _Parser(text, registry)
    formula = parser.formula()
    trailing = parser.peek()
    if trailing is not None and trailing.text == ".":
        parser.take()
        trailing = parser.peek()
    if trailing is not None:
        raise FormulaSyntaxError(
            f"unexpected {trailing.text!r}", trailing.pos, "end of input"
        )
    type_check(formula, registry)
    return Shape(formula, tuple((sid, registry.info(sid)) for sid in registry.symbols()),
                 horn_parts(formula) is not None)


def parse_formula(text: str, registry: SymbolRegistry) -> Formula:
    """The text's formula over `registry`, its shape's symbols declared there
    in order. Raises what `parse_shape` raises, or `ArityMismatch` at the
    first name `registry` holds at another arity."""
    shape = parse_shape(text)
    ids: dict[str, str] = {}
    for own_id, info in shape.symbols:
        sid = registry.declare(info.name, info.arity, info.kind)
        if sid != own_id:
            ids[own_id] = sid
    if not ids:
        return shape.formula

    def bind(atom: Atom) -> Atom:
        args = tuple(Const(ids.get(a.symbol, a.symbol)) if isinstance(a, Const) else a
                     for a in atom.args)
        return Atom(ids.get(atom.pred, atom.pred), args)

    return map_atoms(shape.formula, bind)


class ProgramTexts(NamedTuple):
    """A program as formula texts that `check_program` accepted."""
    premises: tuple[str, ...]
    query: str
    semantics_mode: str


def check_program(premise_texts: Iterable[str], query_text: str,
                  semantics_mode: str) -> ProgramTexts:
    """The texts, if `build_program` builds a program from them that passes
    `check_world`; otherwise raise what that raises, without building it.
    The texts' shapes are read in premise-then-query order, as the build
    parses them: each text's own error, then the first name it declares at
    another arity than an earlier text did; after them all, in the closed
    world, the first premise that is not a fact or a Horn rule. The texts are
    interned: programs repeat a few hundred distinct formulas."""
    texts = ProgramTexts(tuple(map(sys.intern, premise_texts)), sys.intern(query_text),
                         semantics_mode)
    arities: dict[tuple[str, str], int] = {}
    shapes = []
    for text in (*texts.premises, texts.query):
        shape = parse_shape(text)
        for _, info in shape.symbols:
            arity = arities.setdefault((info.kind, info.name), info.arity)
            if arity != info.arity:
                raise ArityMismatch(info.name, arity, info.arity)
        shapes.append(shape)
    if semantics_mode == CLOSED_WORLD:
        for shape in shapes[:-1]:
            if not shape.horn:  # worded as the built program's check words it
                LogicProgram(shape.registry(), (shape.formula,), shape.formula,
                             semantics_mode).check_world()
    return texts


def build_program(texts: ProgramTexts) -> LogicProgram:
    """Bind the premises' shapes, then the query's, into one fresh registry.
    A shape is type-checked and reads an unbound argument as a constant, so
    a parsed sentence is always closed; `check_program` has read the world."""
    registry = SymbolRegistry()
    premises = tuple(parse_formula(text, registry) for text in texts.premises)
    query = parse_formula(texts.query, registry)
    return LogicProgram(registry, premises, query, texts.semantics_mode)
