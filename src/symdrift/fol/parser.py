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

`parse_program` is the one way a program is made from texts: a dataset's
gold logic, a model's fenced program block, the synthetic generator's logic.

Parsing is memoized per distinct text and bound per registry: each text is
lexed, parsed and type-checked once into a scratch registry, and each call
binds the cached shape's symbols to the caller's registry by name. A text
that cannot bind cleanly (a syntax error, or a name already declared with
another arity) is parsed afresh on the caller's registry, so errors and the
declarations they leave behind are those of a plain parse. The memo lives
for the process and holds only immutable values, so threads share it.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import lru_cache
from typing import NamedTuple

from ..errors import ArityMismatch, FormulaSyntaxError
from .terms import (
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


def _parse_uncached(text: str, registry: SymbolRegistry) -> Formula:
    if not text or not text.strip():
        raise FormulaSyntaxError("empty input", 0, "a formula")
    parser = _Parser(text, registry)
    result = parser.formula()
    trailing = parser.peek()
    if trailing is not None and trailing.text == ".":
        parser.take()
        trailing = parser.peek()
    if trailing is not None:
        raise FormulaSyntaxError(
            f"unexpected {trailing.text!r}", trailing.pos, "end of input"
        )
    type_check(result, registry)
    return result


@lru_cache(maxsize=None)
def parse_shape(text: str) -> tuple[Formula, tuple[tuple[str, SymbolInfo], ...]]:
    """The formula parsed into a fresh registry, with that registry's symbols
    in declaration order (first occurrence: an atom's constants, then its
    predicate). Raises what `parse_formula` raises on a fresh registry."""
    scratch = SymbolRegistry()
    formula = _parse_uncached(text, scratch)
    return formula, tuple((sid, scratch.info(sid)) for sid in scratch.symbols())


def parse_formula(text: str, registry: SymbolRegistry) -> Formula:
    """Parse one formula, auto-registering unseen symbols into `registry`.

    A trailing `.` (the external-prover statement terminator) is accepted and
    ignored, so emitted files re-parse through this same entry point.
    """
    try:
        formula, symbols = parse_shape(text)
    except Exception:
        # A text that fails on a fresh registry fails on any; the plain parse
        # raises and leaves declarations exactly as it always has.
        return _parse_uncached(text, registry)
    ids: dict[str, str] = {}
    for scratch_id, info in symbols:
        try:
            sid = registry.declare(info.name, info.arity, info.kind)
        except ArityMismatch:
            # The declarations made so far are the ones a plain parse makes
            # before it meets this name, so it picks up from here.
            return _parse_uncached(text, registry)
        if sid != scratch_id:
            ids[scratch_id] = sid
    if not ids:
        return formula

    def bind(atom: Atom) -> Atom:
        args = tuple(Const(ids.get(a.symbol, a.symbol)) if isinstance(a, Const) else a
                     for a in atom.args)
        return Atom(ids.get(atom.pred, atom.pred), args)

    return map_atoms(formula, bind)


def parse_program(premise_texts: Iterable[str], query_text: str,
                  semantics_mode: str) -> LogicProgram:
    """Parse the premises, then the query, into one fresh registry. The parse
    type-checks every formula and reads an unbound argument as a constant, so
    a parsed sentence is always closed: only `check_world` is left."""
    registry = SymbolRegistry()
    premises = tuple(parse_formula(text, registry) for text in premise_texts)
    query = parse_formula(query_text, registry)
    return LogicProgram(registry, premises, query, semantics_mode).check_world()
