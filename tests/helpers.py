"""Shared fixtures: random program generation, tiny lexicon files, reference
implementations, and the in-memory chat client."""

from __future__ import annotations

import heapq
import random
import re
from collections import Counter
from copy import deepcopy
from dataclasses import dataclass, field, replace
from itertools import product

from symdrift.diversify.concepts import MAX_N
from symdrift.diversify.pipeline import (
    MAX_CANDIDATES_PER_UNIT,
    Candidate,
    CandidatePool,
    CandidateSite,
    _site_options,
    eligible_units,
)
from symdrift.diversify.resources import Resources
from symdrift.diversify.variants import RuleRewriter, build_variants
from symdrift.errors import (
    ClientError,
    DomainTooLarge,
    FolError,
    FormulaSyntaxError,
    NotHorn,
    SolverError,
    SolverMismatch,
    TranslationFailure,
)
from symdrift.fol.cnf import Clause, Literal, SkolemAllocator, to_cnf
from symdrift.fol.parser import _Parser, build_program, parse_formula
from symdrift.fol.render import render_formula
from symdrift.fol.terms import (
    And,
    Atom,
    CLOSED_WORLD,
    CONSTANT,
    Const,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    LogicProgram,
    Not,
    OPEN_WORLD,
    Or,
    PREDICATE,
    SymbolRegistry,
    Var,
    camel_identifier,
    map_atoms,
    type_check,
)
from symdrift.harness.client import Completion
from symdrift.harness.evaluate import ENGINES, _predicted_label, normalize_items, solver_for
from symdrift.harness.translators import propose_from_templates
from symdrift.mental.oracles import _closure_with_links, _remainder_lemma
from symdrift.mental.table import EXTEND, REFINE, REUSE, camel_case_symbol
from symdrift.mental.translate import Proposal
from symdrift.metrics.records import TranslationRecord
from symdrift.metrics.sds import align_symbols
from symdrift.problem import (
    QUESTION_UNIT,
    TASK_KINDS,
    ConceptEntry,
    ConceptInventory,
    ConceptOccurrence,
    DiversifiedProblem,
    Problem,
    ProvenanceEntry,
    TextUnit,
    VariantSet,
)
from symdrift.solver.enumeration import MAX_ATOM_BITS
from symdrift.solver.resolution import (
    DEFAULT_MAX_STEPS,
    apply_subst,
    unify_atoms,
)
from symdrift.solver.verdict import Verdict
from symdrift.textproc import (
    STOPWORDS,
    _TOKEN_RE,
    Token,
    _tag,
    content_lemmas,
    lemmatize,
    tokenize,
)

CONNECTIVES = (And, Or, Implies, Iff)


def random_formula(rng: random.Random, preds: list[str], consts: list[str],
                   depth: int, var: str | None = None) -> Formula:
    """Random formula over unary predicates; quantifiers only at the top level
    (keeps everything inside the supported skolemization fragment)."""
    if depth <= 0 or rng.random() < 0.3:
        pred = rng.choice(preds)
        term = Var(var) if var and rng.random() < 0.8 else Const(rng.choice(consts))
        atom = Atom(pred, (term,))
        return Not(atom) if rng.random() < 0.3 else atom
    node = rng.choice(CONNECTIVES)
    return node(
        random_formula(rng, preds, consts, depth - 1, var),
        random_formula(rng, preds, consts, depth - 1, var),
    )


def random_premise(rng: random.Random, preds: list[str], consts: list[str]) -> Formula:
    roll = rng.random()
    if roll < 0.45:  # ground fact or small ground compound
        return random_formula(rng, preds, consts, depth=rng.randint(0, 1), var=None)
    if roll < 0.9:  # universally quantified sentence
        return ForAll("x", random_formula(rng, preds, consts, depth=rng.randint(1, 2), var="x"))
    return Exists("x", random_formula(rng, preds, consts, depth=1, var="x"))


def random_program(rng: random.Random, n_consts: int = 3, n_preds: int = 4,
                   n_premises: int = 6) -> LogicProgram:
    registry = SymbolRegistry()
    preds = [registry.declare(f"P{i}", 1, "predicate") for i in range(rng.randint(2, n_preds))]
    consts = [registry.declare(f"a{i}", 0, "constant") for i in range(rng.randint(1, n_consts))]
    premises = tuple(random_premise(rng, preds, consts) for _ in range(rng.randint(1, n_premises)))
    if rng.random() < 0.8:
        query: Formula = Atom(rng.choice(preds), (Const(rng.choice(consts)),))
        if rng.random() < 0.3:
            query = Not(query)
    else:
        quant = ForAll if rng.random() < 0.5 else Exists
        query = quant("x", Atom(rng.choice(preds), (Var("x"),)))
    return LogicProgram(registry, premises, query).check_world()


def random_relational_program(rng: random.Random) -> LogicProgram:
    """Random ground literals and universally closed two-literal clauses over
    binary and unary predicates. Resolvents keep at most two literals, so
    saturation stays small, but they carry several variables, whose names
    decide the prover's literal order."""
    registry = SymbolRegistry()
    preds = [(registry.declare(f"R{i}", 2, "predicate"), 2) for i in range(rng.randint(1, 3))]
    preds += [(registry.declare(f"P{i}", 1, "predicate"), 1) for i in range(rng.randint(1, 2))]
    consts = [Const(registry.declare(f"a{i}", 0, "constant")) for i in range(rng.randint(1, 3))]
    variables = [Var("x"), Var("y"), Var("z")]

    def literal(terms: list) -> Formula:
        pred, arity = rng.choice(preds)
        atom = Atom(pred, tuple(rng.choice(terms) for _ in range(arity)))
        return Not(atom) if rng.random() < 0.5 else atom

    premises: list[Formula] = []
    for _ in range(rng.randint(2, 7)):
        if rng.random() < 0.35:
            premises.append(literal(consts))
            continue
        vs = variables[:rng.randint(1, 3)]
        f: Formula = Or(literal(vs + consts[:1]), literal(vs))
        for v in reversed(vs):
            f = ForAll(v.name, f)
        premises.append(f)
    return LogicProgram(registry, tuple(premises), literal(consts)).check_world()


def herbrand_padding(p: LogicProgram) -> list[str]:
    """Fresh constant names that stand in for the skolem witnesses the
    refutation engines introduce, so Herbrand enumeration decides plain
    first-order entailment (finite-model property of the fragment)."""
    n = sum(_existential_strength(f, False) for f in p.premises)
    n += max(_existential_strength(p.query, False), _existential_strength(p.query, True))
    return [f"w{i}" for i in range(n)]


def _existential_strength(f: Formula, negated: bool) -> int:
    """Count quantifiers that skolemize into fresh constants."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return _existential_strength(f.body, not negated)
    if isinstance(f, (And, Or)):
        return _existential_strength(f.left, negated) + _existential_strength(f.right, negated)
    if isinstance(f, Implies):
        return _existential_strength(f.left, not negated) + _existential_strength(f.right, negated)
    if isinstance(f, Iff):  # both polarities occur after expansion
        return (
            _existential_strength(f.left, negated) + _existential_strength(f.left, not negated)
            + _existential_strength(f.right, negated) + _existential_strength(f.right, not negated)
        )
    if isinstance(f, ForAll):
        return int(negated) + _existential_strength(f.body, negated)
    if isinstance(f, Exists):
        return int(not negated) + _existential_strength(f.body, negated)
    raise TypeError(f)


def domain_bits(p: LogicProgram) -> int:
    n_consts = len(p.constants()) + len(herbrand_padding(p))
    return n_consts * len(p.predicates())


def random_decidable_program(rng: random.Random, max_bits: int = 18) -> LogicProgram:
    """Random program small enough for the enumeration oracle to stay fast."""
    while True:
        p = random_program(rng)
        if domain_bits(p) <= max_bits:
            return p


def holds(f: Formula, interp: dict[tuple, bool], env: dict[str, str],
          domain: list[str]) -> bool:
    """Truth of `f` in one Herbrand interpretation (ground atom -> bool)."""
    if isinstance(f, Atom):
        return interp[(f.pred, tuple(env[a.name] if isinstance(a, Var) else a.symbol
                                     for a in f.args))]
    if isinstance(f, Not):
        return not holds(f.body, interp, env, domain)
    if isinstance(f, And):
        return holds(f.left, interp, env, domain) and holds(f.right, interp, env, domain)
    if isinstance(f, Or):
        return holds(f.left, interp, env, domain) or holds(f.right, interp, env, domain)
    if isinstance(f, Implies):
        return not holds(f.left, interp, env, domain) or holds(f.right, interp, env, domain)
    if isinstance(f, Iff):
        return holds(f.left, interp, env, domain) == holds(f.right, interp, env, domain)
    if isinstance(f, ForAll):
        return all(holds(f.body, interp, {**env, f.var: c}, domain) for c in domain)
    if isinstance(f, Exists):
        return any(holds(f.body, interp, {**env, f.var: c}, domain) for c in domain)
    raise TypeError(f)


def reference_enumerate_models(p: LogicProgram,
                               extra_constants: list[str] | None = None) -> Verdict:
    """One-interpretation-at-a-time model search: the specification that
    `enumerate_models` must match verdict for verdict, `steps` included.
    Interpretation `m` makes the atom with bit index `i` true iff bit `i` of
    `m` is set; the walk stops at the first interpretation after which the
    query has been seen both true and false in models of the premises."""
    if p.semantics_mode != OPEN_WORLD:
        raise ValueError("model enumeration expects an open-world program")
    registry = deepcopy(p.registry)
    domain = p.constants()
    for name in extra_constants or []:
        sid = registry.lookup(name, "constant") or registry.declare(name, 0, "constant")
        if sid not in domain:
            domain.append(sid)
    if not domain:
        domain.append(registry.declare("_d0", 0, "constant"))
    atoms = [(pred, combo) for pred in p.predicates()
             for combo in product(domain, repeat=registry.info(pred).arity)]
    if len(atoms) > MAX_ATOM_BITS:
        raise DomainTooLarge(f"{len(atoms)} ground atoms")

    q_true = q_false = n_models = 0
    for m in range(1 << len(atoms)):
        interp = {atom: bool(m >> i & 1) for i, atom in enumerate(atoms)}
        if all(holds(f, interp, {}, domain) for f in p.premises):
            n_models += 1
            if holds(p.query, interp, {}, domain):
                q_true += 1
            else:
                q_false += 1
            if q_true and q_false:
                return Verdict("unknown", steps=n_models)
    return Verdict("proved" if q_false == 0 else "disproved", steps=n_models)


def reference_rename(clause: Clause, tag: str) -> Clause:
    """Variables renamed to `{tag}0, {tag}1, ...` in sorted-literal order."""
    mapping: dict[str, Var] = {}
    out = set()
    for lit in sorted(clause, key=Literal.sort_key):
        args = []
        for a in lit.args:
            if isinstance(a, Var):
                if a.name not in mapping:
                    mapping[a.name] = Var(f"{tag}{len(mapping)}")
                args.append(mapping[a.name])
            else:
                args.append(a)
        out.add(Literal(lit.positive, lit.pred, tuple(args)))
    return frozenset(out)


def reference_subsumes(c: Clause, d: Clause) -> bool:
    """Plain one-way matcher: some substitution over c's variables maps c
    into a subset of d."""
    if len(c) > len(d):
        return False
    frozen = [
        Literal(l.positive, l.pred,
                tuple(Const(f"!frz_{a.name}") if isinstance(a, Var) else a for a in l.args))
        for l in sorted(d, key=Literal.sort_key)
    ]
    c_lits = sorted(reference_rename(c, "s"), key=Literal.sort_key)

    def match(i: int, subst: dict) -> bool:
        if i == len(c_lits):
            return True
        lit = c_lits[i]
        for cand in frozen:
            if cand.positive != lit.positive:
                continue
            nxt = unify_atoms(lit.pred, lit.args, cand.pred, cand.args, subst)
            if nxt is not None and match(i + 1, nxt):
                return True
        return False

    return match(0, {})


def _reference_resolvents(given: Clause, other: Clause) -> list[Clause]:
    a = reference_rename(given, "g")
    b = reference_rename(other, "h")
    out = []
    for lit in sorted(a, key=Literal.sort_key):
        for cand in sorted(b, key=Literal.sort_key):
            if cand.positive == lit.positive:
                continue
            subst = unify_atoms(lit.pred, lit.args, cand.pred, cand.args)
            if subst is None:
                continue
            merged = {apply_subst(x, subst) for x in a if x != lit}
            merged |= {apply_subst(x, subst) for x in b if x != cand}
            if not any(l.negate() in merged for l in merged):
                out.append(frozenset(merged))
    return out


def _reference_factors(clause: Clause) -> list[Clause]:
    lits = sorted(clause, key=Literal.sort_key)
    out = []
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            if lits[i].positive != lits[j].positive:
                continue
            subst = unify_atoms(lits[i].pred, lits[i].args, lits[j].pred, lits[j].args)
            if subst is None:
                continue
            factored = frozenset(apply_subst(x, subst) for x in clause)
            if len(factored) < len(clause):
                out.append(factored)
    return out


def reference_satisfiable_by_sign(clauses: list[Clause]) -> bool:
    """Every clause holds a positive literal, or every clause a negative one."""
    return (all(any(l.positive for l in c) for c in clauses)
            or all(any(not l.positive for l in c) for c in clauses))


def _reference_given_clause_loop(premises: list[Clause], goal: list[Clause], max_steps: int,
                                 set_of_support: bool) -> tuple[int, bool, bool]:
    """(steps, refuted, exhausted) of the given-clause loop with every clause
    renamed, sorted and matched afresh at each use. With `set_of_support`
    the premises, closed under factoring, start out processed and only the
    goal is queued; without it every clause is queued."""
    processed: list[Clause] = []
    counter = 0
    queue: list[tuple[int, int, Clause]] = []
    seen: set[Clause] = set()

    def process(c: Clause) -> bool:
        nonlocal processed
        if any(reference_subsumes(p, c) for p in processed):
            return False
        processed = [p for p in processed if not reference_subsumes(c, p)]
        processed.append(c)
        return True

    def push(c: Clause) -> None:
        nonlocal counter
        c = reference_rename(c, "u")
        if c in seen:
            return
        seen.add(c)
        counter += 1
        heapq.heappush(queue, (len(c), counter, c))

    if set_of_support:
        entering = list(premises)
        i = 0
        while i < len(entering):
            c = reference_rename(entering[i], "u")
            i += 1
            if c not in seen:
                seen.add(c)
                if process(c):
                    entering.extend(_reference_factors(c))
        queued = goal
    else:
        queued = premises + goal
    for c in queued:
        push(c)
    steps = 0
    while queue:
        if steps >= max_steps:
            return steps, False, False
        _, _, given = heapq.heappop(queue)
        if not given:
            return steps, True, False
        if not process(given):
            continue
        steps += 1
        new = list(_reference_factors(given))
        for other in processed:
            new.extend(_reference_resolvents(given, other))
        for c in new:
            if not c:
                return steps, True, False
            push(c)
    return steps, False, True


def reference_phase_clauses(p: LogicProgram, negate_query: bool) -> tuple[list[Clause], list[Clause]]:
    """One phase's premise clauses and goal clauses, converted afresh by
    `to_cnf` into a fresh registry copy and allocator, past every memo."""
    alloc = SkolemAllocator(deepcopy(p.registry))
    premises = []
    for premise in p.premises:
        premises.extend(to_cnf(premise, alloc))
    goal = Not(p.query) if negate_query else p.query
    return premises, list(to_cnf(goal, alloc))


def reference_clausify(p: LogicProgram, negate_query: bool) -> list[Clause]:
    """One phase's clauses, the premises' then the goal's."""
    premises, goal = reference_phase_clauses(p, negate_query)
    return premises + goal


def reference_prove_resolution(p: LogicProgram, max_steps: int = DEFAULT_MAX_STEPS,
                               full: bool = False) -> Verdict:
    """The resolution prover as a plain given-clause loop, from the set of
    support when the premises are satisfiable by sign: the specification
    that `prove_resolution` must match verdict for verdict, `steps`
    included. With `full` every clause is queued and premises are resolved
    with each other too: full resolution, against which the set of
    support's values are checked."""
    def phase(negate_query: bool) -> tuple[int, bool, bool]:
        premises, goal = reference_phase_clauses(p, negate_query)
        sos = not full and reference_satisfiable_by_sign(premises)
        return _reference_given_clause_loop(premises, goal, max_steps, sos)

    pos_steps, pos_refuted, pos_exhausted = phase(negate_query=True)
    if pos_refuted:
        return Verdict("proved", steps=pos_steps)
    neg_steps, neg_refuted, neg_exhausted = phase(negate_query=False)
    if neg_refuted:
        return Verdict("disproved", steps=pos_steps + neg_steps)
    limit = not (pos_exhausted and neg_exhausted)
    return Verdict("unknown", steps=pos_steps + neg_steps, limit_hit=limit)


def reference_tokenize(text: str) -> tuple[Token, ...]:
    """Unmemoized tokenizer: every match lemmatized and tagged afresh."""
    tokens: list[Token] = []
    first_word = True
    for m in _TOKEN_RE.finditer(text):
        surface = m.group(0)
        if surface[0].isalpha():
            lemma = lemmatize(surface)
            pos = _tag(surface, lemma, sentence_initial=first_word)
            if pos == "PROPN":
                lemma = surface.lower()
            first_word = False
        elif surface[0].isdigit():
            lemma, pos = surface, "NUM"
            first_word = False
        else:
            lemma, pos = surface, "PUNCT"
        tokens.append(Token(surface, lemma, pos, m.start(), m.end()))
    return tuple(tokens)


def reference_parse(text: str, registry: SymbolRegistry) -> Formula:
    """Unmemoized parser: every call lexes, parses and type-checks `text`
    on `registry` itself."""
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


def plain_problem(sentences: list[str], question: str) -> Problem:
    return Problem(
        id="t",
        sentences=tuple(TextUnit.from_text(s) for s in sentences),
        question=TextUnit.from_text(question),
        gold_answer="true",
        task_kind="proofwriter",
    )


HAND_CASES = [
    # a punctuation gap inside a would-be gram: "kind, smart" is not "kind smart"
    plain_problem(["Anne is kind, smart and tall.", "Bob is kind smart."],
                  "Is Anne kind smart?"),
    # repeated grams made only of stopwords, next to repeated mixed grams
    plain_problem(["It is not the kind one.", "It is not the kind."], "Is it the kind one?"),
    # a gram whose only repeat is in the question
    plain_problem(["Anne is kind.", "Bob is tall."], "Is Gail very kind?"),
]


def reference_identify_repeated(p: Problem) -> ConceptInventory:
    """Concept identification that builds an occurrence for every window and
    drops the singleton grams afterwards."""
    raw: dict[tuple[str, ...], list[ConceptOccurrence]] = {}
    tags: dict[tuple[str, ...], tuple[str, ...]] = {}
    for unit_index, unit in p.units():
        words = [(i, t) for i, t in enumerate(unit.tokens) if t.is_word]
        for start in range(len(words)):
            for n in range(1, MAX_N + 1):
                if start + n > len(words):
                    break
                window = words[start:start + n]
                if window[-1][0] - window[0][0] != n - 1:
                    break
                lemmas = tuple(t.lemma for _, t in window)
                if all(l in STOPWORDS for l in lemmas):
                    continue
                first, last = window[0][1], window[-1][1]
                raw.setdefault(lemmas, []).append(ConceptOccurrence(
                    unit=unit_index,
                    tok_start=window[0][0],
                    tok_end=window[-1][0] + 1,
                    char_start=first.start,
                    char_end=last.end,
                    surface=unit.text[first.start:last.end],
                ))
                tags.setdefault(lemmas, tuple(t.pos for _, t in window))

    inventory: ConceptInventory = {}
    for lemmas in sorted(raw, key=lambda k: (len(k), k)):
        occurrences = raw[lemmas]
        if len(occurrences) < 2:
            continue
        cid = " ".join(lemmas)
        inventory[cid] = ConceptEntry(lemmas, tags[lemmas], tuple(occurrences))
    return inventory


def reference_passthrough(p: Problem) -> DiversifiedProblem:
    """The intensity-0 wrap over a full inventory: the problem unchanged,
    with its original surfaces as provenance at each unit's sites, found by
    a scan of every entry."""
    inventory = reference_identify_repeated(p)
    provenance: dict[str, list[ProvenanceEntry]] = {}
    for unit_index, _unit in p.units():
        for cid, occ in reference_unit_sites(inventory, unit_index):
            provenance.setdefault(cid, []).append(
                ProvenanceEntry(occ.unit, occ.char_start, occ.char_end, occ.surface))
    return DiversifiedProblem(base_id=p.id, problem=p, provenance=provenance,
                              intensity=0, no_repeats=not inventory)


def reference_unit_sites(inventory: ConceptInventory, unit: int
                         ) -> list[tuple[str, ConceptOccurrence]]:
    """One unit's rewrite sites by a scan of every entry: the unit's
    occurrences sorted by position, ranked longest first (then earlier start,
    then concept id), taken greedily when they overlap nothing taken, and
    returned in text order."""
    occurrences = []
    for cid, entry in inventory.items():
        for occ in entry.occurrences:
            if occ.unit == unit:
                occurrences.append((cid, occ))
    occurrences.sort(key=lambda pair: (pair[1].tok_start, -(pair[1].tok_end)))
    ranked = sorted(
        occurrences,
        key=lambda pair: (-(pair[1].tok_end - pair[1].tok_start), pair[1].tok_start, pair[0]),
    )
    chosen: list[tuple[str, ConceptOccurrence]] = []
    taken: set[int] = set()
    for cid, occ in ranked:
        span = set(range(occ.tok_start, occ.tok_end))
        if span & taken:
            continue
        taken |= span
        chosen.append((cid, occ))
    chosen.sort(key=lambda pair: pair[1].tok_start)
    return chosen


def _reference_rewrite_candidates(unit: TextUnit, unit_index: int,
                                  inventory: ConceptInventory) -> list[Candidate]:
    """The rule rewrites of one unit's text, for a unit with rewrite sites."""
    expected = reference_unit_sites(inventory, unit_index)
    texts = RuleRewriter().rewrite(unit.text) if expected else []
    out = []
    for text in texts:
        tokens = tokenize(text)
        found = []
        ok = True
        used: set[int] = set()
        for cid, _occ in expected:
            lemmas = inventory[cid].lemmas
            hit = None
            for i in range(len(tokens) - len(lemmas) + 1):
                if i in used:
                    continue
                window = tokens[i:i + len(lemmas)]
                if tuple(t.lemma for t in window) == lemmas and all(t.is_word for t in window):
                    hit = (i, window)
                    break
            if hit is None:
                ok = False
                break
            i, window = hit
            used.update(range(i, i + len(lemmas)))
            found.append((cid, window, text[window[0].start:window[-1].end]))
        if not ok:
            continue
        sites = tuple(
            CandidateSite(cid, surface, window[0].start, window[-1].end)
            for cid, window, surface in sorted(found, key=lambda row: row[1][0].start)
        )
        out.append(Candidate(text, sites))
    return out


def reference_splice(unit: TextUnit, chosen: list[tuple[str, object, str]]) -> Candidate:
    """The unit's text with each (concept id, occurrence, surface) row's
    occurrence replaced by its surface, cut from the occurrences themselves;
    rows are non-overlapping and sorted by position."""
    text, out, sites, cursor = unit.text, [], [], 0
    for cid, occ, surface in chosen:
        out.append(text[cursor:occ.char_start])
        start = sum(map(len, out))
        out.append(surface)
        sites.append(CandidateSite(cid, surface, start, start + len(surface)))
        cursor = occ.char_end
    out.append(text[cursor:])
    return Candidate("".join(out), tuple(sites))


def reference_raw_candidates(unit: TextUnit, unit_index: int, inventory: ConceptInventory,
                             variants: VariantSet) -> list[Candidate]:
    """The first `MAX_CANDIDATES_PER_UNIT` combinations of site options in
    product order, every one spliced, then the sentence rewrites, before
    duplicate texts are dropped. The first is the original."""
    site_rows = reference_unit_sites(inventory, unit_index)
    combos: list[list[str]] = [[]]
    for cid, occ in site_rows:
        options = _site_options(cid, occ, variants, inventory[cid].pos[0])
        combos = [prefix + [opt] for prefix in combos for opt in options]
        if len(combos) > MAX_CANDIDATES_PER_UNIT:
            combos = combos[:MAX_CANDIDATES_PER_UNIT]
    spliced = [reference_splice(unit, [(cid, occ, surface)
                                       for (cid, occ), surface in zip(site_rows, combo)])
               for combo in combos]
    return spliced + _reference_rewrite_candidates(unit, unit_index, inventory)


def pool_candidates(pool: CandidatePool) -> list[Candidate]:
    """A lazy pool's candidates in pool order, each spliced: the first of
    each distinct text, as assembly finds it."""
    raw = (pool.candidate(index) for index in range(pool.n_combos + len(pool.rewrites)))
    return [c for index, c in enumerate(raw) if not pool.repeats(index, c.text)]


def _reference_candidates(unit: TextUnit, unit_index: int, inventory: ConceptInventory,
                          variants: VariantSet, theta: float, scorer) -> list[Candidate]:
    """Every candidate scored, the original kept unscored and first."""
    produced = []
    seen = set()
    for candidate in reference_raw_candidates(unit, unit_index, inventory, variants):
        if candidate.text not in seen:
            seen.add(candidate.text)
            produced.append(candidate)
    original = produced[0]
    return [original] + [c for c in produced[1:] if scorer.score(unit.text, c.text) >= theta]


def _reference_assemble(candidates: dict[int, list[Candidate]]
                        ) -> tuple[list[Candidate], dict[str, list[ProvenanceEntry]]]:
    """Greedy pass over filtered sets: the first candidate of least reuse."""
    used: dict[tuple[str, str], int] = {}
    chosen_all: list[Candidate] = []
    provenance: dict[str, list[ProvenanceEntry]] = {}
    for unit_index in sorted(candidates, key=lambda u: (u == QUESTION_UNIT, u)):
        options = candidates[unit_index]
        best_idx, best_cost = 0, None
        for idx, candidate in enumerate(options):
            cost = sum(used.get((s.concept_id, s.surface.lower()), 0) for s in candidate.sites)
            if best_cost is None or cost < best_cost:
                best_cost, best_idx = cost, idx
        chosen = options[best_idx]
        chosen_all.append(chosen)
        for s in chosen.sites:
            key = (s.concept_id, s.surface.lower())
            used[key] = used.get(key, 0) + 1
            provenance.setdefault(s.concept_id, []).append(
                ProvenanceEntry(unit_index, s.char_start, s.char_end, s.surface))
    return chosen_all, provenance


def reference_diversify_choice(p: Problem, theta: float, k: int,
                               scorer, resources: Resources
                               ) -> tuple[dict[int, str], dict[str, list[ProvenanceEntry]]]:
    """The rewrite pass with eager filtering: every candidate of every
    rewritten unit is scored against the original, then the greedy pass picks
    among the survivors, rewriting `k` sentences. Returns the chosen text per
    unit and the provenance."""
    inventory = reference_identify_repeated(p)
    if not inventory or k == 0:
        return {u: unit.text for u, unit in p.units()}, reference_passthrough(p).provenance
    variants = build_variants(inventory, resources.synonyms, resources.paraphrases)
    eligible = eligible_units(p, inventory, k)
    per_unit: dict[int, list[Candidate]] = {}
    for unit_index, unit in p.units():
        if unit_index in eligible:
            per_unit[unit_index] = _reference_candidates(
                unit, unit_index, inventory, variants, theta, scorer)
        else:
            sites = reference_unit_sites(inventory, unit_index)
            per_unit[unit_index] = [
                reference_splice(unit, [(cid, occ, occ.surface) for cid, occ in sites])]
    chosen, provenance = _reference_assemble(per_unit)
    order = sorted(per_unit, key=lambda u: (u == QUESTION_UNIT, u))
    return {u: c.text for u, c in zip(order, chosen)}, provenance


def reference_is_horn(premise: Formula) -> bool:
    """Fact (ground atom) or Horn implication with one positive consequent:
    any nesting of leading universal quantifiers around `body -> head` where
    the body is a conjunction of atoms."""
    f = premise
    while isinstance(f, ForAll):
        f = f.body
    if isinstance(f, Atom):
        return not any(isinstance(a, Var) for a in f.args)
    if isinstance(f, Implies):
        return _reference_is_atom_conjunction(f.left) and isinstance(f.right, Atom)
    return False


def _reference_is_atom_conjunction(f: Formula) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, And):
        return _reference_is_atom_conjunction(f.left) and _reference_is_atom_conjunction(f.right)
    return False


def reference_horn_parts(premise: Formula, registry: SymbolRegistry) -> tuple[list[Atom], Atom]:
    """Split a Horn premise into (body atoms, head atom); facts get empty body.
    `registry` names the symbols of a non-Horn premise in the error."""
    f = premise
    while isinstance(f, ForAll):
        f = f.body
    if isinstance(f, Atom):
        return [], f
    if isinstance(f, Implies) and isinstance(f.right, Atom):
        body: list[Atom] = []
        stack = [f.left]
        while stack:
            g = stack.pop()
            if isinstance(g, Atom):
                body.append(g)
            elif isinstance(g, And):
                stack.append(g.right)
                stack.append(g.left)
            else:
                raise NotHorn(f"non-atomic rule body: {render_formula(g, registry)}")
        return body, f.right
    raise NotHorn(f"not a Horn premise: {render_formula(premise, registry)}")


GroundAtom = tuple[str, tuple[str, ...]]


@dataclass
class Saturation:
    facts: set[GroundAtom]
    depths: dict[GroundAtom, int]
    firings: int


def _reference_ground(atom: Atom, env: dict[str, str]) -> GroundAtom:
    args = []
    for a in atom.args:
        if isinstance(a, Var):
            args.append(env[a.name])
        else:
            args.append(a.symbol)
    return (atom.pred, tuple(args))


def _reference_match_body(body: list[Atom], facts: set[GroundAtom], env: dict[str, str]):
    """Yield environments grounding every body atom against the fact base."""
    if not body:
        yield env
        return
    head, *rest = body
    for pred, args in sorted(facts):
        if pred != head.pred or len(args) != len(head.args):
            continue
        new_env = dict(env)
        ok = True
        for formal, actual in zip(head.args, args):
            if isinstance(formal, Const):
                if formal.symbol != actual:
                    ok = False
                    break
            else:
                bound = new_env.get(formal.name)
                if bound is None:
                    new_env[formal.name] = actual
                elif bound != actual:
                    ok = False
                    break
        if ok:
            yield from _reference_match_body(rest, facts, new_env)


def reference_saturate(p: LogicProgram) -> Saturation:
    """Least fixed point of the rule base, with per-fact derivation depth:
    forward chaining that matches facts in sorted order and keeps going
    until no fact is new and no depth can be lowered."""
    rules: list[tuple[list[Atom], Atom]] = []
    facts: set[GroundAtom] = set()
    depths: dict[GroundAtom, int] = {}
    for premise in p.premises:
        if not reference_is_horn(premise):
            raise NotHorn(f"premise is not Horn: {render_formula(premise, p.registry)}")
        body, head = reference_horn_parts(premise, p.registry)
        if not body:
            g = _reference_ground(head, {})
            facts.add(g)
            depths.setdefault(g, 0)
        else:
            rules.append((body, head))

    firings = 0
    changed = True
    while changed:
        changed = False
        for body, head in rules:
            for env in _reference_match_body(body, facts, {}):
                g = _reference_ground(head, env)
                depth = 1 + max(depths[_reference_ground(b, env)] for b in body)
                if g not in facts:
                    facts.add(g)
                    depths[g] = depth
                    firings += 1
                    changed = True
                elif depth < depths[g]:
                    depths[g] = depth
                    changed = True
    return Saturation(facts, depths, firings)


def reference_forward_chain(p: LogicProgram) -> Verdict:
    """Closed-world verdict of a program with a ground literal query, from
    `reference_saturate`: the query atom's membership in the fixed point,
    flipped for a negated query, with the firings as `steps`."""
    query = p.query
    negated = isinstance(query, Not)
    atom = query.body if negated else query
    saturation = reference_saturate(p)
    holds = _reference_ground(atom, {}) in saturation.facts
    return Verdict("true" if holds != negated else "false", steps=saturation.firings)


def proof_depth(p: Problem) -> int | None:
    """Rule applications needed for the (positive form of the) query; None
    when it is underivable. Used to verify generator depth claims."""
    assert p.gold_logic is not None
    gold = build_program(p.gold_logic)
    saturation = reference_saturate(gold)
    query = gold.query
    atom = query.body if isinstance(query, Not) else query
    assert isinstance(atom, Atom)
    key = (atom.pred, tuple(a.symbol for a in atom.args))
    return saturation.depths.get(key)


def reference_validate(p: LogicProgram) -> LogicProgram:
    """The whole-program check the references keep: every formula
    type-checked against the registry, then the world's check."""
    for f in (*p.premises, p.query):
        type_check(f, p.registry)
    return p.check_world()


def reference_program_from_json(data: dict) -> LogicProgram:
    """Program loading that parses every formula and then validates the
    whole program again, type check included."""
    registry = SymbolRegistry()
    premises = tuple(parse_formula(text, registry) for text in data["premises"])
    query = parse_formula(data["query"], registry)
    return reference_validate(LogicProgram(registry, premises, query,
                                           data.get("mode", OPEN_WORLD)))


# ---------------------------------------------------------------------------
# Table-guided translation with Counter-comparing oracle bags, dataclass
# tables and states updated through `dataclasses.replace`, expressions
# normalized at every table call, and each program validated in full, then
# rewrapped and validated again in the engine's world before solving.


class ReferenceExactMatchOracle:
    """The baseline as an oracle: only identical normalized surfaces group
    together, and nothing conflicts."""

    def equiv(self, e: str, expressions: tuple[str, ...]) -> bool:
        return _reference_normalize(e) in expressions

    def conflict(self, e: str, expressions: tuple[str, ...]) -> None:
        return None


class ReferenceLexiconOracle:
    """Compares representative Counters pair by pair, whatever their sizes."""

    def __init__(self, synlex):
        self._lexicon = _closure_with_links(synlex)
        self._rep_bags: dict[str, Counter] = {}

    def _reps(self, e: str) -> Counter:
        bag = self._rep_bags.get(e)
        if bag is None:
            bag = Counter(self._lexicon.representative(l) for l in content_lemmas(e))
            self._rep_bags[e] = bag
        return bag

    def equiv(self, e: str, expressions: tuple[str, ...]) -> bool:
        mine = self._reps(e)
        if not mine:
            return False
        return any(self._reps(other) == mine for other in expressions)

    def conflict(self, e: str, expressions: tuple[str, ...]) -> tuple[str, str] | None:
        mine = self._reps(e)
        for other in expressions:
            theirs = self._reps(other)
            if not mine or not theirs:
                continue
            if _reference_single_modifier_superset(mine, theirs):
                return other, _remainder_lemma(e, mine - theirs, self._lexicon)
            if _reference_single_modifier_superset(theirs, mine):
                return (_reference_normalize(e),
                        _remainder_lemma(other, theirs - mine, self._lexicon))
        return None


def _reference_single_modifier_superset(big: Counter, small: Counter) -> bool:
    if not (small <= big) or big == small:
        return False
    return sum((big - small).values()) == 1


def _reference_normalize(e: str) -> str:
    return " ".join(e.lower().split())


@dataclass(frozen=True)
class ReferenceSymbolRef:
    base: str
    modifier: str | None = None

    def render(self) -> str:
        return self.base if self.modifier is None else f"{self.modifier}&{self.base}"


@dataclass(frozen=True)
class ReferenceTableEntry:
    entry_id: int
    expressions: tuple[str, ...]
    symbol: str
    decomposition: tuple[str, str] | None = None

    def ref(self) -> ReferenceSymbolRef:
        if self.decomposition is not None:
            return ReferenceSymbolRef(*self.decomposition)
        return ReferenceSymbolRef(self.symbol)


@dataclass(frozen=True)
class ReferenceMentalTable:
    entries: tuple[ReferenceTableEntry, ...] = ()

    def entry_for(self, e: str) -> ReferenceTableEntry | None:
        norm = _reference_normalize(e)
        for entry in self.entries:
            if norm in entry.expressions:
                return entry
        return None

    def lookup(self, e: str) -> ReferenceSymbolRef | None:
        entry = self.entry_for(e)
        return entry.ref() if entry else None

    def fresh_symbol(self, e: str) -> str:
        base = camel_case_symbol(e)
        taken = {entry.symbol for entry in self.entries}
        for entry in self.entries:
            if entry.decomposition:
                taken.update(entry.decomposition)
        if base not in taken:
            return base
        n = 2
        while f"{base}{n}" in taken:
            n += 1
        return f"{base}{n}"

    def extend(self, e: str):
        entry = ReferenceTableEntry(len(self.entries), (_reference_normalize(e),),
                                    self.fresh_symbol(e))
        return ReferenceMentalTable(self.entries + (entry,)), entry

    def reuse(self, e: str, entry_id: int):
        norm = _reference_normalize(e)
        entries = list(self.entries)
        entry = entries[entry_id]
        if norm not in entry.expressions:
            entry = replace(entry, expressions=entry.expressions + (norm,))
            entries[entry_id] = entry
        return ReferenceMentalTable(tuple(entries)), entry

    def decompose(self, entry_id: int, base: str, modifier: str):
        entries = list(self.entries)
        entries[entry_id] = replace(entries[entry_id], decomposition=(base, modifier))
        return ReferenceMentalTable(tuple(entries))

    def add_decomposed(self, e: str, base: str, modifier: str):
        entry = ReferenceTableEntry(len(self.entries), (_reference_normalize(e),),
                                    self.fresh_symbol(e), (base, modifier))
        return ReferenceMentalTable(self.entries + (entry,)), entry


@dataclass(frozen=True)
class ReferenceTraceEvent:
    expression: str
    decision: str
    symbol: str
    program_revisions: int


@dataclass(frozen=True)
class ReferenceState:
    registry: SymbolRegistry
    premises: tuple[Formula, ...] = ()
    query: Formula | None = None
    table: ReferenceMentalTable = field(default_factory=ReferenceMentalTable)
    trace: tuple[ReferenceTraceEvent, ...] = ()
    revisions: int = 0
    semantics_mode: str = CLOSED_WORLD


def reference_process_expression(st: ReferenceState, e: str, oracle):
    if not e or not e.strip():
        raise TranslationFailure("empty expression")
    norm = _reference_normalize(e)
    hit = st.table.entry_for(norm)
    if hit is None:
        for entry in st.table.entries:
            if oracle.equiv(norm, entry.expressions):
                hit = entry
                break
    if hit is not None:
        table, entry = st.table.reuse(norm, hit.entry_id)
        ref = entry.ref()
        trace = st.trace + (ReferenceTraceEvent(norm, REUSE, ref.render(), st.revisions),)
        return replace(st, table=table, trace=trace), ref
    for entry in st.table.entries:
        found = oracle.conflict(norm, entry.expressions)
        if found is None:
            continue
        atomic, modifier_text = found
        out = st
        if _reference_normalize(atomic) == norm:
            table, base_entry = out.table.extend(norm)
            out = replace(out, table=table)
            out, modifier_ref = _reference_resolve_modifier(out, modifier_text, oracle)
            out = replace(out, table=out.table.decompose(
                entry.entry_id, base_entry.symbol, modifier_ref.base))
            out = _reference_refine_program(out, entry.symbol, base_entry.symbol,
                                            modifier_ref.base)
            ref = base_entry.ref()
        else:
            out, modifier_ref = _reference_resolve_modifier(out, modifier_text, oracle)
            table, new_entry = out.table.add_decomposed(norm, entry.symbol,
                                                        modifier_ref.base)
            out = replace(out, table=table)
            ref = new_entry.ref()
        trace = out.trace + (ReferenceTraceEvent(norm, REFINE, ref.render(), out.revisions),)
        return replace(out, trace=trace), ref
    table, entry = st.table.extend(norm)
    ref = entry.ref()
    trace = st.trace + (ReferenceTraceEvent(norm, EXTEND, ref.render(), st.revisions),)
    return replace(st, table=table, trace=trace), ref


def _reference_resolve_modifier(st: ReferenceState, modifier_text: str, oracle):
    norm = _reference_normalize(modifier_text)
    entry = st.table.entry_for(norm)
    if entry is None:
        for candidate in st.table.entries:
            if candidate.decomposition is None and oracle.equiv(norm, candidate.expressions):
                entry = candidate
                break
    if entry is not None:
        table, entry = st.table.reuse(norm, entry.entry_id)
        return replace(st, table=table), entry.ref()
    table, entry = st.table.extend(norm)
    return replace(st, table=table), entry.ref()


def _ensure_predicate(registry: SymbolRegistry, name: str, arity: int = 1) -> str:
    sid = registry.lookup(name, PREDICATE)
    if sid is None:
        sid = registry.declare(name, arity, PREDICATE)
    return sid


def _refine_symbol(p: LogicProgram, compound: str, left: str, right: str) -> LogicProgram:
    """The retired whole-program rewrite: every atom `compound(t)` becomes
    `left(t) & right(t)`, and the compound leaves the registry."""
    registry = deepcopy(p.registry)
    for sid in (compound, left, right):
        info = registry.info(sid)
        if info.kind != PREDICATE or info.arity != 1:
            raise ValueError(f"{info.name!r} is {info.kind} of arity {info.arity}")

    def expand(atom: Atom) -> Formula:
        if atom.pred != compound:
            return atom
        return And(Atom(left, atom.args), Atom(right, atom.args))

    premises = tuple(map_atoms(f, expand) for f in p.premises)
    query = map_atoms(p.query, expand) if p.query is not None else None
    info = registry.info(compound)
    del registry._by_name[(info.kind, info.name)]
    del registry._entries[compound]
    return LogicProgram(registry, premises, query, p.semantics_mode)


def _reference_refine_program(state: ReferenceState, compound_name: str, base_name: str,
                              modifier_name: str) -> ReferenceState:
    registry = deepcopy(state.registry)
    compound = registry.lookup(compound_name, PREDICATE)
    if compound is None:
        return state
    base = _ensure_predicate(registry, base_name)
    modifier = _ensure_predicate(registry, modifier_name)
    program = _refine_symbol(
        LogicProgram(registry, state.premises, state.query, state.semantics_mode),
        compound, modifier, base,
    )
    return replace(state, registry=program.registry, premises=program.premises,
                   query=program.query, revisions=state.revisions + 1)


def reference_instantiate(proposal: Proposal, resolved: dict, state: ReferenceState):
    scratch = SymbolRegistry()
    try:
        sketch = parse_formula(proposal.skeleton, scratch)
    except Exception as exc:
        raise TranslationFailure(f"unusable skeleton {proposal.skeleton!r}: {exc}") from exc
    registry = deepcopy(state.registry)
    slot_ids = {scratch.lookup(f"Slot{k}", PREDICATE): resolved[k]
                for k in range(len(proposal.slots))}
    slot_ids.pop(None, None)
    const_map: dict[str, str] = {}

    def migrate_const(symbol: str) -> str:
        if symbol not in const_map:
            name = scratch.name_of(symbol)
            sid = registry.lookup(name, CONSTANT)
            const_map[symbol] = sid if sid is not None else registry.declare(name, 0, CONSTANT)
        return const_map[symbol]

    def rebuild(atom: Atom) -> Formula:
        args = tuple(Const(migrate_const(a.symbol)) if isinstance(a, Const) else a
                     for a in atom.args)
        ref = slot_ids.get(atom.pred)
        if ref is None:
            return Atom(_ensure_predicate(registry, scratch.name_of(atom.pred), len(args)), args)
        base = Atom(_ensure_predicate(registry, ref.base, len(args)), args)
        if ref.modifier is None:
            return base
        return And(Atom(_ensure_predicate(registry, ref.modifier, len(args)), args), base)

    formula = map_atoms(sketch, rebuild)
    return replace(state, registry=registry), formula


def reference_translate_with_mental(problem: Problem, proposals: list[Proposal], oracle,
                                    steps: list | None = None):
    """Returns (program, table, trace) as `translate_with_mental` did when each
    refinement rewrote the program built so far; appends each routing step's
    (state, ref) to `steps` when given."""
    state = ReferenceState(SymbolRegistry(), semantics_mode=TASK_KINDS[problem.task_kind])
    if not proposals:
        return None, state.table, state.trace
    for proposal in proposals:
        resolved = {}
        for k, surface in enumerate(proposal.slots):
            state, resolved[k] = reference_process_expression(state, surface, oracle)
            if steps is not None:
                steps.append((state, resolved[k]))
        state, formula = reference_instantiate(proposal, resolved, state)
        if proposal.unit == QUESTION_UNIT:
            state = replace(state, query=formula)
        else:
            state = replace(state, premises=state.premises + (formula,))
    if state.query is None:
        raise TranslationFailure("no query was translated")
    program = reference_validate(LogicProgram(state.registry, state.premises, state.query,
                                              state.semantics_mode))
    return program, state.table, state.trace


def reference_table_text(table: ReferenceMentalTable) -> str:
    lines = []
    for entry in table.entries:
        if entry.decomposition:
            base, modifier = entry.decomposition
            target = f"{modifier}(x) & {base}(x)"
        else:
            target = entry.symbol
        lines.append(f"{{{', '.join(entry.expressions)}}} -> {target}")
    return "\n".join(lines)


def reference_program_block(program: LogicProgram) -> str:
    lines = ["```"]
    lines += [f"premise: {render_formula(p, program.registry)}" for p in program.premises]
    lines += [f"query: {render_formula(program.query, program.registry)}", "```"]
    return "\n".join(lines)


def reference_ledger(proposals: list[Proposal], table: ReferenceMentalTable) -> dict:
    out = {}
    for proposal in proposals:
        for surface, (start, end) in zip(proposal.slots, proposal.slot_spans):
            ref = table.lookup(surface)
            if ref is not None:
                out[(proposal.unit, start, end)] = ref.render()
        for start, end, symbol in proposal.anchors:
            out[(proposal.unit, start, end)] = symbol
    return out


def reference_evaluate_json(item: DiversifiedProblem, proposals: list[Proposal] | None,
                            oracle, raw_output: str | None = None, tokens: tuple = (0, 0),
                            solver: str = "auto") -> dict:
    """The serialized record of translating `item` from `proposals` (None: no
    template matched) through the reference translation and solving it with the
    full re-validation. `raw_output` None means the program block."""
    problem = item.problem
    base = {"problem_id": problem.id, "gold": problem.gold_answer,
            "tokens_in": tokens[0], "tokens_out": tokens[1]}
    try:
        if proposals is None:
            raise TranslationFailure(propose_failure(problem))
        program, table, trace = reference_translate_with_mental(problem, proposals, oracle)
    except TranslationFailure as exc:
        record = TranslationRecord(parse_error=str(exc), raw_output=raw_output or "",
                                   problem_id=problem.id, gold=problem.gold_answer)
        return _reference_record_json(record, None, [], base)
    record = TranslationRecord(
        program=program, raw_output=reference_program_block(program)
        if raw_output is None else raw_output,
        problem_id=problem.id, gold=problem.gold_answer,
        span_symbols=reference_ledger(proposals, table),
        table_text=reference_table_text(table),
    )
    engine = ENGINES[solver_for(problem.task_kind, solver)]
    try:
        record.verdict = engine.decide(
            reference_validate(LogicProgram(program.registry, program.premises,
                                            program.query, engine.world)), record.options)
        record.predicted = _predicted_label(record, problem.task_kind, engine)
    except (SolverError, FolError, SolverMismatch) as exc:
        record.exec_error = f"{type(exc).__name__}: {exc}"
    align_symbols(record, item)
    return _reference_record_json(record, program, trace, base)


# The regex template reader that the world's form table replaced.
_REFERENCE_SUBJECT = r"(?P<subj>[A-Z]\w*|[Tt]he \w+)"
_REFERENCE_FACT = re.compile(rf"^{_REFERENCE_SUBJECT} (?:is|was) (?P<neg>not )?(?P<attr>\w+)\.$")
_REFERENCE_RULE_ALL = re.compile(r"^All (?P<a>\w+) \w+ are (?P<b>\w+)\.$")
_REFERENCE_RULE_EVERY = re.compile(r"^Every (?P<a>\w+) \w+ is (?P<b>\w+)\.$")
_REFERENCE_RULE_IF = re.compile(r"^If someone is (?P<a>\w+), then they are (?P<b>\w+)\.$")
_REFERENCE_QUESTION = re.compile(rf"^Is {_REFERENCE_SUBJECT} (?P<neg>not )?(?P<attr>\w+)\?$")


def reference_propose_from_templates(p: Problem) -> list[Proposal]:
    """Per-unit skeletons from six fixed regexes; raises
    TranslationFailure on the first sentence none covers. It also reads the
    `was` copula, `The X` subjects and any rule restrictor noun."""
    proposals = []
    for unit_index, unit in p.units():
        text = unit.text
        is_query = unit_index == QUESTION_UNIT
        m = (_REFERENCE_QUESTION if is_query else _REFERENCE_FACT).match(text)
        if m:
            negation = "~" if m.groupdict().get("neg") else ""
            subject = camel_identifier(m.group("subj"))
            proposals.append(Proposal(
                unit=unit_index,
                skeleton=f"{negation}Slot0({subject})",
                slots=(m.group("attr"),),
                slot_spans=(m.span("attr"),),
                anchors=((*m.span("subj"), subject),),
            ))
            continue
        if not is_query:
            m = (_REFERENCE_RULE_ALL.match(text) or _REFERENCE_RULE_EVERY.match(text)
                 or _REFERENCE_RULE_IF.match(text))
            if m:
                proposals.append(Proposal(
                    unit=unit_index,
                    skeleton="all x (Slot0(x) -> Slot1(x))",
                    slots=(m.group("a"), m.group("b")),
                    slot_spans=(m.span("a"), m.span("b")),
                ))
                continue
        raise TranslationFailure(f"no template matches unit {unit_index}: {text!r}")
    return proposals


def propose_failure(problem: Problem) -> str:
    try:
        propose_from_templates(problem)
    except TranslationFailure as exc:
        return str(exc)
    raise AssertionError("templates matched")


def _reference_record_json(record: TranslationRecord, program: LogicProgram | None,
                           trace, base: dict) -> dict:
    logic = None
    if program is not None:
        logic = {"logic": {
            "premises": [render_formula(f, program.registry) for f in program.premises],
            "query": render_formula(program.query, program.registry),
            "mode": program.semantics_mode,
        }}
    verdict = None
    if record.verdict is not None:
        verdict = {"value": record.verdict.value, "option_index": record.verdict.option_index,
                   "steps": record.verdict.steps, "limit_hit": record.verdict.limit_hit}
    return {
        **base,
        "raw_output": record.raw_output,
        "program": logic,
        "parse_error": record.parse_error,
        "verdict": verdict,
        "exec_error": record.exec_error,
        "predicted": record.predicted,
        "alignment": {c: sorted(s) for c, s in sorted(record.alignment.items())},
        "span_symbols": [[u, s, e, sym] for (u, s, e), sym in sorted(record.span_symbols.items())],
        "alignment_misses": list(record.alignment_misses),
        "trace": [[t.expression, t.decision, t.symbol, t.program_revisions] for t in trace],
        "table": record.table_text,
    }


# ---------------------------------------------------------------------------
# Translator inputs and the chat client's test double.


def as_item(problem: Problem, resources: Resources) -> DiversifiedProblem:
    """`problem` as every caller in `src/` hands it to a translator: wrapped
    by `normalize_items` as a zero-intensity diversification."""
    [item] = normalize_items([problem], resources)
    return item


class StubClient:
    """Deterministic in-memory chat client: replies served in order, or
    computed from the prompt by `responder`; every prompt is kept, and the
    temperature it was sent at."""

    def __init__(self, replies=None, responder=None):
        self._replies = list(replies or [])
        self._responder = responder
        self._served = 0
        self.prompts: list[str] = []
        self.temperatures: list[float] = []

    def complete(self, prompt: str, temperature: float) -> Completion:
        self.prompts.append(prompt)
        self.temperatures.append(temperature)
        if self._responder is not None:
            completion = self._responder(prompt)
        else:
            if self._served >= len(self._replies):
                raise ClientError("stub exhausted its canned replies")
            completion = self._replies[self._served]
            self._served += 1
        return Completion(completion) if isinstance(completion, str) else completion
