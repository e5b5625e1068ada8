"""Shared fixtures: random program generation and tiny lexicon files."""

from __future__ import annotations

import heapq
import random
from itertools import product

from symdrift.diversify.concepts import ConceptConfig, select_sites
from symdrift.diversify.pipeline import (
    MAX_CANDIDATES_PER_UNIT,
    Candidate,
    CandidateSite,
    _passthrough_provenance,
    _site_options,
    _splice,
    eligible_units,
)
from symdrift.diversify.resources import Resources
from symdrift.diversify.variants import build_variants
from symdrift.errors import DomainTooLarge, FormulaSyntaxError
from symdrift.fol import (
    And,
    Atom,
    Clause,
    Const,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Literal,
    LogicProgram,
    Not,
    Or,
    OPEN_WORLD,
    SymbolRegistry,
    Var,
)
from symdrift.fol.parser import _Parser
from symdrift.fol.terms import type_check
from symdrift.problem import (
    QUESTION_UNIT,
    SENTENCE_LEVEL,
    ConceptEntry,
    ConceptInventory,
    ConceptOccurrence,
    Problem,
    ProvenanceEntry,
    TextUnit,
    VariantSet,
)
from symdrift.solver import Verdict
from symdrift.solver.enumeration import MAX_ATOM_BITS
from symdrift.solver.resolution import DEFAULT_MAX_STEPS, _clausify, apply_subst, unify_atoms
from symdrift.textproc import _TOKEN_RE, Token, _tag, lemmatize, tokenize

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
    return LogicProgram(registry, premises, query).validate()


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
    return LogicProgram(registry, tuple(premises), literal(consts)).validate()


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
    registry = p.registry.copy()
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


def _reference_saturate(clauses: list[Clause], max_steps: int) -> tuple[int, bool, bool]:
    """(steps, refuted, exhausted) of the given-clause loop with every clause
    renamed, sorted and matched afresh at each use."""
    processed: list[Clause] = []
    counter = 0
    queue: list[tuple[int, int, Clause]] = []
    seen: set[Clause] = set()

    def push(c: Clause) -> None:
        nonlocal counter
        c = reference_rename(c, "u")
        if c in seen:
            return
        seen.add(c)
        counter += 1
        heapq.heappush(queue, (len(c), counter, c))

    for c in clauses:
        push(c)
    steps = 0
    while queue:
        if steps >= max_steps:
            return steps, False, False
        _, _, given = heapq.heappop(queue)
        if not given:
            return steps, True, False
        if any(reference_subsumes(p, given) for p in processed):
            continue
        steps += 1
        processed = [p for p in processed if not reference_subsumes(given, p)]
        processed.append(given)
        new = list(_reference_factors(given))
        for other in processed:
            new.extend(_reference_resolvents(given, other))
        for c in new:
            if not c:
                return steps, True, False
            push(c)
    return steps, False, True


def reference_prove_resolution(p: LogicProgram, max_steps: int = DEFAULT_MAX_STEPS) -> Verdict:
    """The resolution prover as a plain given-clause loop: the specification
    that `prove_resolution` must match verdict for verdict, `steps` included."""
    pos_steps, pos_refuted, pos_exhausted = _reference_saturate(
        _clausify(p, negate_query=True), max_steps)
    if pos_refuted:
        return Verdict("proved", steps=pos_steps)
    neg_steps, neg_refuted, neg_exhausted = _reference_saturate(
        _clausify(p, negate_query=False), max_steps)
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


def reference_identify_repeated(p: Problem, cfg: ConceptConfig | None = None) -> ConceptInventory:
    """Concept identification that builds an occurrence for every window and
    drops the singleton grams afterwards."""
    cfg = cfg or ConceptConfig()
    raw: dict[tuple[str, ...], list[ConceptOccurrence]] = {}
    tags: dict[tuple[str, ...], tuple[str, ...]] = {}
    for unit_index, unit in p.units():
        words = [(i, t) for i, t in enumerate(unit.tokens) if t.is_word]
        for start in range(len(words)):
            for n in range(1, cfg.max_n + 1):
                if start + n > len(words):
                    break
                window = words[start:start + n]
                if window[-1][0] - window[0][0] != n - 1:
                    break
                lemmas = tuple(t.lemma for _, t in window)
                if all(l in cfg.stopwords for l in lemmas):
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

    inventory = ConceptInventory()
    for lemmas in sorted(raw, key=lambda k: (len(k), k)):
        occurrences = raw[lemmas]
        if len(occurrences) < 2:
            continue
        cid = " ".join(lemmas)
        inventory.entries[cid] = ConceptEntry(cid, lemmas, tags[lemmas], tuple(occurrences))
    return inventory


def _reference_rewrite_candidates(unit: TextUnit, unit_index: int,
                                  inventory: ConceptInventory,
                                  variants: VariantSet) -> list[Candidate]:
    texts: list[str] = []
    for cid in sorted(variants):
        for variant in variants[cid]:
            if variant.level == SENTENCE_LEVEL and variant.unit == unit_index:
                if variant.text not in texts:
                    texts.append(variant.text)
    out = []
    expected = select_sites(inventory.in_unit(unit_index))
    for text in texts:
        tokens = tokenize(text)
        found = []
        ok = True
        used: set[int] = set()
        for cid, _occ in expected:
            lemmas = inventory.entries[cid].lemmas
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


def _reference_candidates(unit: TextUnit, unit_index: int, inventory: ConceptInventory,
                          variants: VariantSet, theta: float, scorer) -> list[Candidate]:
    """Every candidate scored, the original kept unscored and first."""
    site_rows = select_sites(inventory.in_unit(unit_index))
    original = _splice(unit, [(cid, occ, occ.surface) for cid, occ in site_rows])
    combos: list[list[str]] = [[]]
    for cid, occ in site_rows:
        options = _site_options(cid, occ, variants, inventory.entries[cid].pos[0])
        combos = [prefix + [opt] for prefix in combos for opt in options]
        if len(combos) > MAX_CANDIDATES_PER_UNIT:
            combos = combos[:MAX_CANDIDATES_PER_UNIT]
    produced = [original]
    seen = {original.text}
    for combo in combos:
        candidate = _splice(unit, [
            (cid, occ, surface) for (cid, occ), surface in zip(site_rows, combo)
        ])
        if candidate.text not in seen:
            seen.add(candidate.text)
            produced.append(candidate)
    for candidate in _reference_rewrite_candidates(unit, unit_index, inventory, variants):
        if candidate.text not in seen:
            seen.add(candidate.text)
            produced.append(candidate)
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


def reference_diversify_choice(p: Problem, theta: float, intensity: int | None,
                               scorer, resources: Resources
                               ) -> tuple[dict[int, str], dict[str, list[ProvenanceEntry]]]:
    """The rewrite pass with eager filtering: every candidate of every
    rewritten unit is scored against the original, then the greedy pass picks
    among the survivors. Returns the chosen text per unit and the provenance."""
    inventory = reference_identify_repeated(p)
    k = len(p.sentences) if intensity is None else intensity
    if not inventory or k == 0:
        return {u: unit.text for u, unit in p.units()}, _passthrough_provenance(p, inventory)
    variants = build_variants(p, inventory, resources.synonyms, resources.paraphrases)
    eligible = eligible_units(p, inventory, k)
    per_unit: dict[int, list[Candidate]] = {}
    for unit_index, unit in p.units():
        if unit_index in eligible:
            per_unit[unit_index] = _reference_candidates(
                unit, unit_index, inventory, variants, theta, scorer)
        else:
            sites = select_sites(inventory.in_unit(unit_index))
            per_unit[unit_index] = [
                _splice(unit, [(cid, occ, occ.surface) for cid, occ in sites])]
    chosen, provenance = _reference_assemble(per_unit)
    order = sorted(per_unit, key=lambda u: (u == QUESTION_UNIT, u))
    return {u: c.text for u, c in zip(order, chosen)}, provenance
