"""Synthetic rule-base problems: facts plus attribute-implication chains.

Each problem asks whether a person has an attribute after following an
implication chain of a chosen depth. The surface text comes from fixed
templates, gold logic and concept spans are emitted alongside, and the gold
answer is computed by the closed-world engine (by construction, the solver is
the label oracle). True/False labels stay balanced within the batch.
"""

from __future__ import annotations

import random
from dataclasses import replace

from ..fol.parser import parse_program
from ..fol.terms import CLOSED_WORLD, camel_identifier
from ..problem import Problem, QUESTION_UNIT, TASK_PROOFWRITER, TextUnit
from ..solver.chaining import forward_chain_cwa
from .config import SyntheticConfig

# Vocabulary mirrored in the bundled synonym lexicon so that every attribute
# and name is diversifiable.
ATTRIBUTES = (
    "kind", "smart", "tall", "quiet", "strong", "happy", "calm", "brave",
    "honest", "polite", "tidy", "wise", "friendly", "gentle", "young",
    "cold", "big", "red", "green", "round",
)
NAMES = (
    "Anne", "Bob", "Carol", "Dave", "Erin", "Fred", "Gail", "Harry", "Ivy",
    "Jack", "Kate", "Leo", "Mona", "Nick", "Olive", "Paul", "Quinn", "Rose",
    "Sam", "Tina",
)


def _fact_text(name: str, attribute: str) -> str:
    return f"{name} is {attribute}."

def _rule_text(premise: str, conclusion: str) -> str:
    return f"All {premise} people are {conclusion}."

def _question_text(name: str, attribute: str, negated: bool) -> str:
    if negated:
        return f"Is {name} not {attribute}?"
    return f"Is {name} {attribute}?"


def generate_synthetic(cfg: SyntheticConfig) -> list[Problem]:
    rng = random.Random(cfg.seed)
    problems = []
    for index in range(cfg.n_problems):
        depth = (index % cfg.depth) + 1
        want_true = index % 2 == 0
        negated = rng.random() < cfg.negation_rate
        problems.append(_generate_one(cfg, rng, index, depth, want_true, negated))
    return problems


def _generate_one(cfg: SyntheticConfig, rng: random.Random, index: int,
                  depth: int, want_true: bool, negated: bool) -> Problem:
    pool_size = min(max(cfg.n_predicates, depth + 2), len(ATTRIBUTES))
    attributes = rng.sample(ATTRIBUTES, pool_size)
    people = rng.sample(NAMES, min(cfg.n_constants, len(NAMES)))
    subject = people[0]

    chain = attributes[:depth + 1]
    off_chain = attributes[depth + 1:]

    sentences: list[str] = [_fact_text(subject, chain[0])]
    for i in range(depth):
        sentences.append(_rule_text(chain[i], chain[i + 1]))

    # Distractors: rules over attributes the subject can never reach, and
    # facts about other people.
    branching = cfg.rule_branching
    for i in range(min(branching, max(len(off_chain) - 1, 0))):
        sentences.append(_rule_text(off_chain[i], off_chain[i + 1]))
    for person in people[1:]:
        if off_chain:
            sentences.append(_fact_text(person, rng.choice(off_chain)))

    order = list(range(len(sentences)))
    rng.shuffle(order)
    sentences = [sentences[i] for i in order]

    # Target attribute: the chain's end for derivable queries, an unreachable
    # attribute otherwise. Negated questions flip the label.
    derivable_target = chain[depth]
    unreachable_target = off_chain[0] if off_chain else chain[0]
    if want_true != negated:
        target = derivable_target
    else:
        target = unreachable_target
    question = _question_text(subject, target, negated)

    negation = "~" if negated else ""
    gold_logic = parse_program([_sentence_to_logic(s) for s in sentences],
                               f"{negation}{camel_identifier(target)}({subject})",
                               CLOSED_WORLD)

    problem = Problem(
        id=f"syn{cfg.seed}_{index:04d}",
        sentences=tuple(TextUnit.from_text(s) for s in sentences),
        question=TextUnit.from_text(question),
        gold_answer="",  # filled below from the solver
        task_kind=TASK_PROOFWRITER,
        gold_logic=gold_logic,
        gold_concepts=_concept_spans(sentences, question),
    )
    verdict = forward_chain_cwa(gold_logic)
    return replace(problem, gold_answer=verdict.value)


def _sentence_to_logic(sentence: str) -> str:
    words = sentence.rstrip(".").split()
    if words[0] == "All":  # All <attr> people are <attr>.
        return f"all x ({camel_identifier(words[1])}(x) -> {camel_identifier(words[4])}(x))"
    name, _is, attribute = words  # <Name> is <attr>.
    return f"{camel_identifier(attribute)}({name})"


def _concept_spans(sentences: list[str], question: str) -> dict[tuple[int, int, int], str]:
    """Token spans of every name and attribute mention, keyed to its concept
    (the lowercased word itself)."""
    spans: dict[tuple[int, int, int], str] = {}
    vocabulary = {a for a in ATTRIBUTES} | {n.lower() for n in NAMES}
    for unit, text in [*enumerate(sentences), (QUESTION_UNIT, question)]:
        unit_tokens = TextUnit.from_text(text).tokens
        for i, token in enumerate(unit_tokens):
            if token.lemma in vocabulary:
                spans[(unit, i, i + 1)] = token.lemma
    return spans

