"""Synthetic rule-base problems: facts plus attribute-implication chains.

Each problem asks whether a person has an attribute after following an
implication chain of a chosen depth. Every sentence and the question are one
fill of a proofwriter-world form (`symdrift.world`), which gives the text,
its gold formula and its gold concept spans at once; the gold answer is
computed by the closed-world engine (by construction, the solver is the label
oracle). True/False labels stay balanced within the batch.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from ..fol.parser import parse_program
from ..fol.terms import CLOSED_WORLD
from ..problem import Problem, QUESTION_UNIT, TASK_PROOFWRITER, TextUnit
from ..solver.chaining import forward_chain_cwa
from ..world import PROOFWRITER
from .config import SyntheticConfig

def generate_synthetic(cfg: SyntheticConfig) -> list[Problem]:
    rng = random.Random(cfg.seed)
    return [_generate_one(cfg, rng, index) for index in range(cfg.n_problems)]


def _generate_one(cfg: SyntheticConfig, rng: random.Random, index: int) -> Problem:
    depth = (index % cfg.depth) + 1
    want_true = index % 2 == 0
    negated = rng.random() < cfg.negation_rate
    pool_size = min(max(cfg.n_predicates, depth + 2), len(PROOFWRITER.attributes))
    attributes = rng.sample(PROOFWRITER.attributes, pool_size)
    people = rng.sample(PROOFWRITER.names, min(cfg.n_constants, len(PROOFWRITER.names)))
    subject = people[0]

    chain = attributes[:depth + 1]
    off_chain = attributes[depth + 1:]
    forms = PROOFWRITER.forms
    fact, rule = forms["fact"], forms["rule"]

    sentences = [fact.say(name=subject, attr=chain[0])]
    for i in range(depth):
        sentences.append(rule.say(a=chain[i], b=chain[i + 1]))

    # Distractors: rules over attributes the subject can never reach, and
    # facts about other people.
    for i in range(min(cfg.rule_branching, max(len(off_chain) - 1, 0))):
        sentences.append(rule.say(a=off_chain[i], b=off_chain[i + 1]))
    for person in people[1:]:
        if off_chain:
            sentences.append(fact.say(name=person, attr=rng.choice(off_chain)))

    rng.shuffle(sentences)

    # Target attribute: the chain's end for derivable queries, an unreachable
    # attribute otherwise. Negated questions flip the label.
    unreachable = off_chain[0] if off_chain else chain[0]
    target = chain[depth] if want_true != negated else unreachable
    question = forms["negated question" if negated else "question"].say(name=subject, attr=target)

    units = [TextUnit.from_text(said.text) for said in (*sentences, question)]
    gold_concepts = {}
    for unit_index, unit, said in zip([*range(len(sentences)), QUESTION_UNIT], units,
                                      (*sentences, question)):
        starts = [token.start for token in unit.tokens]
        for start, end, concept in said.spans:
            key = (unit_index, bisect_left(starts, start), bisect_left(starts, end))
            gold_concepts[key] = concept
    gold_logic = parse_program([said.formula for said in sentences], question.formula,
                               CLOSED_WORLD)

    return Problem(
        id=f"syn{cfg.seed}_{index:04d}",
        sentences=tuple(units[:-1]),
        question=units[-1],
        gold_answer=forward_chain_cwa(gold_logic).value,
        task_kind=TASK_PROOFWRITER,
        gold_logic=gold_logic,
        gold_concepts=gold_concepts,
    )
