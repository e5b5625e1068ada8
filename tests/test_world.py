"""The proofwriter world's form table: the generator writes from it, and the
naive reader reads the same texts as the regex reader it replaced."""

from __future__ import annotations

import pytest

from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem, sentence_count
from symdrift.diversify.resources import Resources
from symdrift.errors import TranslationFailure
from symdrift.harness.config import SyntheticConfig
from symdrift.harness.evaluate import translate_one
from symdrift.harness.synthetic import generate_synthetic
from symdrift.harness.translators import NaiveTranslator, propose_from_templates
from symdrift.problem import Problem, QUESTION_UNIT, TextUnit
from symdrift.world import ATTRIBUTES, NAMES, PROOFWRITER

from .helpers import as_item, reference_propose_from_templates

# One hand-written sentence per text of each form, in table order.
HAND_WRITTEN = {
    "fact": ["Anne is kind."],
    "negated fact": ["Anne is not kind."],
    "rule": ["All kind people are smart.", "Every kind person is smart.",
             "If someone is kind, then they are smart."],
    "question": ["Is Anne kind?"],
    "negated question": ["Is Anne not kind?"],
}


def make_problem(premises: list[str], question: str) -> Problem:
    return Problem(id="w", sentences=tuple(TextUnit.from_text(s) for s in premises),
                   question=TextUnit.from_text(question), gold_answer="true",
                   task_kind="proofwriter")


def reading(propose, problem: Problem):
    """`propose`'s proposals for `problem`, or the text of its failure."""
    try:
        return propose(problem)
    except TranslationFailure as exc:
        return str(exc)


def hand_written_problem(form_name: str, text: str) -> tuple[Problem, int]:
    """A problem whose one premise, or whose question, is `text`, and the
    unit it sits in."""
    if PROOFWRITER.forms[form_name].query:
        return make_problem(["Anne is kind."], text), QUESTION_UNIT
    return make_problem([text], "Is Anne smart?"), 0


@pytest.fixture(scope="module")
def resources() -> Resources:
    return Resources.load()


@pytest.fixture(scope="module", params=[1, 7], ids=["seed1", "seed7"])
def plain(request) -> list[Problem]:
    return generate_synthetic(SyntheticConfig(n_problems=1000, seed=request.param))


def diversified(problems: list[Problem], resources: Resources, theta: float,
                level: float) -> list[Problem]:
    return [diversify_problem(p, DiversifyConfig(
        theta=theta, intensity=sentence_count(level, len(p.sentences)), resources=resources,
    )).problem for p in problems]


def test_gold_spans_cover_exactly_the_slot_words(plain):
    """In every unit, the gold spans are the tokens of the words that filled
    the slots of the form the unit says, each keyed to that word."""
    vocabulary = set(ATTRIBUTES) | {name.lower() for name in NAMES}
    for p in plain:
        for unit_index, unit in p.units():
            patterns = [pattern for form in PROOFWRITER.forms.values()
                        if form.query == (unit_index == QUESTION_UNIT) for pattern in form.patterns]
            m = next(m for pattern in patterns if (m := pattern.fullmatch(unit.text)))
            expected = {}
            for slot in m.re.groupindex:
                start, end = m.span(slot)
                covered = [i for i, t in enumerate(unit.tokens) if start <= t.start and t.end <= end]
                expected[(unit_index, covered[0], covered[-1] + 1)] = m.group(slot).lower()
            spans = {key: concept for key, concept in p.gold_concepts.items()
                     if key[0] == unit_index}
            assert spans == expected, (p.id, unit.text)
            for (_, start, end), concept in spans.items():
                words = " ".join(t.surface for t in unit.tokens[start:end])
                assert words.lower() == concept and concept in vocabulary


@pytest.mark.parametrize("theta, level", [(None, None), (0.9, 1.0), (0.3, 0.5)],
                         ids=["plain", "full", "theta0.3-intensity0.5"])
def test_reader_matches_the_regex_reference(plain, resources, theta, level):
    problems = plain if theta is None else diversified(plain, resources, theta, level)
    for p in problems:
        assert reading(propose_from_templates, p) == reading(reference_propose_from_templates, p)
    if theta == 0.3:
        assert any(u.text.startswith("Every ") for p in problems for u in p.sentences)


def test_hand_written_texts_read_as_the_reference_reads_them():
    assert list(HAND_WRITTEN) == list(PROOFWRITER.forms)
    for form_name, texts in HAND_WRITTEN.items():
        assert len(texts) == len(PROOFWRITER.forms[form_name].texts)
        for text in texts:
            problem, _ = hand_written_problem(form_name, text)
            proposals = propose_from_templates(problem)
            assert proposals == reference_propose_from_templates(problem)


@pytest.mark.parametrize("premise, question", [
    ("Anne was kind.", "Is Anne smart?"),
    ("Anne was not kind.", "Is Anne smart?"),
    ("The cat is kind.", "Is Anne smart?"),
    ("All kind cats are smart.", "Is Anne smart?"),
    ("Every kind cat is smart.", "Is Anne smart?"),
    ("Anne is kind.", "Is the cat smart?"),
])
def test_forms_no_world_writes_are_refused(premise, question, resources):
    """The regex reader read these; no world writes them, so a naive
    translation is a parse-error record."""
    problem = make_problem([premise], question)
    reference_propose_from_templates(problem)
    with pytest.raises(TranslationFailure, match="no template matches"):
        propose_from_templates(problem)
    record = translate_one(as_item(problem, resources), NaiveTranslator())
    assert record.parse_error.startswith("no template matches")


def test_texts_of_one_form_give_one_skeleton_and_formula(resources):
    """Every text of a form reads as the same naive skeleton and slots, and
    translates to the same formula: the form's texts are equivalent."""
    for form_name, texts in HAND_WRITTEN.items():
        readings = set()
        for text in texts:
            problem, unit = hand_written_problem(form_name, text)
            proposal = next(p for p in propose_from_templates(problem) if p.unit == unit)
            record = translate_one(as_item(problem, resources), NaiveTranslator())
            formula = record.rendering[unit] if record.program else record.parse_error
            readings.add((proposal.skeleton, proposal.slots, formula))
        assert len(readings) == 1, readings
