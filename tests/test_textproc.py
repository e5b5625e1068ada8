"""Tokenizer, lemmatizer, tagger, and inflection behaviour."""

from __future__ import annotations

import pytest

from symdrift.diversify.pipeline import DiversifyConfig, diversify_problem
from symdrift.diversify.resources import Resources
from symdrift.harness.config import SyntheticConfig
from symdrift.harness.synthetic import generate_synthetic
from symdrift.textproc import (
    content_lemmas,
    lemmatize,
    match_surface,
    pluralize,
    tokenize,
    word_lemmas,
)

from .helpers import reference_tokenize


class TestLemmatizer:
    def test_copula_forms(self):
        assert lemmatize("is") == "be"
        assert lemmatize("are") == "be"

    def test_irregular_plural(self):
        assert lemmatize("people") == "person"

    @pytest.mark.parametrize("noun", [
        "person", "child", "man", "woman", "mouse", "goose", "foot", "tooth",
        "wolf", "life", "leaf", "shelf",
    ])
    def test_irregular_plural_lemmatizes_back(self, noun):
        assert pluralize(noun) != noun + "s"
        assert lemmatize(pluralize(noun)) == noun

    def test_regular_plural(self):
        assert lemmatize("shows") == "show"
        assert lemmatize("students") == "student"

    def test_open_class_words_stay_put(self):
        assert lemmatize("caring") == "caring"
        assert lemmatize("benevolent") == "benevolent"


class TestTagger:
    def test_sentence(self):
        tokens = tokenize("All kind people are smart.")
        tags = [(t.surface, t.lemma, t.pos) for t in tokens]
        assert tags == [
            ("All", "all", "DET"),
            ("kind", "kind", "ADJ"),
            ("people", "person", "NOUN"),
            ("are", "be", "VERB"),
            ("smart", "smart", "ADJ"),
            (".", ".", "PUNCT"),
        ]

    def test_proper_noun(self):
        tokens = tokenize("Anne is kind.")
        assert tokens[0].pos == "PROPN" and tokens[0].lemma == "anne"

    def test_char_spans_cover_surfaces(self):
        text = "Is Anne not smart?"
        for token in tokenize(text):
            assert text[token.start:token.end] == token.surface


class TestInflection:
    def test_adjective_passthrough(self):
        assert match_surface("benevolent", "kind", "ADJ") == "benevolent"

    def test_capitalization_copied(self):
        assert match_surface("benevolent", "Kind", "ADJ") == "Benevolent"

    def test_plural_noun(self):
        assert match_surface("individual", "people", "NOUN") == "individuals"

    def test_irregular_plural(self):
        assert pluralize("person") == "people"

    def test_verb_third_person(self):
        assert match_surface("admire", "likes", "VERB") == "admires"


def test_word_vs_content_lemmas():
    assert word_lemmas("Anne is kind") == ["anne", "be", "kind"]
    assert content_lemmas("the popular show") == ["popular", "show"]


def test_memoized_tokenize_matches_reference():
    """Every unit of a generated set and of its full diversification, and
    every lexicon word alone, capitalized and in a sentence, tokenizes as the
    unmemoized tokenizer does, on the first call and on the cached second."""
    resources = Resources.load()
    texts = []
    for p in generate_synthetic(SyntheticConfig(n_problems=60, seed=7)):
        d = diversify_problem(p, DiversifyConfig(resources=resources))
        texts += [u.text for _, u in p.units()] + [u.text for _, u in d.problem.units()]
    for lemma, pos in resources.synonyms.entries():
        for word in (lemma, *resources.synonyms.synonyms(lemma, pos)):
            texts += [word, word.capitalize(), f"Anne is {word}."]
    tokenize.cache_clear()
    for text in texts:
        first = tokenize(text)
        assert first == reference_tokenize(text)
        assert tokenize(text) is first
    assert tokenize.cache_info().hits >= len(texts)
