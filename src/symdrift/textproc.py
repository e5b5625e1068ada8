"""Deterministic English tokenization, lemmatization, and POS tagging.

Everything here is rule-based (suffix stripping plus exception tables), so the
whole pipeline runs offline and byte-reproducibly. Coverage targets the
benchmark register (short declarative sentences about named individuals and
their attributes), not open-domain text. Tokenizing is pure and memoized for
the life of the process: each distinct word is annotated once and each
distinct text tokenized once, and every caller of a text shares its one tuple
of immutable tokens.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

# Word-internal hyphens/apostrophes stay inside one token.
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z'\-]*|\d+|[^\sA-Za-z\d]")

STOPWORDS = frozenset(
    """a an the is are was were be been being am do does did not no nor and or
    but if then than that this these those there of to in on at by for with as
    from into over under it its he she they them his her their who whom which
    what all every each some any someone anyone something anything one ones
    s""".split()
)

# Irregular nouns; `pluralize` reads it forward and `lemmatize` inverted.
_IRREGULAR_PLURALS = {
    "person": "people", "child": "children", "man": "men", "woman": "women",
    "mouse": "mice", "goose": "geese", "foot": "feet", "tooth": "teeth",
    "wolf": "wolves", "life": "lives", "leaf": "leaves", "shelf": "shelves",
}

# Irregular lemmas the suffix rules would get wrong.
_LEMMA_EXCEPTIONS = {
    "is": "be", "are": "be", "was": "be", "were": "be", "am": "be",
    "been": "be", "being": "be",
    "has": "have", "had": "have", "having": "have",
    "does": "do", "did": "do", "done": "do", "doing": "do",
    **{plural: noun for noun, plural in _IRREGULAR_PLURALS.items()},
    "better": "good", "best": "good", "worse": "bad", "worst": "bad",
    "likes": "like", "liked": "like", "liking": "like",
    "chases": "chase", "chased": "chase", "chasing": "chase",
    "sees": "see", "saw": "see", "seen": "see", "seeing": "see",
    "eats": "eat", "ate": "eat", "eaten": "eat", "eating": "eat",
    "needs": "need", "needed": "need", "needing": "need",
    "visits": "visit", "visited": "visit", "visiting": "visit",
    "admires": "admire", "admired": "admire", "admiring": "admire",
    "shows": "show", "showed": "show", "shown": "show", "showing": "show",
}

# Closed-class words with a fixed tag.
_CLOSED_CLASS = {
    "a": "DET", "an": "DET", "the": "DET", "all": "DET", "every": "DET",
    "each": "DET", "some": "DET", "any": "DET", "no": "DET", "this": "DET",
    "that": "DET", "these": "DET", "those": "DET",
    "be": "VERB", "have": "VERB", "do": "VERB",
    "not": "ADV", "nor": "CONJ", "and": "CONJ", "or": "CONJ", "but": "CONJ",
    "if": "CONJ", "then": "ADV",
    "he": "PRON", "she": "PRON", "it": "PRON", "they": "PRON", "them": "PRON",
    "his": "PRON", "her": "PRON", "their": "PRON", "who": "PRON",
    "someone": "PRON", "anyone": "PRON", "something": "PRON",
    "of": "ADP", "to": "ADP", "in": "ADP", "on": "ADP", "at": "ADP",
    "by": "ADP", "for": "ADP", "with": "ADP", "as": "ADP", "from": "ADP",
    "into": "ADP", "over": "ADP", "under": "ADP", "than": "ADP",
    "there": "ADV", "very": "ADV", "only": "ADV", "also": "ADV",
}

# Open-class words whose tag the suffix heuristics cannot recover. Mostly the
# attribute vocabulary of rule-base benchmarks plus this package's lexicons.
_OPEN_CLASS = {
    "kind": "ADJ", "smart": "ADJ", "tall": "ADJ", "big": "ADJ", "small": "ADJ",
    "nice": "ADJ", "quiet": "ADJ", "loud": "ADJ", "young": "ADJ", "old": "ADJ",
    "red": "ADJ", "green": "ADJ", "blue": "ADJ", "white": "ADJ", "cold": "ADJ",
    "round": "ADJ", "rough": "ADJ", "smooth": "ADJ", "furry": "ADJ",
    "happy": "ADJ", "sad": "ADJ", "strong": "ADJ", "weak": "ADJ",
    "brave": "ADJ", "calm": "ADJ", "gentle": "ADJ", "honest": "ADJ",
    "polite": "ADJ", "tidy": "ADJ", "bright": "ADJ", "clever": "ADJ",
    "benevolent": "ADJ", "caring": "ADJ", "intelligent": "ADJ",
    "courageous": "ADJ", "fearless": "ADJ", "truthful": "ADJ",
    "sincere": "ADJ", "courteous": "ADJ", "orderly": "ADJ", "neat": "ADJ",
    "silent": "ADJ", "hushed": "ADJ", "mighty": "ADJ", "powerful": "ADJ",
    "joyful": "ADJ", "cheerful": "ADJ", "serene": "ADJ", "peaceful": "ADJ",
    "amiable": "ADJ", "friendly": "ADJ", "popular": "ADJ", "famous": "ADJ",
    "sharp": "ADJ", "keen": "ADJ", "wise": "ADJ", "sage": "ADJ",
    "person": "NOUN", "individual": "NOUN", "human": "NOUN", "child": "NOUN",
    "adult": "NOUN", "student": "NOUN", "pupil": "NOUN", "learner": "NOUN",
    "teacher": "NOUN", "parent": "NOUN", "show": "NOUN", "program": "NOUN",
    "thing": "NOUN", "object": "NOUN", "animal": "NOUN", "creature": "NOUN",
    "kindness": "NOUN", "smartness": "NOUN", "intelligence": "NOUN",
    "courage": "NOUN", "honesty": "NOUN", "strength": "NOUN",
    "like": "VERB", "chase": "VERB", "see": "VERB", "eat": "VERB",
    "need": "VERB", "visit": "VERB", "admire": "VERB", "know": "VERB",
}

_VOWELS = set("aeiou")


class Token(NamedTuple):
    surface: str
    lemma: str
    pos: str
    start: int  # char offset in the owning text
    end: int

    @property
    def is_word(self) -> bool:
        return self.pos != "PUNCT"


def lemmatize(word: str) -> str:
    """Lowercased lemma via exception table, then suffix stripping."""
    w = word.lower()
    if w in _LEMMA_EXCEPTIONS:
        return _LEMMA_EXCEPTIONS[w]
    if w in _CLOSED_CLASS or w in _OPEN_CLASS:
        return w
    if w.endswith("ies") and len(w) > 4:
        return w[:-3] + "y"
    if w.endswith("sses") or w.endswith("shes") or w.endswith("ches") or w.endswith("xes"):
        return w[:-2]
    if w.endswith("s") and not w.endswith("ss") and len(w) > 3:
        return w[:-1]
    if w.endswith("ing") and len(w) > 5:
        stem = w[:-3]
        if len(stem) > 2 and stem[-1] == stem[-2]:  # runn-ing
            stem = stem[:-1]
        elif stem[-1] not in _VOWELS and len(stem) > 2 and stem[-2] not in _VOWELS:
            pass
        elif stem + "e" in _OPEN_CLASS:  # chas-ing
            stem = stem + "e"
        return stem
    if w.endswith("ed") and len(w) > 4:
        stem = w[:-2]
        if len(stem) > 2 and stem[-1] == stem[-2]:
            stem = stem[:-1]
        elif stem + "e" in _OPEN_CLASS:
            stem = stem + "e"
        return stem
    return w


def _tag(surface: str, lemma: str, sentence_initial: bool) -> str:
    """The part of speech of a word, a surface that starts with a letter."""
    lw = surface.lower()
    if lw in _CLOSED_CLASS:
        return _CLOSED_CLASS[lw]
    if lemma in _CLOSED_CLASS:
        return _CLOSED_CLASS[lemma]
    if lemma in _OPEN_CLASS:
        return _OPEN_CLASS[lemma]
    if surface[0].isupper() and not sentence_initial:
        return "PROPN"
    if lw.endswith("ly"):
        return "ADV"
    if lw.endswith(("ness", "ity", "ment", "tion", "sion", "ship", "hood")):
        return "NOUN"
    if lw.endswith(("ous", "ful", "ive", "able", "ible", "al", "ic", "ish", "less")):
        return "ADJ"
    if surface[0].isupper():
        # Sentence-initial unknown capitalized word: treat as a proper name.
        return "PROPN"
    return "NOUN"


@lru_cache(maxsize=None)
def _annotate(surface: str, sentence_initial: bool) -> tuple[str, str]:
    """(lemma, pos) of one token surface; only words read `sentence_initial`."""
    if surface[0].isalpha():
        lemma = lemmatize(surface)
        pos = _tag(surface, lemma, sentence_initial)
        return (surface.lower() if pos == "PROPN" else lemma), pos
    if surface[0].isdigit():
        return surface, "NUM"
    return surface, "PUNCT"


@lru_cache(maxsize=None)
def tokenize(text: str) -> tuple[Token, ...]:
    """Tokenize one sentence-sized text into annotated tokens."""
    tokens: list[Token] = []
    first_word = True
    for m in _TOKEN_RE.finditer(text):
        surface = m.group(0)
        lemma, pos = _annotate(surface, first_word)
        if pos != "PUNCT":
            first_word = False
        tokens.append(Token(surface, lemma, pos, m.start(), m.end()))
    return tuple(tokens)


def match_surface(variant: str, original_surface: str, pos: str) -> str:
    """Adapt `variant` (a lemma-form replacement) to the shape of the original.

    Handles capitalization and the plural/3sg `-s` inflections that the
    benchmark register actually uses; anything fancier passes through as-is.
    """
    out = variant
    orig_lower = original_surface.lower()
    orig_lemma = lemmatize(original_surface)
    if pos == "NOUN" and orig_lower != orig_lemma:
        out = pluralize(out)
    elif pos == "VERB" and orig_lower != orig_lemma and orig_lower.endswith("s"):
        out = pluralize(out)
    if original_surface[:1].isupper():
        out = out[:1].upper() + out[1:]
    return out


def pluralize(word: str) -> str:
    if word in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[word]
    if word.endswith(("s", "sh", "ch", "x", "z")):
        return word + "es"
    if word.endswith("y") and len(word) > 1 and word[-2] not in _VOWELS:
        return word[:-1] + "ies"
    return word + "s"


def content_lemmas(text: str) -> list[str]:
    """Non-stopword word lemmas, in order. Used by expression-level matching."""
    return [t.lemma for t in tokenize(text) if t.is_word and t.lemma not in STOPWORDS]


def word_lemmas(text: str) -> list[str]:
    """All word-token lemmas (punctuation dropped), in order."""
    return [t.lemma for t in tokenize(text) if t.is_word]
