"""Variant construction: the parallel word / phrase / sentence scheme.

Word-level variants come from the synonym lexicon keyed by (lemma, pos) and
phrase-level ones from the paraphrase table; both belong to a concept and
replace it at each of its sites. Sentence-level rewrites belong to a unit:
the rule rewriter maps a sentence that matches one text of a world form
(`symdrift.world`) to that form's other texts, and candidate generation asks
it for each unit that has rewrite sites.
"""

from __future__ import annotations

from ..problem import ConceptInventory, PHRASE_LEVEL, Variant, VariantSet, WORD_LEVEL
from ..textproc import word_lemmas
from ..world import PROOFWRITER
from .resources import ParaphraseTable, SynonymLexicon

MAX_VARIANT_TOKENS = 4


# Each text of a world form that has others, with those others in table
# order. Every slot is a whole word, so a rewrite never breaks a concept word.
_PARTNERS = tuple(
    (pattern, tuple(other for other in form.texts if other != text))
    for form in PROOFWRITER.forms.values() if len(form.texts) > 1
    for text, pattern in zip(form.texts, form.patterns)
)


class RuleRewriter:
    """Deterministic template-to-template sentence rewrites."""

    def rewrite(self, sentence: str) -> list[str]:
        out: list[str] = []
        for pattern, others in _PARTNERS:
            m = pattern.fullmatch(sentence)
            if m:
                out += [other.format_map(m.groupdict()) for other in others]
        return out


def build_variants(inv: ConceptInventory, synlex: SynonymLexicon,
                   paratab: ParaphraseTable) -> VariantSet:
    """Per-concept word- and phrase-level variants; concepts the resources
    cannot cover get an empty list (callers treat that as the flagged
    no-variant case)."""
    out: VariantSet = {}
    for cid in sorted(inv):
        entry = inv[cid]
        variants: list[Variant] = []
        if len(entry.lemmas) == 1:
            for syn in synlex.synonyms(entry.lemmas[0], entry.pos[0]):
                if syn != entry.lemmas[0]:
                    variants.append(Variant(syn, WORD_LEVEL))
        for text, _score in paratab.paraphrases(entry.lemmas):
            if len(word_lemmas(text)) <= MAX_VARIANT_TOKENS and text.lower() != cid:
                variants.append(Variant(text, PHRASE_LEVEL))
        # Drop anything identical to the canonical surface.
        surfaces = {occ.surface.lower() for occ in entry.occurrences}
        out[cid] = [v for v in variants if v.text.lower() not in surfaces]
    return out
