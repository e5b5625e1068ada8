"""Variant construction: the parallel word / phrase / sentence scheme.

Word-level variants come from the synonym lexicon keyed by (lemma, pos) and
phrase-level ones from the paraphrase table; both belong to a concept and
replace it at each of its sites. Sentence-level rewrites belong to a unit:
the rule rewriter maps a whole sentence to its other templates, and
candidate generation asks it for each unit that has rewrite sites.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..problem import ConceptInventory, PHRASE_LEVEL, Variant, VariantSet, WORD_LEVEL
from ..textproc import word_lemmas
from .resources import ParaphraseTable, SynonymLexicon

MAX_VARIANT_TOKENS = 4


@dataclass(frozen=True)
class RewriteRule:
    pattern: re.Pattern
    # `str.format` templates over the pattern's groups: `{0}` is group 1.
    templates: tuple[str, ...]


# Controlled syntactic rewrites over the rule-sentence shapes that dominate
# rule-base benchmarks. Concept words sit inside the capture groups, so the
# rewrite never destroys them.
_RULES = (
    RewriteRule(
        re.compile(r"All (\w+) people are (\w+)\."),
        ("Every {0} person is {1}.", "If someone is {0}, then they are {1}."),
    ),
    RewriteRule(
        re.compile(r"Every (\w+) person is (\w+)\."),
        ("All {0} people are {1}.", "If someone is {0}, then they are {1}."),
    ),
    RewriteRule(
        re.compile(r"If someone is (\w+), then they are (\w+)\."),
        ("All {0} people are {1}.", "Every {0} person is {1}."),
    ),
)


class RuleRewriter:
    """Deterministic template-to-template sentence rewrites."""

    def rewrite(self, sentence: str) -> list[str]:
        out: list[str] = []
        for rule in _RULES:
            m = rule.pattern.fullmatch(sentence)
            if not m:
                continue
            groups = m.groups()
            for template in rule.templates:
                rewritten = template.format(*groups)
                if rewritten != sentence:
                    out.append(rewritten)
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
