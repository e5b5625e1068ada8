"""Concept identification, variants, similarity and pipeline."""

from __future__ import annotations

import itertools
import re

import pytest

from symdrift.diversify.concepts import identify_repeated, select_sites
from symdrift.diversify.pipeline import (
    Candidate,
    CandidatePool,
    CandidateSite,
    DiversifyConfig,
    assemble,
    diversify_problem,
    generate_candidates,
)
from symdrift.diversify.resources import Resources, SynonymLexicon
from symdrift.diversify.similarity import FallbackScorer, make_scorer, score_similarity
from symdrift.diversify.variants import RuleRewriter, build_variants
from symdrift.errors import ResourceMissing, ScorerUnavailable
from symdrift.problem import ConceptOccurrence, Problem, QUESTION_UNIT, TextUnit
from symdrift.world import PROOFWRITER

from .helpers import pool_candidates


@pytest.fixture(scope="module")
def resources() -> Resources:
    return Resources.load()


def make_problem(sentences: list[str], question: str = "Is Anne smart?",
                 task_kind: str = "proofwriter") -> Problem:
    return Problem(
        id="t",
        sentences=tuple(TextUnit.from_text(s) for s in sentences),
        question=TextUnit.from_text(question),
        gold_answer="true",
        task_kind=task_kind,
    )


class TestIdentifyRepeated:
    def test_single_repeat(self):
        p = make_problem(["Anne is kind.", "All kind people are smart."],
                         "Is Bob tall?")
        inv = identify_repeated(p)
        assert "kind" in inv
        assert len(inv["kind"].occurrences) == 2

    def test_no_repeats(self):
        p = make_problem(["Anne is kind."], "Is Bob tall?")
        inv = identify_repeated(p)
        assert not inv

    def test_compound_and_head_both_counted(self):
        p = make_problem(
            ["Idol is a popular show.", "Every popular show is fun.",
             "A show needs viewers."],
            "Is Idol fun?")
        inv = identify_repeated(p)
        assert len(inv["popular show"].occurrences) == 2
        # the head noun counts the compound's occurrences too
        assert len(inv["show"].occurrences) == 3

    def test_longest_match_wins_at_extraction(self):
        p = make_problem(
            ["Idol is a popular show.", "Every popular show is fun.",
             "A show needs viewers."],
            "Is Idol fun?")
        inv = identify_repeated(p)
        sites = select_sites(p, inv)[0]
        surfaces = [(cid, occ.surface) for cid, occ in sites]
        assert ("popular show", "popular show") in surfaces
        assert all(cid != "show" for cid, _ in sites)

    def test_stopword_only_grams_excluded(self):
        p = make_problem(["Anne is kind.", "Bob is kind."], "Is Anne kind?")
        inv = identify_repeated(p)
        assert "be" not in inv
        assert "kind" in inv

    def test_question_counts_toward_frequency(self):
        p = make_problem(["Anne is tall."], "Is Bob tall?")
        inv = identify_repeated(p)
        assert len(inv["tall"].occurrences) == 2
        units = {occ.unit for occ in inv["tall"].occurrences}
        assert units == {0, QUESTION_UNIT}


class TestBuildVariants:
    def test_word_level_from_lexicon(self, resources):
        p = make_problem(["Anne is kind.", "All kind people are smart."])
        inv = identify_repeated(p)
        variants = build_variants(inv, resources.synonyms, resources.paraphrases)
        words = [v.text for v in variants["kind"] if v.level == "word"]
        assert words == ["benevolent", "caring"]

    def test_sentence_level_rewrites(self, resources):
        """A rule rewrite belongs to the unit it rewrites: concepts carry no
        sentence-level variant, and the rewrite reaches that unit's candidate
        pool and no other unit's."""
        p = make_problem(["All kind people are smart.", "Anne is kind."])
        inv = identify_repeated(p)
        variants = build_variants(inv, resources.synonyms, resources.paraphrases)
        assert {v.level for vs in variants.values() for v in vs} <= {"word", "phrase"}
        sites = select_sites(p, inv)
        pools = {u: [c.text for c in pool_candidates(
                     generate_candidates(unit, sites.get(u, []), inv, variants))]
                 for u, unit in p.units()}
        assert "Every kind person is smart." in pools[0]
        assert [u for u, pool in pools.items() if "Every kind person is smart." in pool] == [0]

    def test_concept_without_resources_flagged_empty(self, resources):
        # proper names have no synonyms and facts admit no rule rewrites
        p = make_problem(["Anne is kind.", "Anne is tall."], "Is Anne smart?")
        inv = identify_repeated(p)
        variants = build_variants(inv, resources.synonyms, resources.paraphrases)
        assert variants["anne"] == []

    def test_missing_lexicon_path(self):
        with pytest.raises(ResourceMissing):
            Resources.load(synonyms_path="/nonexistent/synonyms.tsv")

    def test_rule_rewrites_match_match_expand(self):
        """The rule form's texts give what `Match.expand` gives for the same
        templates written as backreferences, on every rule shape."""
        expand_templates = {
            r"All (\w+) people are (\w+)\.":
                ("Every \\1 person is \\2.", "If someone is \\1, then they are \\2."),
            r"Every (\w+) person is (\w+)\.":
                ("All \\1 people are \\2.", "If someone is \\1, then they are \\2."),
            r"If someone is (\w+), then they are (\w+)\.":
                ("All \\1 people are \\2.", "Every \\1 person is \\2."),
        }
        assert {text.replace("{a}", r"(\w+)").replace("{b}", r"(\w+)").replace(".", r"\.")
                for text in PROOFWRITER.forms["rule"].texts} == set(expand_templates)
        sentences = ["All kind people are smart.", "Every big person is quiet.",
                     "If someone is red, then they are red.", "Anne is kind."]
        for sentence in sentences:
            expected = []
            for pattern, templates in expand_templates.items():
                m = re.fullmatch(pattern, sentence)
                if m:
                    expected += [m.expand(t) for t in templates if m.expand(t) != sentence]
            assert RuleRewriter().rewrite(sentence) == expected
        assert all(RuleRewriter().rewrite(s) for s in sentences[:3])


class TestSimilarity:
    def test_synonym_counts_as_equal(self, resources):
        scorer = make_scorer("fallback", resources)
        assert score_similarity("Anne is kind", "Anne is benevolent", scorer) == 1.0

    def test_divergent_content(self, resources):
        scorer = make_scorer("fallback", resources)
        assert score_similarity("Anne is kind", "Anne is tall", scorer) == 0.5

    def test_identity(self, resources):
        scorer = make_scorer("fallback", resources)
        assert score_similarity("Anne is kind", "Anne is kind", scorer) == 1.0

    def test_fallback_scorers_do_not_share_bags(self, resources):
        with_synonyms = FallbackScorer(resources.synonyms)
        without = FallbackScorer(SynonymLexicon())
        a, b = "Anne is kind.", "Anne is benevolent."
        assert with_synonyms.score(a, b) == 1.0
        assert without.score(a, b) == 0.5
        assert with_synonyms.score(a, b) == 1.0
        assert without.score(b, a) == 0.5

    def test_vector_scorer(self, tmp_path, resources):
        vec = tmp_path / "vectors.txt"
        vec.write_text(
            "anne 1 0 0\nbe 0 1 0\nkind 0 0 1\nbenevolent 0 0 1\ntall 0 1 1\n"
        )
        from symdrift.diversify.resources import WordVectors

        scorer = make_scorer("vectors", Resources(resources.synonyms, resources.paraphrases,
                                                  WordVectors.load(str(vec))))
        same = score_similarity("Anne is kind", "Anne is benevolent", scorer)
        different = score_similarity("Anne is kind", "Anne is tall", scorer)
        assert same == pytest.approx(1.0)
        assert different < same

    def test_unconfigured_scorer(self, tmp_path, resources):
        """No vector file, or one whose rows hold no values, cannot run the
        vector scorer; the config refuses it."""
        from symdrift.diversify.resources import WordVectors

        empty = tmp_path / "vectors.txt"
        empty.write_text("anne\nkind\n")
        for vectors in (None, WordVectors.load(empty)):
            with pytest.raises(ScorerUnavailable, match="set resources.vectors"):
                DiversifyConfig(Resources(resources.synonyms, resources.paraphrases, vectors),
                                scorer="vectors")


class TestGenerateCandidates:
    def _setup(self, resources, sentences, question="Is Anne smart?"):
        p = make_problem(sentences, question)
        inv = identify_repeated(p)
        variants = build_variants(inv, resources.synonyms, resources.paraphrases)
        scorer = make_scorer("fallback", resources)
        return p, inv, variants, scorer

    @staticmethod
    def _pools(p, inv, variants):
        sites = select_sites(p, inv)
        return {u: generate_candidates(unit, sites.get(u, []), inv, variants)
                for u, unit in p.units()}

    @staticmethod
    def _accept(p, scorer, theta, asked=None):
        def accept(unit_index, candidate):
            if asked is not None:
                asked.append(candidate.text)
            return score_similarity(p.unit(unit_index).text, candidate.text, scorer) >= theta
        return accept

    def test_original_always_first(self, resources):
        p, inv, variants, scorer = self._setup(
            resources, ["Anne is kind.", "All kind people are smart."])
        pools = self._pools(p, inv, variants)
        assert pool_candidates(pools[1])[0].text == "All kind people are smart."
        assert "All benevolent people are smart." in [c.text for c in pool_candidates(pools[1])]
        result = assemble(pools, self._accept(p, scorer, 0.9))
        assert result.chosen[1].text == "All benevolent people are smart."

    def test_threshold_filters(self, resources):
        p, inv, variants, scorer = self._setup(
            resources, ["Anne is kind.", "All kind people are smart."])

        class HalfScorer:
            def score(self, a, b):
                return 1.0 if a == b else 0.5

        pools = self._pools(p, inv, variants)
        asked = []
        result = assemble(pools, self._accept(p, HalfScorer(), 0.9, asked))
        assert result.chosen[1].text == "All kind people are smart."
        assert asked  # the original of unit 1 repeats "kind": others were tried

    def test_threshold_monotonicity(self, resources):
        p, inv, variants, scorer = self._setup(
            resources, ["Anne is kind.", "All kind people are smart."])
        # Each unit keeps only its original; unit 1 gets three hand rewrites.
        pools = {u: CandidatePool(p.unit(u), pool.site_rows, [opts[:1] for opts in pool.options])
                 for u, pool in self._pools(p, inv, variants).items()}
        rewrites = []
        for text, surface in (("If someone is benevolent, then they are smart.", "benevolent"),
                              ("Every caring person is smart.", "caring"),
                              ("All benevolent people are smart.", "benevolent")):
            start = text.index(surface)
            rewrites.append(Candidate(text, (CandidateSite("kind", surface, start,
                                                           start + len(surface)),)))
        pools[1] = CandidatePool(p.unit(1), pools[1].site_rows, pools[1].options, rewrites)
        chosen, sizes = [], []
        for theta in (0.3, 0.6, 0.9, 1.0):
            asked = []
            result = assemble(pools, self._accept(p, scorer, theta, asked))
            chosen.append(result.chosen[1].text)
            sizes.append(len(asked))
        assert chosen == ["If someone is benevolent, then they are smart.",
                          "Every caring person is smart.",
                          "All benevolent people are smart.",
                          "All benevolent people are smart."]
        assert sizes == sorted(sizes)

    def test_unit_without_concepts_keeps_original_only(self, resources):
        p, inv, variants, scorer = self._setup(
            resources, ["Anne is kind.", "All kind people are smart.",
                        "Fred is round."])
        candidates = pool_candidates(self._pools(p, inv, variants)[2])
        assert [c.text for c in candidates] == ["Fred is round."]


def _accept_all(unit_index, candidate) -> bool:
    return True


class TestAssemble:
    def _candidates(self, unit, options):
        """A pool of one "kind" site whose options give the listed texts."""
        text, surface = options[0]
        start = text.index(surface)
        occ = ConceptOccurrence(unit, 0, 1, start, start + len(surface), surface)
        pool = CandidatePool(TextUnit.from_text(text), [("kind", occ)],
                             [[s for _text, s in options]])
        assert [c.text for c in pool_candidates(pool)] == [t for t, _s in options]
        return pool

    def test_two_sentences_get_distinct_surfaces(self):
        per_unit = {
            0: self._candidates(0, [("Anne is kind.", "kind"),
                                    ("Anne is benevolent.", "benevolent")]),
            1: self._candidates(1, [("All kind people are smart.", "kind"),
                                    ("All benevolent people are smart.", "benevolent")]),
        }
        result = assemble(per_unit, _accept_all)
        surfaces = [c.sites[0].surface for c in result.chosen]
        assert sorted(surfaces) == ["benevolent", "kind"]

    def test_index_tiebreak_keeps_original(self):
        per_unit = {0: self._candidates(0, [("Anne is kind.", "kind"),
                                            ("Anne is benevolent.", "benevolent")])}
        result = assemble(per_unit, _accept_all)
        assert result.chosen[0].text == "Anne is kind."

    def test_three_sentences_two_variants_distribute(self):
        options = [("S kind.", "kind"), ("S benevolent.", "benevolent")]
        per_unit = {i: self._candidates(i, options) for i in range(3)}
        result = assemble(per_unit, _accept_all)
        counts = {}
        for c in result.chosen:
            counts[c.sites[0].surface] = counts.get(c.sites[0].surface, 0) + 1
        assert sorted(counts.values()) == [1, 2]

    def test_matches_bruteforce_on_small_instances(self):
        # every assembly of <= 4 sentences x <= 3 candidates: greedy repeats
        # equal the Cartesian-product minimum
        surfaces = ["kind", "benevolent", "caring"]
        for n_sentences in (2, 3, 4):
            for n_candidates in (2, 3):
                per_unit = {
                    i: self._candidates(i, [(f"S {s}.", s) for s in surfaces[:n_candidates]])
                    for i in range(n_sentences)
                }
                result = assemble(per_unit, _accept_all)

                def repeats(choice):
                    used = {}
                    total = 0
                    for candidate in choice:
                        key = candidate.sites[0].surface
                        total += used.get(key, 0)
                        used[key] = used.get(key, 0) + 1
                    return total

                best = min(
                    repeats(choice)
                    for choice in itertools.product(
                        *(pool_candidates(per_unit[i]) for i in range(n_sentences)))
                )
                assert repeats(result.chosen) == best


class TestDiversifyProblem:
    def test_zero_intensity_is_identity(self, resources):
        p = make_problem(["Anne is kind.", "All kind people are smart."])
        d = diversify_problem(p, DiversifyConfig(intensity=0, resources=resources))
        assert d.intensity == 0
        assert [u.text for u in d.problem.sentences] == [u.text for u in p.sentences]
        assert d.problem.question.text == p.question.text
        assert "kind" in d.provenance  # provenance still recorded

    def test_full_intensity_rewrites(self, resources):
        p = make_problem(["Anne is kind.", "All kind people are smart."])
        d = diversify_problem(p, DiversifyConfig(resources=resources))
        assert d.intensity >= 1
        surfaces = {e.surface.lower() for e in d.provenance["kind"]}
        assert len(surfaces) == 2

    def test_no_repeats_flag(self, resources):
        p = make_problem(["Anne is kind."], "Is Bob tall?")
        d = diversify_problem(p, DiversifyConfig(resources=resources))
        assert d.no_repeats and d.intensity == 0

    def test_count_past_the_end_is_full(self, resources):
        p = make_problem(["Anne is kind.", "All kind people are smart."], "Is Anne kind?")
        full = diversify_problem(p, DiversifyConfig(resources=resources))
        past = diversify_problem(p, DiversifyConfig(intensity=5, resources=resources))
        assert full.intensity >= 1
        assert (past.problem, past.provenance, past.intensity) == \
            (full.problem, full.provenance, full.intensity)

    def test_determinism(self, resources):
        p = make_problem(["Anne is kind.", "All kind people are smart."])
        cfg = DiversifyConfig(resources=resources)
        a = diversify_problem(p, cfg)
        b = diversify_problem(p, cfg)
        from symdrift.harness.datasets import diversified_to_json
        import json

        assert json.dumps(diversified_to_json(a), sort_keys=True) == \
            json.dumps(diversified_to_json(b), sort_keys=True)

    def test_intensity_monotonicity(self, resources):
        sentences = ["Anne is kind.", "All kind people are smart.",
                     "Bob is kind.", "All smart people are tall."]
        p = make_problem(sentences, "Is Anne tall?")
        previous = {}
        for k in range(len(sentences) + 1):
            d = diversify_problem(p, DiversifyConfig(intensity=k, resources=resources))
            counts = {cid: len({e.surface.lower() for e in entries})
                      for cid, entries in d.provenance.items()}
            for cid, count in previous.items():
                assert counts.get(cid, 0) >= count
            previous = counts

    def test_provenance_spans_validate(self, resources):
        p = make_problem(["Anne is kind.", "All kind people are smart."])
        d = diversify_problem(p, DiversifyConfig(resources=resources))
        # validate() already ran; re-run explicitly against the base
        d.validate(p)
