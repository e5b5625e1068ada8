"""Dispersion scoring, alignment, classification, and attribution."""

from __future__ import annotations

import pytest

from symdrift.errors import AlignmentIncomplete, PairingMismatch
from symdrift.fol.parser import parse_formula
from symdrift.fol.terms import LogicProgram, SymbolRegistry
from symdrift.metrics.records import (
    CORRECT,
    EXEC_ERROR,
    LOGIC_ERROR,
    PARSE_ERROR,
    TranslationRecord,
)
from symdrift.metrics.sds import align_symbols, compute_sds
from symdrift.metrics.taxonomy import (
    CORRECTED_OTHER,
    CORRECTED_VIA_CONSISTENCY,
    NEWLY_INTRODUCED,
    REMAINING_OTHER,
    REMAINING_WITHOUT_CONSISTENCY,
    accuracy,
    attribute_errors,
    classify_error,
    error_histogram,
)
from symdrift.problem import DiversifiedProblem, Problem, ProvenanceEntry, TextUnit
from symdrift.solver.verdict import Verdict


def _program(texts, query):
    r = SymbolRegistry()
    premises = tuple(parse_formula(t, r) for t in texts)
    return LogicProgram(r, premises, parse_formula(query, r)).validate()


def _record(problem_id="p0", gold="true", alignment=None, program=...,
            parse_error=None, exec_error=None, predicted=None, verdict=None):
    if program is ...:
        program = _program(["Kind(Anne)"], "Kind(Anne)") if parse_error is None else None
    record = TranslationRecord(
        problem_id=problem_id, gold=gold, program=program, parse_error=parse_error,
    )
    record.alignment = alignment or {}
    record.exec_error = exec_error
    record.verdict = verdict or (Verdict("true") if predicted is not None else None)
    record.predicted = predicted
    return record


class TestComputeSds:
    def test_two_concepts_one_split(self):
        record = _record(alignment={"kind": {"Kind", "Benevolent"}, "person": {"Person"}})
        assert compute_sds([record]).value == 0.5

    def test_all_single_symbol(self):
        record = _record(alignment={"kind": {"Kind"}, "tall": {"Tall"}})
        assert compute_sds([record]).value == 0.0

    def test_one_split_of_ten(self):
        alignment = {f"c{i}": {f"S{i}"} for i in range(9)}
        alignment["c9"] = {"A", "B"}
        assert compute_sds([_record(alignment=alignment)]).value == pytest.approx(0.1)

    def test_zero_iff_no_drift(self):
        drifted = _record(alignment={"kind": {"A", "B"}})
        assert compute_sds([drifted]).value > 0
        clean = _record(alignment={"kind": {"A"}})
        assert compute_sds([clean]).value == 0.0

    def test_dropped_concepts_scored_zero_but_counted(self):
        record = _record(alignment={"kind": set(), "tall": {"Tall", "Lofty"}})
        result = compute_sds([record])
        assert result.value == 0.5  # (0 + 1) / 2
        assert result.dropped_concepts == 1

    def test_pooled_across_records(self):
        a = _record(problem_id="a", alignment={"kind": {"A", "B"}})
        b = _record(problem_id="b", alignment={"kind": {"A"}})
        result = compute_sds([a, b])
        assert result.value == 0.5
        assert result.per_problem == {"a": 1.0, "b": 0.0}

    def test_empty_concept_set(self):
        """No concept at all, or none aligned: not measured, every concept dropped."""
        result = compute_sds([_record(alignment={})])
        assert result.value is None
        assert (result.concepts, result.dropped_concepts, result.drifted_concepts) == (0, 0, 0)
        result = compute_sds([_record(alignment={"kind": set(), "smart": set()})])
        assert result.value is None
        assert (result.concepts, result.dropped_concepts, result.drifted_concepts) == (2, 2, 0)


def _item(provenance) -> DiversifiedProblem:
    """A diversified problem with `provenance`, the one field the aligner reads."""
    problem = Problem(id="p0", sentences=(TextUnit.from_text("Anne is kind."),),
                      question=TextUnit.from_text("Is Anne kind?"),
                      gold_answer="true", task_kind="proofwriter")
    return DiversifiedProblem(base_id="p0", problem=problem, provenance=provenance,
                              intensity=0)


class TestAlignSymbols:
    def test_provenance_mode_joins_spans(self):
        record = _record()
        record.span_symbols = {(0, 8, 12): "Kind", (1, 4, 14): "Benevolent"}
        provenance = {"kind": [ProvenanceEntry(0, 8, 12, "kind"),
                               ProvenanceEntry(1, 4, 14, "benevolent")]}
        alignment = align_symbols(record, _item(provenance))
        assert alignment == {"kind": {"Kind", "Benevolent"}}

    def test_decomposed_span_reports_pair(self):
        record = _record()
        record.span_symbols = {(0, 0, 12): "Popular&Show"}
        provenance = {"popular show": [ProvenanceEntry(0, 0, 12, "popular show")]}
        alignment = align_symbols(record, _item(provenance))
        assert alignment == {"popular show": {"Popular&Show"}}

    def test_empty_program_raises(self):
        record = _record(parse_error="unbalanced", program=None)
        with pytest.raises(AlignmentIncomplete):
            align_symbols(record, _item({}))

    def test_unmatched_span_recorded_not_fatal(self):
        record = _record()
        provenance = {"kind": [ProvenanceEntry(0, 8, 12, "kind")]}
        alignment = align_symbols(record, _item(provenance))
        assert alignment == {"kind": set()}
        assert record.alignment_misses == ["kind:0:kind"]

class TestClassifyError:
    def test_parse_error(self):
        record = _record(parse_error="unbalanced parentheses", program=None)
        assert classify_error(record) == PARSE_ERROR

    def test_exec_error(self):
        record = _record(exec_error="CSPSpecError: undeclared object")
        assert classify_error(record) == EXEC_ERROR

    def test_logic_error(self):
        record = _record(predicted="false", gold="true")
        assert classify_error(record) == LOGIC_ERROR

    def test_correct(self):
        record = _record(predicted="true", gold="true")
        assert classify_error(record) == CORRECT

    def test_partition_sums(self):
        records = [
            _record(problem_id="a", parse_error="bad", program=None),
            _record(problem_id="b", exec_error="boom"),
            _record(problem_id="c", predicted="false", gold="true"),
            _record(problem_id="d", predicted="true", gold="true"),
        ]
        histogram = error_histogram(records)
        assert sum(histogram.values()) == len(records)
        assert all(v == 1 for v in histogram.values())


class TestAccuracy:
    def test_three_of_four(self):
        records = [_record(problem_id=str(i), predicted="true") for i in range(3)]
        records.append(_record(problem_id="x", predicted="false", gold="true"))
        assert accuracy(records) == 0.75

    def test_all_parse_errors(self):
        records = [_record(problem_id=str(i), parse_error="bad", program=None)
                   for i in range(3)]
        assert accuracy(records) == 0.0

    def test_complements_error_fractions(self):
        records = [
            _record(problem_id="a", predicted="true"),
            _record(problem_id="b", predicted="false", gold="true"),
            _record(problem_id="c", parse_error="bad", program=None),
        ]
        histogram = error_histogram(records)
        error_fraction = sum(
            v for k, v in histogram.items() if k != CORRECT
        ) / len(records)
        assert accuracy(records) == pytest.approx(1 - error_fraction)


class TestAttributeErrors:
    def _pair(self, before_kwargs, after_kwargs, problem_id="p"):
        return (_record(problem_id=problem_id, **before_kwargs),
                _record(problem_id=problem_id, **after_kwargs))

    def test_corrected_via_consistency(self):
        b, a = self._pair(
            dict(predicted="false", gold="true", alignment={"kind": {"A", "B"}}),
            dict(predicted="true", gold="true", alignment={"kind": {"A"}}),
        )
        counts = attribute_errors([b], [a])
        assert counts[CORRECTED_VIA_CONSISTENCY] == 1

    def test_corrected_other(self):
        b, a = self._pair(
            dict(predicted="false", gold="true", alignment={"kind": {"A"}}),
            dict(predicted="true", gold="true", alignment={"kind": {"A"}}),
        )
        assert attribute_errors([b], [a])[CORRECTED_OTHER] == 1

    def test_remaining_other(self):
        b, a = self._pair(
            dict(predicted="false", gold="true", alignment={"kind": {"A"}}),
            dict(predicted="false", gold="true", alignment={"kind": {"A"}}),
        )
        assert attribute_errors([b], [a])[REMAINING_OTHER] == 1

    def test_remaining_without_consistency(self):
        b, a = self._pair(
            dict(predicted="false", gold="true", alignment={"kind": {"A", "B"}}),
            dict(predicted="false", gold="true", alignment={"kind": {"A", "B"}}),
        )
        assert attribute_errors([b], [a])[REMAINING_WITHOUT_CONSISTENCY] == 1

    def test_newly_introduced(self):
        b, a = self._pair(
            dict(predicted="true", gold="true"),
            dict(predicted="false", gold="true"),
        )
        assert attribute_errors([b], [a])[NEWLY_INTRODUCED] == 1

    def test_counts_sum_to_problems_wrong_somewhere(self):
        pairs = [
            self._pair(dict(predicted="false", gold="true"),
                       dict(predicted="true", gold="true"), problem_id="a"),
            self._pair(dict(predicted="true", gold="true"),
                       dict(predicted="true", gold="true"), problem_id="b"),
            self._pair(dict(predicted="true", gold="true"),
                       dict(predicted="false", gold="true"), problem_id="c"),
        ]
        counts = attribute_errors([b for b, _ in pairs], [a for _, a in pairs])
        assert sum(counts.values()) == 2

    def test_disjoint_ids_rejected(self):
        b = _record(problem_id="x", predicted="true")
        a = _record(problem_id="y", predicted="true")
        with pytest.raises(PairingMismatch):
            attribute_errors([b], [a])
