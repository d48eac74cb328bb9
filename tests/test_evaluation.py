import io
import json
import math
from decimal import Decimal

import pytest

from flowexplain.evaluation import (
    AggregationError,
    AnnotationError,
    aggregate_metrics,
    ingest_annotations,
    proportion_standard_error,
    render_metrics_table,
)

from .conftest import annotation_set_with


def _annotation(explanation_id, annotator, correct=True, feature=True, factual=True):
    return {
        "explanation_id": explanation_id,
        "annotator": annotator,
        "correctness": correct,
        "feature_consistent": feature,
        "factually_consistent": factual,
        "notes": "",
    }


class TestIngestAnnotations:
    def test_agreeing_annotators_resolve(self):
        rows = [_annotation("e1", "a1"), _annotation("e1", "a2")]
        result = ingest_annotations(rows)
        assert result.resolved["e1"]["correctness"] is True
        assert result.disagreements == {
            "correctness": 0,
            "feature_consistency": 0,
            "factual_consistency": 0,
        }

    def test_disagreement_excluded_and_counted(self):
        rows = [
            _annotation("e1", "a1", correct=True),
            _annotation("e1", "a2", correct=False),
        ]
        result = ingest_annotations(rows)
        assert result.resolved["e1"]["correctness"] is None
        assert result.resolved["e1"]["feature_consistency"] is True
        assert result.disagreements["correctness"] == 1

    def test_unknown_explanation_id_rejected(self):
        rows = [_annotation("ghost", "a1")]
        with pytest.raises(AnnotationError, match="ghost"):
            ingest_annotations(rows, known_ids={"e1"})

    def test_missing_verdict_field_rejected(self):
        row = _annotation("e1", "a1")
        del row["factually_consistent"]
        with pytest.raises(AnnotationError, match="factually_consistent"):
            ingest_annotations([row])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        rows = [_annotation("e1", "a1"), _annotation("e2", "a1", factual=False)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        result = ingest_annotations(path)
        assert result.resolved["e2"]["factual_consistency"] is False

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        path.write_text('{"explanation_id": "e1"\n')
        with pytest.raises(AnnotationError, match="line 1"):
            ingest_annotations(path)

    def test_malformed_line_in_file_object_reports_line_number(self):
        source = io.StringIO(json.dumps(_annotation("e1", "a1")) + "\n\n{bad\n")
        with pytest.raises(AnnotationError, match="malformed annotation on line 3"):
            ingest_annotations(source)


class TestAggregateMetrics:
    def test_thirteen_of_fifty_is_26_percent(self):
        rows = [
            _annotation(f"e{i}", "a1", correct=i < 13, feature=i < 42, factual=i < 21)
            for i in range(50)
        ]
        report = aggregate_metrics(ingest_annotations(rows), n=50)
        assert report.correctness.percent == Decimal("26.0000")
        assert report.correctness.se_one_decimal == 6.2
        assert report.feature_consistency.percent == Decimal("84.0000")
        assert report.factual_consistency.percent == Decimal("42.0000")
        assert report.average_performance == Decimal("50.66")

    def test_average_truncates_not_rounds(self):
        counts = {"correctness": 18, "feature_consistency": 50, "factual_consistency": 45}
        report = aggregate_metrics(annotation_set_with(counts, 50), n=50)
        # (36 + 100 + 90) / 3 = 75.33...; table shows 75.33, never 75.34
        assert report.average_performance == Decimal("75.33")

    def test_perfect_metric_has_zero_se(self):
        counts = {"correctness": 50, "feature_consistency": 50, "factual_consistency": 50}
        report = aggregate_metrics(annotation_set_with(counts, 50), n=50)
        assert report.correctness.percent == Decimal("100.0000")
        assert report.correctness.standard_error == 0.0

    def test_n_mismatch_rejected(self):
        rows = [_annotation("e1", "a1")]
        with pytest.raises(AggregationError, match="mismatch"):
            aggregate_metrics(ingest_annotations(rows), n=50)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_metrics(ingest_annotations([_annotation("e1", "a1")]), n=0)

    def test_metrics_independent_with_exclusions(self):
        rows = [
            _annotation("e1", "a1", correct=True),
            _annotation("e1", "a2", correct=False),  # correctness unresolved
            _annotation("e2", "a1"),
            _annotation("e2", "a2"),
        ]
        report = aggregate_metrics(ingest_annotations(rows), n=2)
        assert report.correctness.resolved == 1
        assert report.feature_consistency.resolved == 2
        assert report.excluded == {"correctness": 1}

    def test_se_formula(self):
        assert proportion_standard_error(13, 50) == pytest.approx(
            100 * math.sqrt(0.26 * 0.74 / 50)
        )
        with pytest.raises(ValueError):
            proportion_standard_error(1, 0)


TABLE_ROWS = [
    ("LLama3-70B-Instruct", "basic", {"correctness": 13, "feature_consistency": 42, "factual_consistency": 21}),
    ("LLama3-70B-Instruct", "augmented", {"correctness": 18, "feature_consistency": 50, "factual_consistency": 45}),
    ("GPT-4", "basic", {"correctness": 20, "feature_consistency": 48, "factual_consistency": 39}),
    ("GPT-4", "augmented", {"correctness": 40, "feature_consistency": 50, "factual_consistency": 46}),
]

EXPECTED_CELLS = [
    (26, 84, 42, "50.66"),
    (36, 100, 90, "75.33"),
    (40, 96, 78, "71.33"),
    (80, 100, 92, "90.66"),
]

PUBLISHED_SE = [
    (6, 5, 7),
    (6, 0, 4),
    (6, 2, 5),
    (5, 0, 3),
]


def _reference_cell(model, mode, counts):
    return aggregate_metrics(annotation_set_with(counts, 50), n=50, model=model, mode=mode)


class TestReferenceTableReplica:
    def test_percentages_and_averages(self):
        for (model, mode, counts), expected in zip(TABLE_ROWS, EXPECTED_CELLS):
            report = _reference_cell(model, mode, counts)
            assert report.correctness.percent == Decimal(expected[0])
            assert report.feature_consistency.percent == Decimal(expected[1])
            assert report.factual_consistency.percent == Decimal(expected[2])
            assert str(report.average_performance) == expected[3]

    def test_standard_errors_within_one_point_of_published(self):
        for (model, mode, counts), published in zip(TABLE_ROWS, PUBLISHED_SE):
            report = _reference_cell(model, mode, counts)
            computed = (
                report.correctness.standard_error,
                report.feature_consistency.standard_error,
                report.factual_consistency.standard_error,
            )
            for got, reference in zip(computed, published):
                assert abs(got - reference) <= 1.0

    def test_rendered_table_layout(self):
        reports = [
            _reference_cell(model, mode, counts)
            for model, mode, counts in TABLE_ROWS
        ]
        table = render_metrics_table(reports)
        lines = table.splitlines()
        assert "Model" in lines[0] and "Avg. Perf. (%)" in lines[0]
        assert "Explanation Correctness (%)" in lines[0]
        assert "Feature Consistency (%)" in lines[0]
        assert "Factual Consistency (%)" in lines[0]
        row = lines[2]
        assert "26 (±6)" in row and "84 (±5)" in row and "42 (±7)" in row and "50.66" in row
        bottom = lines[5]
        # computed SEs: sqrt(.8*.2/50) -> 5.66 -> ±6; sqrt(.92*.08/50) -> 3.84 -> ±4
        assert "80 (±6)" in bottom and "100 (±0)" in bottom and "92 (±4)" in bottom
        assert "90.66" in bottom

