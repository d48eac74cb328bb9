"""Human-annotation ingestion and metric aggregation.

Explanations are judged on three independent criteria: correctness of the
argumentation, consistency with the flow's feature values, and absence of
fabricated facts. Verdicts come from human annotators; the harness
resolves multi-annotator agreement, excludes disagreements (reporting how
many), and aggregates percentages with standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, TextIO

from .errors import InputError
from .providers import read_jsonl

METRICS = ("correctness", "feature_consistency", "factual_consistency")

_ANNOTATION_FIELDS = {
    "correctness": "correctness",
    "feature_consistency": "feature_consistent",
    "factual_consistency": "factually_consistent",
}


class AnnotationError(InputError, ValueError):
    """Raised for malformed annotation files or identifier mismatches."""


class AggregationError(ValueError):
    """Raised when annotations do not line up with the expected sample."""


@dataclass
class AnnotationSet:
    """Per-explanation resolved verdicts.

    ``resolved[explanation_id][metric]`` is True/False on agreement and
    None when annotators disagreed (excluded from aggregation).
    """

    resolved: dict[str, dict[str, bool | None]]

    @property
    def disagreements(self) -> dict[str, int]:
        """Per metric, the number of explanations whose annotators disagreed."""
        return {
            metric: sum(verdicts[metric] is None for verdicts in self.resolved.values())
            for metric in METRICS
        }

    def verdicts_for(self, metric: str) -> list[bool]:
        return [
            verdicts[metric]
            for verdicts in self.resolved.values()
            if verdicts[metric] is not None
        ]


def _parse_bool(value: object, field_name: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int,)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise AnnotationError(f"field {field_name!r} must be a boolean, got {value!r}")


def ingest_annotations(
    source: str | Path | TextIO | Iterable[dict],
    known_ids: set[str] | None = None,
) -> AnnotationSet:
    """Read line-delimited annotation records and resolve verdicts.

    Each line carries ``explanation_id``, ``annotator`` and the three
    boolean verdicts. When ``known_ids`` is given, an annotation for an
    unknown explanation is an error. Per metric: all annotators agreeing
    yields that verdict; any disagreement marks the metric unresolved for
    that explanation.
    """
    if isinstance(source, (str, Path)) or hasattr(source, "read"):
        source = read_jsonl(source, AnnotationError, "malformed annotation")
    votes: dict[str, dict[str, set[bool]]] = {}
    for row in source:
        try:
            explanation_id = row["explanation_id"]
            annotator = row["annotator"]
        except KeyError as exc:
            raise AnnotationError(f"annotation missing required field {exc}") from exc
        ballot = votes.setdefault(explanation_id, {metric: set() for metric in METRICS})
        for metric, field_name in _ANNOTATION_FIELDS.items():
            if field_name not in row:
                raise AnnotationError(
                    f"annotation for {explanation_id} by {annotator} "
                    f"missing verdict field {field_name!r}"
                )
            ballot[metric].add(_parse_bool(row[field_name], field_name))
        if known_ids is not None and explanation_id not in known_ids:
            raise AnnotationError(f"annotation references unknown explanation {explanation_id!r}")
    return AnnotationSet(
        {
            explanation_id: {
                metric: next(iter(verdicts)) if len(verdicts) == 1 else None
                for metric, verdicts in ballot.items()
            }
            for explanation_id, ballot in votes.items()
        }
    )


@dataclass(frozen=True)
class MetricValue:
    """One percentage cell: value, dispersion and the counts behind it."""

    percent: Decimal
    standard_error: float
    positives: int
    resolved: int

    @property
    def se_one_decimal(self) -> float:
        return float(
            Decimal(str(self.standard_error)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
        )

    @property
    def se_integer(self) -> int:
        return int(
            Decimal(str(self.standard_error)).quantize(Decimal("1"), rounding=ROUND_HALF_UP)
        )

    def to_dict(self) -> dict:
        return {
            "percent": float(self.percent),
            "standard_error": self.se_one_decimal,
            "positives": self.positives,
            "resolved": self.resolved,
        }


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated metrics for one (model, prompt mode) cell."""

    model: str
    mode: str
    n: int
    correctness: MetricValue
    feature_consistency: MetricValue
    factual_consistency: MetricValue
    average_performance: Decimal
    excluded: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "mode": self.mode,
            "n": self.n,
            "correctness": self.correctness.to_dict(),
            "feature_consistency": self.feature_consistency.to_dict(),
            "factual_consistency": self.factual_consistency.to_dict(),
            "average_performance": float(self.average_performance),
            "excluded": dict(self.excluded),
        }


def proportion_standard_error(positives: int, n: int) -> float:
    """Standard error of a proportion, in percentage points."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = positives / n
    return 100.0 * math.sqrt(p * (1.0 - p) / n)


def _metric_value(positives: int, resolved: int) -> MetricValue:
    if resolved <= 0:
        raise AggregationError("no resolved annotations for a metric")
    percent = (Decimal(100) * positives / Decimal(resolved)).quantize(Decimal("0.0001"))
    return MetricValue(
        percent=percent,
        standard_error=proportion_standard_error(positives, resolved),
        positives=positives,
        resolved=resolved,
    )


def truncate_two_decimals(value: Decimal) -> Decimal:
    return value.quantize(Decimal("0.01"), rounding=ROUND_DOWN)


def aggregate_metrics(
    annotation_set: AnnotationSet,
    n: int,
    model: str = "",
    mode: str = "",
) -> MetricsReport:
    """Aggregate resolved verdicts for one (model, mode) cell of size ``n``.

    Percentages are positives over resolved verdicts; the standard error
    is ``100 * sqrt(p * (1 - p) / n)``; the average performance column is
    the mean of the three percentages truncated to two decimals. The three
    criteria are aggregated independently.
    """
    if n <= 0:
        raise AggregationError("sample size n must be positive")
    annotated = len(annotation_set.resolved)
    if annotated != n:
        raise AggregationError(
            f"annotation count mismatch: {annotated} explanations annotated, expected {n}"
        )
    values: dict[str, MetricValue] = {}
    for metric in METRICS:
        verdicts = annotation_set.verdicts_for(metric)
        values[metric] = _metric_value(sum(verdicts), len(verdicts))
    excluded = {metric: count for metric, count in annotation_set.disagreements.items() if count}
    return _report(values, n, model, mode, excluded)


def _report(
    values: dict[str, MetricValue], n: int, model: str, mode: str, excluded: dict[str, int]
) -> MetricsReport:
    """The report of one cell; the average is truncated to two decimals."""
    return MetricsReport(
        model=model,
        mode=mode,
        n=n,
        correctness=values["correctness"],
        feature_consistency=values["feature_consistency"],
        factual_consistency=values["factual_consistency"],
        average_performance=truncate_two_decimals(
            sum(values[metric].percent for metric in METRICS) / Decimal(3)
        ),
        excluded=excluded,
    )


def _format_percent(value: Decimal) -> str:
    if value == value.to_integral_value():
        return str(int(value))
    return str(value.quantize(Decimal("0.1")))


def _format_cell(metric: MetricValue) -> str:
    return f"{_format_percent(metric.percent)} (±{metric.se_integer})"


def render_metrics_table(reports: list[MetricsReport]) -> str:
    """Human-readable results table, one row per (model, mode) cell."""
    headers = (
        "Model",
        "Method",
        "Explanation Correctness (%)",
        "Feature Consistency (%)",
        "Factual Consistency (%)",
        "Avg. Perf. (%)",
    )
    rows = [headers]
    for report in reports:
        rows.append(
            (
                report.model,
                report.mode,
                _format_cell(report.correctness),
                _format_cell(report.feature_consistency),
                _format_cell(report.factual_consistency),
                str(report.average_performance),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
