"""Per-pair scoring: confusion counts, sensitivity/specificity/accuracy,
and the five-column report table (plus a machine-readable CSV).

The positive class of a pair is its "correct" character; sensitivity is the
recall on it, specificity the recall on the confusable partner. Undefined
ratios (a zero denominator from a one-sided test fold) are reported as
absent rather than silently 0 or 100.
"""
from __future__ import annotations

from collections import Counter
from typing import Sequence

from . import _csv_text, _FrozenValue
from .svm import SvmModel, decisions

__all__ = [
    "ConfusionCounts",
    "PairMetrics",
    "evaluate_pair",
    "metrics",
    "format_percent",
    "report_table",
    "report_csv",
]

TABLE_HEADERS = (
    "Correct Character",
    "Error Character",
    "Sensitivity",
    "Specificity",
    "Accuracy",
)

CSV_HEADERS = (
    "correct",
    "error",
    "tp",
    "fp",
    "tn",
    "fn",
    "sensitivity",
    "specificity",
    "accuracy",
)


class ConfusionCounts(_FrozenValue):
    """Tallies against the pair's positive ("correct") class."""

    def __init__(self, tp: int, fp: int, tn: int, fn: int):
        self.__dict__.update(tp=tp, fp=fp, tn=tn, fn=fn)
        for name in self._fields:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


class PairMetrics(_FrozenValue):
    """Percentages in [0, 100]; None marks an undefined ratio."""

    def __init__(
        self, sensitivity: float | None, specificity: float | None, accuracy: float
    ):
        self.__dict__.update(
            sensitivity=sensitivity, specificity=specificity, accuracy=accuracy
        )


def evaluate_pair(
    model: SvmModel,
    features: Sequence[Sequence[float]],
    labels: Sequence[str],
) -> ConfusionCounts:
    """Score predictions against truth for one confusable pair; the
    model's pos_class is the positive ("correct") class."""
    if len(features) != len(labels):
        raise ValueError("features and labels lengths differ")
    positive, negative = model.pos_class, model.neg_class
    # vote's rule, a value >= 0 goes to the positive class, on every row at once
    tally = Counter(zip(labels, (decisions(model, features) >= 0.0).tolist()))
    for label, _ in tally:
        if label not in (positive, negative):
            raise ValueError(f"foreign label '{label}' in test set")
    return ConfusionCounts(
        tp=tally[positive, True], fp=tally[negative, True],
        tn=tally[negative, False], fn=tally[positive, False],
    )


def metrics(counts: ConfusionCounts) -> PairMetrics:
    """Percent sensitivity, specificity, and accuracy from raw counts."""
    if counts.total == 0:
        raise ValueError("cannot compute metrics for zero samples")
    pos = counts.tp + counts.fn
    neg = counts.tn + counts.fp
    sensitivity = 100.0 * counts.tp / pos if pos else None
    specificity = 100.0 * counts.tn / neg if neg else None
    accuracy = 100.0 * (counts.tp + counts.tn) / counts.total
    return PairMetrics(
        sensitivity=sensitivity, specificity=specificity, accuracy=accuracy
    )


def format_percent(value: float | None) -> str:
    """Up to 3 decimals with trailing zeros trimmed; absent values render as a dash."""
    if value is None:
        return "—"
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text or "0"


def report_table(
    rows: Sequence[tuple[tuple[str, str], PairMetrics]]
) -> str:
    """Render the five-column per-pair report; ends with a newline."""
    cells = [list(TABLE_HEADERS)]
    for (correct, error), pm in rows:
        cells.append(
            [
                correct,
                error,
                format_percent(pm.sensitivity),
                format_percent(pm.specificity),
                format_percent(pm.accuracy),
            ]
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(TABLE_HEADERS))]
    lines = []
    for row in cells:
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


def report_csv(
    rows: Sequence[tuple[tuple[str, str], ConfusionCounts, PairMetrics]]
) -> str:
    """Counts plus metrics per pair; absent metrics become empty cells."""
    table = [CSV_HEADERS]
    for (correct, error), counts, pm in rows:
        table.append(
            [
                correct,
                error,
                counts.tp,
                counts.fp,
                counts.tn,
                counts.fn,
                "" if pm.sensitivity is None else format_percent(pm.sensitivity),
                "" if pm.specificity is None else format_percent(pm.specificity),
                format_percent(pm.accuracy),
            ]
        )
    return _csv_text(table)
