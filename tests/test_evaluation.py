import csv
import io
import random

import pytest

from glyphspect.svm import SvmModel
from glyphspect.evaluation import (
    ConfusionCounts,
    evaluate_pair,
    format_percent,
    metrics,
    report_csv,
    report_table,
)


def threshold_model(pos="good", neg="bad", cut=0.5):
    """Single-support-vector machine: positive iff probe is near 0."""
    return SvmModel(
        support_x=((0.0,),),
        support_y=(1,),
        alpha=(1.0,),
        bias=-cut,
        gamma=1.0,
        pos_class=pos,
        neg_class=neg,
        c=10.0,
    )


def constant_positive_model(pos="good", neg="bad"):
    return SvmModel(
        support_x=((0.0,),),
        support_y=(1,),
        alpha=(0.001,),
        bias=5.0,
        gamma=1.0,
        pos_class=pos,
        neg_class=neg,
        c=10.0,
    )


class TestConfusionCounts:
    def test_total(self):
        assert ConfusionCounts(1, 2, 3, 4).total == 10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)


class TestMetrics:
    def test_balanced_mixed_row(self):
        pm = metrics(ConfusionCounts(tp=12, fp=5, tn=7, fn=0))
        assert pm.sensitivity == pytest.approx(100.0)
        assert pm.specificity == pytest.approx(58.333333, abs=1e-4)
        assert pm.accuracy == pytest.approx(79.166667, abs=1e-4)

    def test_three_quarters_row(self):
        pm = metrics(ConfusionCounts(tp=9, fp=0, tn=12, fn=3))
        assert pm.sensitivity == pytest.approx(75.0)
        assert pm.specificity == pytest.approx(100.0)
        assert pm.accuracy == pytest.approx(87.5)

    def test_one_sided_set(self):
        pm = metrics(ConfusionCounts(tp=5, fp=0, tn=0, fn=0))
        assert pm.sensitivity == pytest.approx(100.0)
        assert pm.specificity is None
        assert pm.accuracy == pytest.approx(100.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            metrics(ConfusionCounts(0, 0, 0, 0))

    def test_balanced_identity(self):
        rng = random.Random(80)
        for _ in range(100):
            pos = rng.randint(1, 30)
            tp = rng.randint(0, pos)
            tn = rng.randint(0, pos)
            pm = metrics(
                ConfusionCounts(tp=tp, fn=pos - tp, tn=tn, fp=pos - tn)
            )
            assert abs(
                pm.accuracy - (pm.sensitivity + pm.specificity) / 2
            ) <= 1e-9

    def test_swapping_positive_swaps_sensitivity_specificity(self):
        rng = random.Random(81)
        for _ in range(50):
            tp, fp, tn, fn = (rng.randint(1, 20) for _ in range(4))
            direct = metrics(ConfusionCounts(tp, fp, tn, fn))
            swapped = metrics(ConfusionCounts(tp=tn, fp=fn, tn=tp, fn=fp))
            assert swapped.sensitivity == pytest.approx(direct.specificity)
            assert swapped.specificity == pytest.approx(direct.sensitivity)
            assert swapped.accuracy == pytest.approx(direct.accuracy)


class TestEvaluatePair:
    def test_constant_classifier_on_balanced_set(self):
        model = constant_positive_model()
        features = [(0.0,)] * 24
        labels = ["good"] * 12 + ["bad"] * 12
        counts = evaluate_pair(model, features, labels)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (12, 0, 12, 0)

    def test_perfect_model(self):
        model = threshold_model()
        features = [(0.0,), (0.1,), (3.0,), (4.0,)]
        labels = ["good", "good", "bad", "bad"]
        counts = evaluate_pair(model, features, labels)
        assert counts.fp == counts.fn == 0

    def test_hand_tallied_four_samples(self):
        model = threshold_model()
        # decisions: near 0 -> positive; far -> negative
        rows = [
            ((0.0,), "good"),   # tp
            ((5.0,), "good"),   # fn
            ((0.1,), "bad"),    # fp
            ((4.0,), "bad"),    # tn
        ]
        counts = evaluate_pair(model, [r for r, _ in rows], [l for _, l in rows])
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 1, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="features and labels lengths differ"):
            evaluate_pair(threshold_model(), [(0.0,), (1.0,)], ["good"])

    def test_foreign_label_rejected(self):
        model = threshold_model()
        with pytest.raises(ValueError, match="foreign label"):
            evaluate_pair(model, [(0.0,)], ["weird"])

    def test_counts_order_invariant(self):
        model = threshold_model()
        rows = [((0.0,), "good"), ((5.0,), "good"), ((0.1,), "bad"), ((4.0,), "bad")]
        rng = random.Random(82)
        baseline = evaluate_pair(model, [r for r, _ in rows], [l for _, l in rows])
        for _ in range(5):
            rng.shuffle(rows)
            counts = evaluate_pair(
                model, [r for r, _ in rows], [l for _, l in rows]
            )
            assert counts == baseline


class TestFormatting:
    def test_percent_trimming(self):
        assert format_percent(79.1666667) == "79.167"
        assert format_percent(87.5) == "87.5"
        assert format_percent(100.0) == "100"
        assert format_percent(58.33) == "58.33"
        assert format_percent(None) == "—"

    def test_report_table_contains_trimmed_values(self):
        pm = metrics(ConfusionCounts(tp=12, fp=5, tn=7, fn=0))
        text = report_table([(("left", "right"), pm)])
        assert "79.167" in text
        assert "58.333" in text
        lines = text.splitlines()
        assert lines[0].startswith("Correct Character")
        assert "Sensitivity" in lines[0]
        assert "Specificity" in lines[0]
        assert "Accuracy" in lines[0]

    def test_empty_table_is_header_only(self):
        text = report_table([])
        assert text.count("\n") == 1
        assert text.startswith("Correct Character")

    def test_absent_cell_renders_dash(self):
        pm = metrics(ConfusionCounts(tp=5, fp=0, tn=0, fn=0))
        assert "—" in report_table([(("a", "b"), pm)])

    def test_csv_counts_and_metrics_agree(self):
        counts = ConfusionCounts(tp=9, fp=0, tn=12, fn=3)
        pm = metrics(counts)
        for pair in [("a", "b"), ("a\rb", "c,d")]:
            text = report_csv([(pair, counts, pm)])
            header, cells = csv.reader(io.StringIO(text, newline=""))
            assert ",".join(header) == (
                "correct,error,tp,fp,tn,fn,sensitivity,specificity,accuracy"
            )
            assert cells[:6] == [*pair, "9", "0", "12", "3"]
            tp, fp, tn, fn = (int(v) for v in cells[2:6])
            again = metrics(ConfusionCounts(tp, fp, tn, fn))
            assert cells[8] == format_percent(again.accuracy)

    def test_csv_absent_metric_is_empty_cell(self):
        counts = ConfusionCounts(tp=5, fp=0, tn=0, fn=0)
        text = report_csv([(("a", "b"), counts, metrics(counts))])
        assert text.splitlines()[1].split(",")[7] == ""
