"""Unit tests for classification metrics and table reporting."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import classification_report, format_percent, format_table
from repro.core.metrics import ClassificationReport


class TestClassificationReport:
    def test_perfect_predictions(self):
        report = classification_report([0, 1, 1, 0], [0, 1, 1, 0], ["DN", "AN"])
        assert report.accuracy == 1.0
        assert report.n_misclassified == 0
        assert report.misclassification_summary() == "-"
        assert report.per_class["DN"].precision == 1.0
        assert report.per_class["AN"].recall == 1.0
        assert report.macro_average()["f1"] == 1.0

    def test_confusion_matrix_and_breakdown(self):
        true = [0, 0, 0, 1, 1, 2]
        pred = [0, 1, 0, 1, 2, 2]
        report = classification_report(true, pred, ["DN", "RN", "PN"])
        assert report.confusion[0, 1] == 1
        assert report.confusion[1, 2] == 1
        assert report.n_misclassified == 2
        assert "1 DN as RN" in report.misclassification_summary()
        assert "1 RN as PN" in report.misclassification_summary()
        assert report.accuracy == pytest.approx(4 / 6)

    def test_per_class_metrics_values(self):
        true = [0, 0, 1, 1]
        pred = [0, 1, 1, 1]
        report = classification_report(true, pred, ["DN", "AN"])
        an = report.per_class["AN"]
        assert an.precision == pytest.approx(2 / 3)
        assert an.recall == pytest.approx(1.0)
        assert an.support == 2
        dn = report.per_class["DN"]
        assert dn.recall == pytest.approx(0.5)

    def test_absent_class_handled(self):
        report = classification_report([0, 0], [0, 0], ["DN", "AN"])
        an = report.per_class["AN"]
        assert an.support == 0
        assert an.precision == 1.0  # nothing predicted, nothing to penalise

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classification_report([0, 1], [0], ["DN", "AN"])

    def test_empty_input(self):
        report = classification_report([], [], ["DN", "AN"])
        assert report.accuracy == 1.0
        assert_same_report(report, reference_report([], [], ["DN", "AN"]))

    @pytest.mark.parametrize(
        "true, pred", [([0, 0], [1, 2]), ([1], [-1]), ([-1], [3]), ([2], [0])]
    )
    def test_unknown_class_index_rejected(self, true, pred):
        # With two classes the bad pair's flat index ``2 * t + p`` names the
        # cell (1, 0), (0, 1), (0, 1) or lies past the end: none may count.
        with pytest.raises(ValueError, match="class indices"):
            classification_report(true, pred, ["DN", "AN"])


def reference_report(true, pred, class_names):
    """The per-node loop ``classification_report`` ran before its bincount."""
    n_classes = len(class_names)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(true, pred):
        confusion[t, p] += 1
    per_class = {}
    for idx, name in enumerate(class_names):
        tp = confusion[idx, idx]
        fp = confusion[:, idx].sum() - tp
        fn = confusion[idx, :].sum() - tp
        support = int(confusion[idx, :].sum())
        precision = tp / (tp + fp) if (tp + fp) > 0 else (1.0 if support == 0 else 0.0)
        recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[name] = (float(precision), float(recall), float(f1), support)
    misclassified = dict(
        Counter((class_names[t], class_names[p]) for t, p in zip(true, pred) if t != p)
    )
    true_arr, pred_arr = np.asarray(true), np.asarray(pred)
    accuracy = float((true_arr == pred_arr).mean()) if true_arr.size else 1.0
    return confusion, per_class, misclassified, accuracy


def assert_same_report(report, reference):
    confusion, per_class, misclassified, accuracy = reference
    assert report.confusion.dtype == np.int64
    assert np.array_equal(report.confusion, confusion)
    assert {
        name: (m.precision, m.recall, m.f1, m.support)
        for name, m in report.per_class.items()
    } == per_class
    assert report.misclassified == misclassified
    assert report.accuracy == accuracy


@st.composite
def labelled_nodes(draw):
    n_classes = draw(st.integers(min_value=2, max_value=4))
    label = st.integers(min_value=0, max_value=n_classes - 1)
    pairs = draw(st.lists(st.tuples(label, label), max_size=60))
    names = ["DN", "RN", "PN", "AN"][:n_classes]
    return [t for t, _ in pairs], [p for _, p in pairs], names


@given(labelled_nodes())
@settings(max_examples=300, deadline=None)
def test_bincount_report_equals_the_per_node_loop(case):
    true, pred, names = case
    assert_same_report(
        classification_report(true, pred, names), reference_report(true, pred, names)
    )


class TestFormatting:
    def test_format_percent(self):
        assert format_percent(0.9936) == "99.36"
        assert format_percent(1.0, decimals=1) == "100.0"

    def test_format_table_alignment(self):
        table = format_table(["Name", "Value"], [["a", 1], ["longer", 22]])
        lines = table.splitlines()
        assert lines[1].startswith("| Name")
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "longer" in table

    def test_format_report_row(self):
        from repro.core import format_report_row

        class _FakeOutcome:
            target_benchmark = "c7552"
            instances = [1, 2]
            gnn_accuracy = 0.995
            removal_success_rate = 1.0
            gnn_report = ClassificationReport(
                accuracy=0.995,
                per_class={},
                confusion=np.zeros((2, 2), dtype=int),
                class_names=("DN", "AN"),
                misclassified={("AN", "DN"): 1},
            )

        row = format_report_row(_FakeOutcome(), ["DN", "AN"])
        assert row["Test"] == "c7552"
        assert row["GNN Acc. (%)"] == "99.50"
        assert row["#MN"] == "1 AN as DN"
        assert row["Removal Success (%)"] == "100.00"
