"""Node-classification metrics: accuracy, per-class precision / recall / F1.

The paper reports, per attacked benchmark, the GNN accuracy, the non-averaged
precision / recall / F1-score of each class, the number of misclassified nodes
broken down as "<count> <true-label> as <predicted-label>", and the removal
success after post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = ["ClassMetrics", "ClassificationReport", "classification_report"]


@dataclass(frozen=True)
class ClassMetrics:
    """Precision / recall / F1 of a single class."""

    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ClassificationReport:
    """Full evaluation of one set of node predictions."""

    accuracy: float
    per_class: Dict[str, ClassMetrics]
    confusion: np.ndarray
    class_names: Tuple[str, ...]
    misclassified: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def n_misclassified(self) -> int:
        return int(sum(self.misclassified.values()))

    def misclassification_summary(self) -> str:
        """Human-readable breakdown, e.g. ``"2 DN as PN, 1 PN as RN"``."""
        if not self.misclassified:
            return "-"
        parts = [
            f"{count} {true} as {pred}"
            for (true, pred), count in sorted(self.misclassified.items())
        ]
        return ", ".join(parts)

    def macro_average(self) -> Dict[str, float]:
        """Macro-averaged precision / recall / F1 (Table VI reports these)."""
        if not self.per_class:
            return {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        precision = float(np.mean([m.precision for m in self.per_class.values()]))
        recall = float(np.mean([m.recall for m in self.per_class.values()]))
        f1 = float(np.mean([m.f1 for m in self.per_class.values()]))
        return {"precision": precision, "recall": recall, "f1": f1}


def classification_report(
    true_classes: Sequence[int],
    predicted_classes: Sequence[int],
    class_names: Sequence[str],
) -> ClassificationReport:
    """Compute accuracy, per-class P/R/F1, confusion matrix and error breakdown.

    Every class index must name one of ``class_names``.
    """
    true_arr = np.asarray(true_classes, dtype=np.int64)
    pred_arr = np.asarray(predicted_classes, dtype=np.int64)
    if true_arr.shape != pred_arr.shape:
        raise ValueError("true and predicted class arrays must have equal length")
    n_classes = len(class_names)
    if true_arr.size and (
        min(true_arr.min(), pred_arr.min()) < 0
        or max(true_arr.max(), pred_arr.max()) >= n_classes
    ):
        raise ValueError(f"class indices must lie in [0, {n_classes})")
    confusion = np.bincount(
        true_arr * n_classes + pred_arr, minlength=n_classes * n_classes
    ).reshape(n_classes, n_classes)

    per_class: Dict[str, ClassMetrics] = {}
    for idx, name in enumerate(class_names):
        tp = confusion[idx, idx]
        fp = confusion[:, idx].sum() - tp
        fn = confusion[idx, :].sum() - tp
        support = int(confusion[idx, :].sum())
        precision = tp / (tp + fp) if (tp + fp) > 0 else (1.0 if support == 0 else 0.0)
        recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if (precision + recall) > 0
            else 0.0
        )
        per_class[name] = ClassMetrics(
            label=name,
            precision=float(precision),
            recall=float(recall),
            f1=float(f1),
            support=support,
        )

    errors = confusion - np.diag(np.diag(confusion))
    misclassified: Dict[Tuple[str, str], int] = {
        (class_names[t], class_names[p]): int(errors[t, p])
        for t, p in zip(*np.nonzero(errors))
    }
    accuracy = float((true_arr == pred_arr).mean()) if true_arr.size else 1.0
    return ClassificationReport(
        accuracy=accuracy,
        per_class=per_class,
        confusion=confusion,
        class_names=tuple(class_names),
        misclassified=misclassified,
    )
