"""Classification metrics: confusion matrix, per-class P/R/F1/AP, ROC-AUC.

AUC uses the average-rank (Mann-Whitney) formulation with ties counted as
half, which is exactly the fraction of positive/negative pairs ranked
correctly. AP is the step-interpolated sum of precision at each recall
increment over the score-ranked list (ties broken by stable descending
sort).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .tensor import softmax_lastdim


def confusion_matrix(labels: np.ndarray, predictions: np.ndarray, num_classes: int) -> np.ndarray:
    """Counts with true classes as rows and predicted classes as columns."""
    labels = np.asarray(labels, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if labels.shape != predictions.shape:
        raise ValueError(f"labels shape {labels.shape} != predictions shape {predictions.shape}")
    outside = (labels < 0) | (labels >= num_classes)
    if outside.any():
        raise ValueError(f"label {labels[outside][0]} is out of range for {num_classes} classes")
    cells = np.ravel_multi_index((labels, predictions), (num_classes, num_classes))
    return np.bincount(cells, minlength=num_classes * num_classes).reshape(num_classes, num_classes)


def precision_recall_f1(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-class precision/recall/F1 from the confusion matrix.

    A class that was never predicted gets precision 0; the returned mask
    marks such classes so reports can flag them.
    """
    tp = np.diag(cm).astype(np.float64)
    predicted = cm.sum(axis=0).astype(np.float64)
    actual = cm.sum(axis=1).astype(np.float64)
    zero_pred = predicted == 0
    precision = np.where(zero_pred, 0.0, tp / np.where(predicted == 0, 1.0, predicted))
    recall = np.where(actual == 0, 0.0, tp / np.where(actual == 0, 1.0, actual))
    pr = precision + recall
    f1 = np.where(pr == 0, 0.0, 2.0 * precision * recall / np.where(pr == 0, 1.0, pr))
    return precision, recall, f1, zero_pred


def average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    """Area under the precision-recall steps: sum of precision at each hit / #positives."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    if n_pos == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    hits = positives[order]
    precision_at = np.cumsum(hits) / np.arange(1, len(scores) + 1)
    return float(precision_at[hits].sum() / n_pos)


def roc_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """One-vs-rest AUC: P(score_pos > score_neg) with ties counted as 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    # tied scores share the average of their 1-based sorted positions; a NaN ties with nothing
    _, group, count = np.unique(scores, return_inverse=True, return_counts=True, equal_nan=False)
    ranks = (np.cumsum(count) - (count - 1) / 2.0)[group]
    u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class MetricsReport:
    accuracy: float
    class_names: list[str]
    confusion: np.ndarray
    per_class: dict[str, dict[str, float]]
    zero_prediction_classes: list[str]

    def to_json(self) -> str:
        record = {
            "accuracy": self.accuracy,
            "per_class": self.per_class,
            "confusion": self.confusion.tolist(),
            "class_names": self.class_names,
            "zero_prediction_classes": self.zero_prediction_classes,
        }
        return json.dumps(record, indent=2) + "\n"


def report_from_scores(labels: np.ndarray, probabilities: np.ndarray, class_names: list[str]) -> MetricsReport:
    """Build the full report from per-sample class probabilities."""
    labels = np.asarray(labels, dtype=np.int64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.shape != (expected := (len(labels), len(class_names))):
        raise ValueError(f"class probabilities have shape {probabilities.shape}, expected {expected} (labels, class names)")
    bad = int(np.count_nonzero(~np.isfinite(probabilities)))
    if bad:
        raise ValueError(f"class probabilities hold {bad} non-finite values")
    num_classes = len(class_names)
    predictions = probabilities.argmax(axis=1)
    cm = confusion_matrix(labels, predictions, num_classes)
    accuracy = float(np.trace(cm) / cm.sum())
    precision, recall, f1, zero_pred = precision_recall_f1(cm)
    per_class = {}
    for c, name in enumerate(class_names):
        is_pos = labels == c
        per_class[name] = {
            "precision": float(precision[c]),
            "recall": float(recall[c]),
            "f1": float(f1[c]),
            "ap": average_precision(probabilities[:, c], is_pos),
            "auc": roc_auc(probabilities[:, c], is_pos),
        }
    return MetricsReport(
        accuracy=accuracy,
        class_names=list(class_names),
        confusion=cm,
        per_class=per_class,
        zero_prediction_classes=[class_names[c] for c in np.nonzero(zero_pred)[0]],
    )


def predict_probabilities(model, images: np.ndarray) -> np.ndarray:
    """Eval-mode class probabilities for a stack of images: one softmax over all their logits."""
    return softmax_lastdim(model.eval_logits(images)).data


def evaluate(model, split) -> MetricsReport:
    """Run the model over a dataset split and compute the full metrics report."""
    if len(split) == 0:
        raise ValueError("cannot evaluate an empty split")
    images, labels = split.stack()
    probabilities = predict_probabilities(model, images)
    return report_from_scores(labels, probabilities, split.class_names)
