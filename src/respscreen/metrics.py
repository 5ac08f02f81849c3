"""ROC-AUC and thresholded precision/recall."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingleClass


def roc_auc(scores, labels) -> float | np.ndarray:
    """Probability that a random positive outranks a random negative
    (Mann-Whitney form; ties count one half).

    `scores` is one score per row, or an [n x m] matrix whose m columns are
    scored alike; a matrix gives an array of m AUCs, each equal to that of
    its column alone.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise SingleClass("need both classes to compute AUC")
    greater = (pos[:, None] > neg[None, :]).sum(axis=(0, 1))
    equal = (pos[:, None] == neg[None, :]).sum(axis=(0, 1))
    auc = (greater + 0.5 * equal) / (len(pos) * len(neg))
    return float(auc) if scores.ndim == 1 else auc


@dataclass(frozen=True)
class PrecisionRecall:
    precision: float | np.ndarray
    recall: float | np.ndarray
    no_predicted_positives: bool | np.ndarray = False


def precision_recall(scores, labels, threshold: float) -> PrecisionRecall:
    """Confusion-count precision/recall at `score >= threshold`.

    With zero predicted positives, precision and recall are reported as 0
    with the `no_predicted_positives` flag set. `scores` is one score per
    row, or an [n x m] matrix whose m columns are scored alike; a matrix
    gives arrays of m values per field, each equal to its column's alone,
    and its labels are checked once.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise SingleClass("need both classes")
    predicted = scores >= threshold
    pos, neg = labels == 1, labels == 0
    if scores.ndim == 2:
        pos, neg = pos[:, None], neg[:, None]
    tp = np.sum(predicted & pos, axis=0)
    fp = np.sum(predicted & neg, axis=0)
    fn = np.sum(~predicted & pos, axis=0)
    none = tp + fp == 0
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(none, 0.0, tp / (tp + fp))
        recall = np.where(none, 0.0, tp / (tp + fn))
    if scores.ndim == 1:
        return PrecisionRecall(float(precision), float(recall), bool(none))
    return PrecisionRecall(precision, recall, none)
