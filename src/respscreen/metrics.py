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
    precision: float
    recall: float
    no_predicted_positives: bool = False


def precision_recall(scores, labels, threshold: float) -> PrecisionRecall:
    """Confusion-count precision/recall at `score >= threshold`.

    With zero predicted positives, precision is reported as 0 with the
    `no_predicted_positives` flag set.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise SingleClass("need both classes")
    predicted = scores >= threshold
    tp = int(np.sum(predicted & (labels == 1)))
    fp = int(np.sum(predicted & (labels == 0)))
    fn = int(np.sum(~predicted & (labels == 1)))
    if tp + fp == 0:
        return PrecisionRecall(0.0, 0.0, no_predicted_positives=True)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return PrecisionRecall(precision, recall)
