"""Evaluation metrics: F1, ROC AUC (rank statistic), MSE, confusion counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .network import loss_reg


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts relative to a designated positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_counts(pred_labels, true_labels, positive_class: int = 1) -> ConfusionCounts:
    """One-vs-rest confusion counts against ``positive_class``."""
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape or pred.ndim != 1:
        raise DataError(f"shape mismatch: predictions {pred.shape} vs labels {true.shape}")
    if pred.size == 0:
        raise DataError("empty inputs")
    pp = pred == positive_class
    tp = true == positive_class
    return ConfusionCounts(
        tp=int(np.sum(pp & tp)),
        fp=int(np.sum(pp & ~tp)),
        tn=int(np.sum(~pp & ~tp)),
        fn=int(np.sum(~pp & tp)),
    )


def f1_score(c: ConfusionCounts) -> float:
    """2*tp / (2*tp + fp + fn), with 0 when the denominator vanishes."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 0.0
    return 2.0 * c.tp / denom


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Mann-Whitney rank formulation with ties counting 1/2; equivalent to the
    trapezoidal area under the ROC curve.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise DataError(f"length mismatch: {s.shape[0]} scores vs {y.shape[0]} labels")
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite values")
    pos = y == 1
    neg = y == 0
    if not np.all(pos | neg):
        raise DataError("labels must be binary 0/1")
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("both classes must be present to compute AUC")
    # midranks: ties within a score value share the average rank
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    midranks = (starts + ends) / 2.0
    rank_sum_pos = float(np.sum(midranks[inverse][pos]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mse_metric(preds, targets) -> float:
    """Mean squared error; shares the training-loss implementation."""
    return loss_reg(preds, targets)


def classification_metrics(probs: np.ndarray, labels: np.ndarray) -> dict:
    """F1 and AUC for one classification task from predicted probabilities.

    Binary tasks score class 1 as the positive class. Tasks with K > 2 fall
    back to macro-averaged one-vs-rest (non-default mode); classes absent from
    ``labels`` are skipped for AUC. AUC is ``None`` when undefined (single
    observed class).
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels).astype(np.int64)
    k = p.shape[1]
    pred = np.argmax(p, axis=1)
    if k == 2:
        f1 = f1_score(confusion_counts(pred, y))
        try:
            auc = roc_auc(p[:, 1], (y == 1).astype(np.int64))
        except DataError:
            auc = None
        return {"f1": f1, "auc": auc}
    f1s = []
    aucs = []
    for c in range(k):
        f1s.append(f1_score(confusion_counts(pred, y, c)))
        bin_labels = (y == c).astype(np.int64)
        if 0 < bin_labels.sum() < len(bin_labels):
            aucs.append(roc_auc(p[:, c], bin_labels))
    return {"f1": float(np.mean(f1s)), "auc": float(np.mean(aucs)) if aucs else None}
