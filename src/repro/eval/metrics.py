"""Evaluation metrics used across the paper's experiments."""

from __future__ import annotations

import numpy as np


def accuracy(truth: np.ndarray, predictions: np.ndarray) -> float:
    """Fraction of exact matches."""
    truth = np.asarray(truth)
    predictions = np.asarray(predictions)
    if truth.shape != predictions.shape:
        raise ValueError("truth and predictions must have the same shape")
    if truth.size == 0:
        raise ValueError("cannot compute accuracy of an empty set")
    return float(np.mean(truth == predictions))


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) formulation.

    Handles tied scores by mid-ranking, which is equivalent to the
    trapezoidal ROC area.
    """
    labels = np.asarray(labels, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be equal-length vectors")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    from scipy import stats

    ranks = stats.rankdata(scores)
    pos_rank_sum = float(ranks[labels > 0.5].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_curve(
    labels: np.ndarray, scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ROC curve points ``(fpr, tpr, thresholds)`` sorted by threshold desc."""
    labels = np.asarray(labels, dtype=float)
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    labels = labels[order]
    scores = scores[order]
    distinct = np.flatnonzero(np.diff(scores)) if len(scores) > 1 else np.array([], int)
    cut = np.concatenate([distinct, [len(scores) - 1]])
    tps = np.cumsum(labels)[cut]
    fps = (cut + 1) - tps
    n_pos = labels.sum()
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_curve needs both classes present")
    return fps / n_neg, tps / n_pos, scores[cut]


def nearest_neighbor_separability(
    points: np.ndarray, labels: np.ndarray
) -> float:
    """1-NN label agreement — a quantitative 'is Fig. 7 separable' score.

    For every point, check whether its nearest neighbour (Euclidean,
    excluding itself) carries the same label; 1.0 means perfectly
    separable clusters, ~0.5 means the two classes are fully mixed.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    sq_norms = (points**2).sum(axis=1)
    distances = sq_norms[:, None] + sq_norms[None, :] - 2.0 * points @ points.T
    np.fill_diagonal(distances, np.inf)
    nearest = distances.argmin(axis=1)
    return float(np.mean(labels[nearest] == labels))
