"""Jaccard-coefficient link prediction (paper Sec. 6.3, Eq. 29).

The experiment: keep 80 % of ties as the training network ``G'``, score
every ordered 2-hop pair with the (weighted) Jaccard coefficient

    ``f(u → v) = Σ(A[u, :] · A[:, v]) / (Σ A[u, :] + Σ A[:, v])``

and measure ROC-AUC against whether the pair is connected in the full
network ``G``.  Running this once with the plain 0/1 adjacency matrix
and once per directionality adjacency matrix reproduces Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..graph import MixedSocialNetwork
from ..utils import ensure_rng

if TYPE_CHECKING:
    from scipy import sparse


def jaccard_scores(adjacency: sparse.csr_matrix, pairs: np.ndarray) -> np.ndarray:
    """Weighted Jaccard coefficient of Eq. 29 for the ordered ``pairs``.

    Works for both the 0/1 adjacency matrix and the directionality
    adjacency matrix (any non-negative weights).
    """
    adjacency = adjacency.tocsr()
    if len(pairs) == 0:
        return np.zeros(0)
    row_sums = np.asarray(adjacency.sum(axis=1)).ravel()
    col_sums = np.asarray(adjacency.sum(axis=0)).ravel()

    # Σ_w A[u, w]·A[w, v] is exactly the (u, v) cell of A @ A.
    product = (adjacency @ adjacency).tocsr()
    u, v = pairs[:, 0], pairs[:, 1]
    numerators = np.asarray(product[u, v]).ravel()
    denominators = row_sums[u] + col_sums[v]
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.where(
            denominators > 0, numerators / np.maximum(denominators, 1e-12), 0.0
        )
    return scores


def two_hop_candidate_pairs(
    network: MixedSocialNetwork,
    max_pairs: int | None = None,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Ordered node pairs exactly 2 hops apart in ``network``.

    A pair ``(u, v)`` qualifies when some directed 2-step path ``u → w →
    v`` exists in the adjacency matrix but the cell ``A[u, v]`` is empty
    (and ``u ≠ v``).  ``max_pairs`` subsamples uniformly for tractability
    on dense graphs.
    """
    adjacency = network.adjacency_matrix()
    binary = adjacency.copy()
    binary.data = np.ones_like(binary.data)
    two_hop = (binary @ binary).tocoo()

    mask = two_hop.row != two_hop.col
    rows, cols = two_hop.row[mask], two_hop.col[mask]
    # Drop already-connected pairs.
    connected = np.asarray(binary[rows, cols]).ravel() > 0
    rows, cols = rows[~connected], cols[~connected]
    pairs = np.column_stack([rows, cols]).astype(np.int64)

    if max_pairs is not None and len(pairs) > max_pairs:
        rng = ensure_rng(seed)
        keep = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = pairs[np.sort(keep)]
    return pairs


@dataclass(frozen=True)
class LinkPredictionResult:
    """Outcome of one link-prediction evaluation."""

    auc: float
    n_candidates: int
    n_positives: int


def link_prediction_auc(
    adjacency: sparse.csr_matrix,
    candidate_pairs: np.ndarray,
    full_network: MixedSocialNetwork,
) -> LinkPredictionResult:
    """AUC of Jaccard link prediction with the given adjacency matrix.

    ``candidate_pairs`` are scored with :func:`jaccard_scores` on
    ``adjacency`` (built from the training network G'), and a pair is a
    positive when the two individuals are connected in ``full_network``
    (G) — connectivity is orientation-blind, per the paper's "those
    connected in G are considered as positive samples".
    """
    # Imported lazily: repro.eval's harness itself builds on repro.apps.
    from ..eval.metrics import roc_auc

    scores = jaccard_scores(adjacency, candidate_pairs)
    labels = np.fromiter(
        (
            float(full_network.has_tie(int(u), int(v)))
            for u, v in candidate_pairs
        ),
        dtype=float,
        count=len(candidate_pairs),
    )
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(labels):
        raise ValueError(
            "candidate pairs are single-class; cannot compute AUC "
            f"(positives={n_pos} of {len(labels)})"
        )
    return LinkPredictionResult(
        auc=roc_auc(labels, scores),
        n_candidates=len(candidate_pairs),
        n_positives=n_pos,
    )
