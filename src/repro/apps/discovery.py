"""Application 1: direction discovery on undirected ties (Sec. 5.1).

For an undirected tie ``(u, v)`` the predicted direction is the
orientation with the larger directionality value (Eq. 28)::

    u → v   if d(u, v) ≥ d(v, u)
    v → u   otherwise
"""

from __future__ import annotations

import numpy as np

from ..datasets import HiddenDirectionTask
from ..graph import MixedSocialNetwork, TieKind
from ..models import TieDirectionModel


def predict_directions(
    model: TieDirectionModel, pairs: np.ndarray | None = None
) -> np.ndarray:
    """Predicted ``(source, target)`` for undirected ties of the fitted net.

    Parameters
    ----------
    model:
        A fitted tie-direction model.
    pairs:
        ``(k, 2)`` undirected tie pairs to orient (either orientation per
        row).  Defaults to every undirected social tie of the network.

    Returns
    -------
    ``(k, 2)`` array of predicted ``(source, target)`` rows, aligned with
    ``pairs``.
    """
    network = model._check_fitted()  # noqa: SLF001 - intra-package API
    if pairs is None:
        pairs = network.social_ties(TieKind.UNDIRECTED)
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return pairs.reshape(0, 2).copy()

    # Score in canonical orientation so the Eq. 28 '>=' tie-break does
    # not depend on which orientation the caller happened to pass
    # (otherwise passing ground-truth pairs would leak the answer
    # whenever d(u,v) == d(v,u)).
    a = np.minimum(pairs[:, 0], pairs[:, 1])
    b = np.maximum(pairs[:, 0], pairs[:, 1])
    forward = model.directionality_batch(np.column_stack([a, b]))
    backward = model.directionality_batch(np.column_stack([b, a]))
    forward_wins = (forward >= backward)[:, None]
    return np.where(
        forward_wins, np.column_stack([a, b]), np.column_stack([b, a])
    )


def discovery_accuracy(
    model: TieDirectionModel, task: HiddenDirectionTask
) -> float:
    """Accuracy of direction discovery against the hidden ground truth.

    The model must have been fitted on ``task.network``.
    """
    if model.network is not task.network:
        raise ValueError("model was not fitted on task.network")
    predictions = predict_directions(model, task.true_sources)
    return task.evaluate_accuracy(predictions)


def discover_and_apply(
    model: TieDirectionModel,
) -> MixedSocialNetwork:
    """Materialise discovered directions: E_u ties become directed ties.

    Returns a new network where every undirected tie has been replaced by
    a directed tie in the predicted orientation — the "complete the newly
    formed network" use case from the introduction.
    """
    network = model._check_fitted()  # noqa: SLF001
    undirected = network.social_ties(TieKind.UNDIRECTED)
    discovered = predict_directions(model, undirected)
    directed = np.concatenate(
        [network.social_ties(TieKind.DIRECTED), discovered]
    )
    return MixedSocialNetwork.from_arrays(
        network.n_nodes,
        directed,
        network.social_ties(TieKind.BIDIRECTIONAL),
    )
