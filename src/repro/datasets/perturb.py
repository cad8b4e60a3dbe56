"""Workload perturbations used by the paper's experiments.

* :func:`hide_directions` — turn a random subset of directed ties into
  undirected ones while remembering the truth (Sec. 6.2: "we hide the
  directions of a part of directed social ties randomly to generate mixed
  social networks").
* :func:`held_out_tie_split` — remove a fraction of social ties for the
  link-prediction experiment (Sec. 6.3: "all the individuals and 80 % of
  social ties are extracted to form a new network G'").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import MixedSocialNetwork, TieKind
from ..utils import check_probability, ensure_rng


@dataclass(frozen=True)
class HiddenDirectionTask:
    """A direction-discovery workload.

    Attributes
    ----------
    network:
        The perturbed mixed network: hidden ties moved from ``E_d`` to
        ``E_u``.
    true_sources:
        ``(k, 2)`` array over the *hidden* ties: each row is the true
        ``(source, target)`` of one hidden tie.
    directed_fraction:
        ``|E_d| / (|E_d| + |E_u|)`` actually realised.
    """

    network: MixedSocialNetwork
    true_sources: np.ndarray
    directed_fraction: float

    def evaluate_accuracy(self, predicted_sources: np.ndarray) -> float:
        """Fraction of hidden ties whose predicted orientation is correct.

        ``predicted_sources`` must be an ``(k, 2)`` array aligned with
        :attr:`true_sources` rows (same tie per row, either orientation).
        """
        if predicted_sources.shape != self.true_sources.shape:
            raise ValueError(
                "predicted_sources must align with true_sources; got "
                f"{predicted_sources.shape} vs {self.true_sources.shape}"
            )
        correct = np.all(predicted_sources == self.true_sources, axis=1)
        return float(correct.mean()) if len(correct) else 0.0


def hide_directions(
    network: MixedSocialNetwork,
    directed_fraction: float,
    seed: int | np.random.Generator = 0,
) -> HiddenDirectionTask:
    """Hide directions of a random subset of ``E_d``.

    Parameters
    ----------
    network:
        A network whose directed ties all have known orientation.
    directed_fraction:
        Fraction ``|E_d| / (|E_d| + |E_u|)`` of directed ties that *keep*
        their direction (the paper sweeps this quantity on the x-axis of
        Figs. 3–5).  At least one directed tie is always kept, since
        Definition 1 requires ``|E_d| > 0``.
    """
    check_probability(directed_fraction, "directed_fraction")
    rng = ensure_rng(seed)

    directed = network.social_ties(TieKind.DIRECTED)
    n_d = len(directed)
    if n_d == 0:
        raise ValueError("network has no directed ties to hide")
    n_keep = max(1, int(round(directed_fraction * n_d)))
    order = rng.permutation(n_d)
    keep_rows, hide_rows = order[:n_keep], order[n_keep:]

    hidden_truth = directed[np.sort(hide_rows)]
    perturbed = MixedSocialNetwork.from_arrays(
        network.n_nodes,
        directed[keep_rows],
        network.social_ties(TieKind.BIDIRECTIONAL),
        np.concatenate(
            [
                network.social_ties(TieKind.UNDIRECTED),
                np.sort(hidden_truth, axis=1),  # canonical (min, max) pairs
            ]
        ),
    )
    return HiddenDirectionTask(
        network=perturbed,
        true_sources=hidden_truth,
        directed_fraction=n_keep / n_d,
    )


@dataclass(frozen=True)
class TieSplit:
    """A link-prediction workload (Sec. 6.3).

    ``train_network`` is G' (the kept fraction of ties); ``held_out``
    holds the removed canonical pairs, which are the positives a link
    predictor should rediscover.
    """

    train_network: MixedSocialNetwork
    held_out: np.ndarray


def held_out_tie_split(
    network: MixedSocialNetwork,
    keep_fraction: float = 0.8,
    seed: int | np.random.Generator = 0,
) -> TieSplit:
    """Remove ``1 - keep_fraction`` of social ties uniformly at random.

    Removal is tie-class-aware: each class (directed / bidirectional /
    undirected) is subsampled independently so class proportions are
    preserved; at least one directed tie is always kept.
    """
    check_probability(keep_fraction, "keep_fraction")
    rng = ensure_rng(seed)

    kept: dict[TieKind, list[tuple[int, int]]] = {}
    removed: list[tuple[int, int]] = []
    for kind in (TieKind.DIRECTED, TieKind.BIDIRECTIONAL, TieKind.UNDIRECTED):
        pairs = network.social_ties(kind)
        n = len(pairs)
        n_keep = int(round(keep_fraction * n))
        if kind == TieKind.DIRECTED:
            n_keep = max(1, n_keep)
        order = rng.permutation(n)
        kept[kind] = [tuple(map(int, pairs[i])) for i in order[:n_keep]]
        removed.extend(
            (int(min(u, v)), int(max(u, v))) for u, v in pairs[order[n_keep:]]
        )

    train = MixedSocialNetwork(
        network.n_nodes,
        kept[TieKind.DIRECTED],
        kept[TieKind.BIDIRECTIONAL],
        kept[TieKind.UNDIRECTED],
    )
    held = (
        np.asarray(sorted(removed), dtype=np.int64)
        if removed
        else np.zeros((0, 2), dtype=np.int64)
    )
    return TieSplit(train_network=train, held_out=held)
