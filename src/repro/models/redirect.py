"""ReDirect-N/sm and ReDirect-T/sm baselines (paper Sec. 6.1, from [10]).

ReDirect (Zhang et al., TKDE 2016) recovers hidden tie directions from
four *directionality patterns*, weighted equally — the design weakness
the paper contrasts DeepDirect against.  The ``/sm`` variants are the
semi-supervised versions that clamp the labeled ties.

The four patterns are realised as per-tie *votes* on the current
directionality values ``d(e)`` (antisymmetric: ``d(v,u) = 1 - d(u,v)``):

1. **Degree consistency** — ``deg(dst) / (deg(src) + deg(dst))``: ties
   point at the higher-degree endpoint.
2. **Triad status consistency** — common-neighbour evidence
   ``mean_w d(u,w) / (d(u,w) + d(v,w))``: directions avoid 3-loops.
3. **Collaborative consistency** — the source's *proposal propensity*:
   mean directionality of the source's other outgoing ties.
4. **Similarity consistency** — the target's *reception propensity*:
   mean (1 - directionality) of ties leaving the target, i.e. nodes that
   rarely propose tend to be receivers here too.

Patterns 3-4 follow the qualitative descriptions in the paper (full
formal definitions live in [10], which is not available here); both are
neighbour-propensity propagations, which preserves the baselines'
defining behaviour: strong when the network obeys the patterns, weak
when it does not, and always equal-weighted.

* :class:`ReDirectTSM` is *tie-centroid*: it iterates value propagation
  directly on the ties until convergence.
* :class:`ReDirectNSM` is *node-centroid*: each node ``i`` carries two
  latent vectors ``h_i`` (as source) and ``h'_i`` (as target);
  ``d(i, j) = σ(h_i · h'_j)``.  The latent vectors are regressed onto
  labels plus pattern votes in alternating rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..embedding.patterns import build_triad_neighborhoods
from ..graph import MixedSocialNetwork
from ..utils import ensure_rng
from .base import TieDirectionModel


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass
class _PatternEngine:
    """Vectorised evaluation of the four equal-weight pattern votes."""

    network: MixedSocialNetwork
    gamma: int = 10

    def __post_init__(self) -> None:
        net = self.network
        degrees = net.degrees()
        src_deg = degrees[net.tie_src]
        dst_deg = degrees[net.tie_dst]
        total = np.maximum(src_deg + dst_deg, 1e-12)
        self._degree_vote = dst_deg / total

        # Witness ties for the triad vote, sampled once over *all* ties.
        self._triads = build_triad_neighborhoods(
            net, self.gamma, seed=0, tie_ids=np.arange(net.n_ties)
        )
        self._out_counts = np.bincount(net.tie_src, minlength=net.n_nodes)
        self._in_counts = np.bincount(net.tie_dst, minlength=net.n_nodes)

    def votes(self, values: np.ndarray) -> np.ndarray:
        """Equal-weight mean of the applicable pattern votes per tie."""
        net = self.network
        vote_sum = self._degree_vote.copy()
        vote_count = np.ones(net.n_ties)

        # Triad status consistency.
        uw, vw = self._triads.uw_ids, self._triads.vw_ids
        mask = uw >= 0
        y_uw = np.where(mask, values[np.maximum(uw, 0)], 0.0)
        y_vw = np.where(mask, values[np.maximum(vw, 0)], 0.0)
        denom = y_uw + y_vw
        ratio = np.where(mask & (denom > 1e-12),
                         y_uw / np.maximum(denom, 1e-12), 0.0)
        counts = mask.sum(axis=1)
        has_triad = counts > 0
        triad_vote = np.where(
            has_triad, ratio.sum(axis=1) / np.maximum(counts, 1), 0.0
        )
        vote_sum += np.where(has_triad, triad_vote, 0.0)
        vote_count += has_triad

        # Collaborative consistency: source proposal propensity over the
        # source's *other* outgoing ties.
        out_sum = np.bincount(
            net.tie_src, weights=values, minlength=net.n_nodes
        )
        src = net.tie_src
        other_out = self._out_counts[src] - 1
        has_collab = other_out > 0
        collab_vote = np.where(
            has_collab,
            (out_sum[src] - values) / np.maximum(other_out, 1),
            0.0,
        )
        vote_sum += np.where(has_collab, collab_vote, 0.0)
        vote_count += has_collab

        # Similarity consistency: target reception propensity — how often
        # the target's own outgoing ties are *not* proposals.
        dst = net.tie_dst
        reverse = net.reverse_of
        out_sum_dst = out_sum[dst] - values[reverse]
        other_out_dst = self._out_counts[dst] - 1
        has_sim = other_out_dst > 0
        sim_vote = np.where(
            has_sim,
            1.0 - out_sum_dst / np.maximum(other_out_dst, 1),
            0.0,
        )
        vote_sum += np.where(has_sim, sim_vote, 0.0)
        vote_count += has_sim

        return vote_sum / vote_count


def _clamp_and_symmetrize(
    values: np.ndarray,
    labels: np.ndarray,
    labeled: np.ndarray,
    reverse_of: np.ndarray,
) -> np.ndarray:
    """Clamp labeled ties and enforce ``d(v,u) = 1 - d(u,v)``."""
    values = np.clip(values, 1e-6, 1 - 1e-6)
    sym = 0.5 * (values + (1.0 - values[reverse_of]))
    sym[labeled] = labels[labeled]
    return sym


class ReDirectTSM(TieDirectionModel):
    """ReDirect-T/sm: tie-centroid iterative propagation.

    Starts from labels on ``E_d`` and random values elsewhere, and
    repeatedly moves every unlabeled tie toward the equal-weight pattern
    vote of its neighbourhood until the values converge.

    Parameters
    ----------
    momentum:
        Step size toward the pattern vote per sweep.
    max_sweeps, tol:
        Convergence controls: stop when the largest change falls below
        ``tol`` or after ``max_sweeps``.
    gamma:
        Witnesses per tie for the triad vote.
    """

    def __init__(
        self,
        momentum: float = 0.5,
        max_sweeps: int = 50,
        tol: float = 1e-4,
        gamma: int = 10,
    ) -> None:
        if not 0 < momentum <= 1:
            raise ValueError("momentum must be in (0, 1]")
        self.momentum = momentum
        self.max_sweeps = max_sweeps
        self.tol = tol
        self.gamma = gamma
        self.network: MixedSocialNetwork | None = None
        self._values: np.ndarray | None = None
        self.n_sweeps_: int | None = None

    def fit(
        self, network: MixedSocialNetwork, seed: int | np.random.Generator = 0
    ) -> "ReDirectTSM":
        rng = ensure_rng(seed)
        engine = _PatternEngine(network, gamma=self.gamma)

        labels = network.tie_labels()
        labeled = np.flatnonzero(~np.isnan(labels))
        labels = np.where(np.isnan(labels), 0.5, labels)

        values = rng.random(network.n_ties)
        values = _clamp_and_symmetrize(
            values, labels, labeled, network.reverse_of
        )
        for sweep in range(1, self.max_sweeps + 1):
            votes = engine.votes(values)
            new_values = (1 - self.momentum) * values + self.momentum * votes
            new_values = _clamp_and_symmetrize(
                new_values, labels, labeled, network.reverse_of
            )
            delta = float(np.abs(new_values - values).max())
            values = new_values
            if delta < self.tol:
                break
        self.n_sweeps_ = sweep
        self.network = network
        self._values = values
        return self

    def tie_scores(self) -> np.ndarray:
        self._check_fitted()
        return self._values

    # -- serving artifacts ---------------------------------------------

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        arrays = super()._artifact_arrays()
        if self.n_sweeps_ is not None:
            arrays["n_sweeps"] = np.asarray([self.n_sweeps_], dtype=np.int64)
        return arrays

    def _restore_artifact(self, arrays: dict, params: dict) -> None:
        # The propagated values *are* the model state.
        self._values = arrays["tie_scores"]
        if "n_sweeps" in arrays:
            self.n_sweeps_ = int(arrays["n_sweeps"][0])


class ReDirectNSM(TieDirectionModel):
    """ReDirect-N/sm: node-centroid latent-vector model.

    Each node carries a source vector ``h_i`` and a target vector
    ``h'_i``; ``d(i, j) = σ(h_i · h'_j)``.  Alternating rounds: (1)
    compute per-tie targets — labels where available, pattern votes on
    the current model elsewhere; (2) regress the latent vectors onto the
    targets by minibatch SGD.

    Parameters
    ----------
    dimensions:
        Latent size ``Z`` (the paper uses Z = 40).
    rounds:
        Outer target-refresh rounds.
    inner_epochs:
        SGD passes over the ties per round.
    """

    def __init__(
        self,
        dimensions: int = 40,
        rounds: int = 4,
        inner_epochs: float = 3.0,
        learning_rate: float = 0.05,
        batch_size: int = 512,
        gamma: int = 10,
        l2: float = 1e-4,
    ) -> None:
        if dimensions < 1:
            raise ValueError("dimensions must be at least 1")
        self.dimensions = dimensions
        self.rounds = rounds
        self.inner_epochs = inner_epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.gamma = gamma
        self.l2 = l2
        self.network: MixedSocialNetwork | None = None
        self._h: np.ndarray | None = None
        self._h_prime: np.ndarray | None = None

    def fit(
        self, network: MixedSocialNetwork, seed: int | np.random.Generator = 0
    ) -> "ReDirectNSM":
        rng = ensure_rng(seed)
        engine = _PatternEngine(network, gamma=self.gamma)
        n, z = network.n_nodes, self.dimensions

        h = rng.standard_normal((n, z)) * 0.1
        h_prime = rng.standard_normal((n, z)) * 0.1

        labels = network.tie_labels()
        labeled_mask = ~np.isnan(labels)
        hard_labels = np.where(labeled_mask, labels, 0.5)

        src, dst = network.tie_src, network.tie_dst
        n_ties = network.n_ties
        steps_per_round = max(
            1, int(self.inner_epochs * n_ties / self.batch_size)
        )

        for _ in range(self.rounds):
            values = _sigmoid(np.einsum("el,el->e", h[src], h_prime[dst]))
            votes = engine.votes(values)
            targets = np.where(labeled_mask, hard_labels, votes)
            for _ in range(steps_per_round):
                batch = rng.integers(0, n_ties, size=self.batch_size)
                bs, bd = src[batch], dst[batch]
                hs, ht = h[bs], h_prime[bd]
                pred = _sigmoid(np.einsum("bl,bl->b", hs, ht))
                err = pred - targets[batch]
                grad_s = err[:, None] * ht + self.l2 * hs
                grad_t = err[:, None] * hs + self.l2 * ht
                np.add.at(h, bs, -self.learning_rate * grad_s)
                np.add.at(h_prime, bd, -self.learning_rate * grad_t)

        self.network = network
        self._h = h
        self._h_prime = h_prime
        return self

    def tie_scores(self) -> np.ndarray:
        network = self._check_fitted()
        return _sigmoid(
            np.einsum(
                "el,el->e",
                self._h[network.tie_src],
                self._h_prime[network.tie_dst],
            )
        )

    # -- serving artifacts ---------------------------------------------

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        return {
            "h": np.asarray(self._h),
            "h_prime": np.asarray(self._h_prime),
        }

    def _restore_artifact(self, arrays: dict, params: dict) -> None:
        # tie_scores recomputes σ(h·h') from the restored latent vectors
        # over the reconstructed tie arrays — deterministic, hence
        # bit-identical to the fitted model.
        self._h = arrays["h"]
        self._h_prime = arrays["h_prime"]
