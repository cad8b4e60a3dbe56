"""Transfer learning for TDL — the paper's future work (Sec. 8).

"Among [the future directions] is to leverage transfer learning to
improve the performance on networks with few labeled data."

Tie *embeddings* live in a per-network basis, so they do not transfer
directly; the 24 handcrafted features (Sec. 3) do — they have the same
meaning on every mixed social network.  :class:`TransferHFModel`
therefore:

1. fits the HF logistic regression on a *source* network rich in
   directed ties,
2. on the *target* network, warm-starts from the source parameters and
   fine-tunes with an extra L2 pull toward them (`transfer_strength`),
   so scarce target labels adjust rather than re-learn the function.

With ``transfer_strength → ∞`` this degenerates to zero-shot transfer
(apply the source model as-is); with ``0`` it is plain :class:`HFModel`
on the target.
"""

from __future__ import annotations

import numpy as np

from ..features import HandcraftedFeatureExtractor, standardize
from ..graph import MixedSocialNetwork
from ..utils import check_non_negative, ensure_rng
from .base import TieDirectionModel


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class TransferHFModel(TieDirectionModel):
    """HF logistic regression transferred from a labeled source network.

    Parameters
    ----------
    source_network:
        A mixed social network with plentiful directed ties.
    transfer_strength:
        Weight of the quadratic pull toward the source parameters during
        target fine-tuning.  0 disables transfer entirely.
    l2:
        Plain L2 regularisation (applied on both stages).
    centrality_pivots:
        Pivot budget for the sampled centrality features.
    """

    def __init__(
        self,
        source_network: MixedSocialNetwork,
        transfer_strength: float = 1.0,
        l2: float = 1e-3,
        centrality_pivots: int | None = 64,
    ) -> None:
        check_non_negative(transfer_strength, "transfer_strength")
        check_non_negative(l2, "l2")
        self.source_network = source_network
        self.transfer_strength = transfer_strength
        self.l2 = l2
        self.centrality_pivots = centrality_pivots
        self.network: MixedSocialNetwork | None = None
        self.source_params_: np.ndarray | None = None
        self._scores: np.ndarray | None = None

    # ------------------------------------------------------------------

    def _labeled_design(
        self, network: MixedSocialNetwork, seed
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Standardised features for all ties + the labeled subset."""
        extractor = HandcraftedFeatureExtractor(
            network, centrality_pivots=self.centrality_pivots, seed=seed
        )
        features = standardize(extractor.all_tie_features())
        labels = network.tie_labels()
        labeled = np.flatnonzero(~np.isnan(labels))
        return features, labels, labeled

    def _fit_logistic(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        anchor: np.ndarray | None,
        anchor_strength: float,
    ) -> np.ndarray:
        """L-BFGS logistic fit with an optional pull toward ``anchor``."""
        n, d = features.shape
        x0 = anchor.copy() if anchor is not None else np.zeros(d + 1)

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            w, b = params[:d], params[d]
            p = _sigmoid(features @ w + b)
            ce = -(
                targets * np.log(np.maximum(p, 1e-12))
                + (1 - targets) * np.log(np.maximum(1 - p, 1e-12))
            )
            loss = float(ce.mean()) + 0.5 * self.l2 * float(w @ w)
            residual = (p - targets) / n
            grad = np.concatenate(
                [features.T @ residual + self.l2 * w, [residual.sum()]]
            )
            if anchor is not None and anchor_strength > 0:
                diff = params - anchor
                loss += 0.5 * anchor_strength * float(diff @ diff)
                grad = grad + anchor_strength * diff
            return loss, grad

        from scipy import optimize

        result = optimize.minimize(
            objective, x0, jac=True, method="L-BFGS-B",
            options={"maxiter": 500},
        )
        return result.x

    # ------------------------------------------------------------------

    def fit(
        self, network: MixedSocialNetwork, seed: int | np.random.Generator = 0
    ) -> "TransferHFModel":
        rng = ensure_rng(seed)

        # Stage 1: learn the directionality function on the source.
        src_features, src_labels, src_labeled = self._labeled_design(
            self.source_network, rng
        )
        self.source_params_ = self._fit_logistic(
            src_features[src_labeled],
            src_labels[src_labeled],
            anchor=None,
            anchor_strength=0.0,
        )

        # Stage 2: fine-tune on the target, anchored to the source.
        tgt_features, tgt_labels, tgt_labeled = self._labeled_design(
            network, rng
        )
        if len(tgt_labeled):
            params = self._fit_logistic(
                tgt_features[tgt_labeled],
                tgt_labels[tgt_labeled],
                anchor=self.source_params_,
                anchor_strength=self.transfer_strength,
            )
        else:
            params = self.source_params_

        d = tgt_features.shape[1]
        self.network = network
        self._scores = _sigmoid(
            tgt_features @ params[:d] + params[d]
        )
        return self

    def tie_scores(self) -> np.ndarray:
        self._check_fitted()
        return self._scores
