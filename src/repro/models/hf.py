"""HF: the handcrafted-feature solution to TDL (paper Sec. 3).

For every directed tie ``(u, v) ∈ E_d`` two training instances are
built — features of ``(u, v)`` with label 1 and features of ``(v, u)``
with label 0 — and a logistic regression models the directionality
function (Eq. 5).
"""

from __future__ import annotations

import numpy as np

from ..features import HandcraftedFeatureExtractor, standardize
from ..graph import MixedSocialNetwork
from ..utils import ensure_rng
from .base import TieDirectionModel
from .logistic import LogisticRegression


class HFModel(TieDirectionModel):
    """Logistic regression over the 24 handcrafted tie features.

    Parameters
    ----------
    l2:
        L2 strength of the logistic regression.
    centrality_pivots:
        Pivot count for the sampled centrality estimators (``None`` =
        exact).
    """

    def __init__(
        self, l2: float = 1e-3, centrality_pivots: int | None = 64
    ) -> None:
        self.l2 = l2
        self.centrality_pivots = centrality_pivots
        self.network: MixedSocialNetwork | None = None
        self._classifier: LogisticRegression | None = None
        self._scores: np.ndarray | None = None

    def fit(
        self, network: MixedSocialNetwork, seed: int | np.random.Generator = 0
    ) -> "HFModel":
        rng = ensure_rng(seed)
        extractor = HandcraftedFeatureExtractor(
            network, centrality_pivots=self.centrality_pivots, seed=rng
        )
        all_features = extractor.all_tie_features()
        all_features = standardize(all_features)

        labels = network.tie_labels()
        labeled = np.flatnonzero(~np.isnan(labels))
        classifier = LogisticRegression(l2=self.l2)
        classifier.fit(all_features[labeled], labels[labeled])

        self.network = network
        self._classifier = classifier
        self._scores = classifier.predict_proba(all_features)
        return self

    def tie_scores(self) -> np.ndarray:
        self._check_fitted()
        return self._scores

    # -- serving artifacts ---------------------------------------------

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        arrays = super()._artifact_arrays()
        if self._classifier is not None:
            arrays["classifier_weights"] = np.asarray(
                self._classifier.weights_
            )
            arrays["classifier_bias"] = np.asarray(
                [self._classifier.bias_], dtype=float
            )
        return arrays

    def _restore_artifact(self, arrays: dict, params: dict) -> None:
        super()._restore_artifact(arrays, params)
        if "classifier_weights" in arrays:
            classifier = LogisticRegression(l2=self.l2)
            classifier.weights_ = arrays["classifier_weights"]
            classifier.bias_ = float(arrays["classifier_bias"][0])
            self._classifier = classifier
