"""LINE baseline end-to-end (paper Sec. 6.1).

LINE node vectors are learned unsupervised; a tie ``(u, v)`` is
represented by concatenating the endpoint vectors, and a logistic
regression on the labeled ties models the directionality function —
the indirect edge representation the paper argues against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..embedding import LineConfig, LineEmbedding, LineResult
from ..graph import MixedSocialNetwork
from ..obs import TrainerCallback
from ..utils import ensure_rng
from .base import TieDirectionModel
from .logistic import LogisticRegression


class LineModel(TieDirectionModel):
    """LINE node embedding + endpoint concatenation + logistic regression."""

    def __init__(
        self,
        config: LineConfig | None = None,
        l2: float = 1e-3,
        callbacks: Iterable[TrainerCallback] | None = None,
        health=None,
    ) -> None:
        self.config = config or LineConfig()
        self.l2 = l2
        self.callbacks = list(callbacks or [])
        self.health = health
        self.network: MixedSocialNetwork | None = None
        self.embedding_: LineResult | None = None
        self._scores: np.ndarray | None = None

    def fit(
        self, network: MixedSocialNetwork, seed: int | np.random.Generator = 0
    ) -> "LineModel":
        rng = ensure_rng(seed)
        embedding = LineEmbedding(self.config).fit(
            network, seed=rng, callbacks=self.callbacks, health=self.health
        )
        features = embedding.tie_features(network)

        labels = network.tie_labels()
        labeled = np.flatnonzero(~np.isnan(labels))
        classifier = LogisticRegression(l2=self.l2)
        classifier.fit(features[labeled], labels[labeled])

        self.network = network
        self.embedding_ = embedding
        self._scores = classifier.predict_proba(features)
        return self

    def tie_scores(self) -> np.ndarray:
        self._check_fitted()
        return self._scores

    # -- serving artifacts ---------------------------------------------

    _config_cls = LineConfig

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        arrays = super()._artifact_arrays()
        if self.embedding_ is not None:
            arrays["node_embeddings"] = np.asarray(
                self.embedding_.node_embeddings
            )
        return arrays

    def _restore_artifact(self, arrays: dict, params: dict) -> None:
        super()._restore_artifact(arrays, params)
        if "node_embeddings" in arrays:
            self.embedding_ = LineResult(
                node_embeddings=arrays["node_embeddings"]
            )
