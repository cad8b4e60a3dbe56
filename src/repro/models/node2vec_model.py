"""node2vec + endpoint concatenation + logistic regression.

A second node-based baseline (Sec. 7 related work) sharing the
:class:`TieDirectionModel` interface, so it drops into every experiment
next to LINE.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..embedding.node2vec import Node2VecConfig, Node2VecEmbedding, Node2VecResult
from ..graph import MixedSocialNetwork
from ..obs import TrainerCallback
from ..utils import ensure_rng
from .base import TieDirectionModel
from .logistic import LogisticRegression


class Node2VecModel(TieDirectionModel):
    """node2vec node embedding with a logistic-regression D-Step."""

    def __init__(
        self,
        config: Node2VecConfig | None = None,
        l2: float = 1e-3,
        callbacks: Iterable[TrainerCallback] | None = None,
        health=None,
    ) -> None:
        self.config = config or Node2VecConfig()
        self.l2 = l2
        self.callbacks = list(callbacks or [])
        self.health = health
        self.network: MixedSocialNetwork | None = None
        self.embedding_: Node2VecResult | None = None
        self._scores: np.ndarray | None = None

    def fit(
        self, network: MixedSocialNetwork, seed: int | np.random.Generator = 0
    ) -> "Node2VecModel":
        rng = ensure_rng(seed)
        embedding = Node2VecEmbedding(self.config).fit(
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

    _config_cls = Node2VecConfig

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        arrays = super()._artifact_arrays()
        if self.embedding_ is not None:
            arrays["node_embeddings"] = np.asarray(
                self.embedding_.node_embeddings
            )
            arrays["n_walks"] = np.asarray(
                [self.embedding_.n_walks], dtype=np.int64
            )
        return arrays

    def _restore_artifact(self, arrays: dict, params: dict) -> None:
        super()._restore_artifact(arrays, params)
        if "node_embeddings" in arrays:
            self.embedding_ = Node2VecResult(
                node_embeddings=arrays["node_embeddings"],
                n_walks=int(arrays["n_walks"][0]),
            )
