"""DeepDirect end-to-end: E-Step embedding + D-Step classifier (Sec. 4).

The D-Step (Sec. 4.5.2) trains an L2-regularised logistic regression on
the embedding rows of the labeled ties, warm-started from the E-Step's
joint head, optionally weighting samples by tie degree (mirroring the
``deg_tie`` weighting of Eq. 13).
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Iterable

import numpy as np

from ..embedding import DeepDirectConfig, DeepDirectEmbedding, EmbeddingResult
from ..graph import MixedSocialNetwork
from ..obs import CallbackList, RunInfo, TrainerCallback, span
from ..utils import ensure_rng
from .base import TieDirectionModel
from .logistic import LogisticRegression


class DeepDirectModel(TieDirectionModel):
    """The paper's headline method.

    Parameters
    ----------
    config:
        E-Step hyper-parameters (``α``, ``β``, ``l``, ``λ``, ``τ``, ...).
    l2:
        D-Step regularisation strength.
    warm_start:
        Initialise the D-Step from the E-Step head ``(w', b')``
        (Algorithm 1 line 20).  Disable for the ablation bench.
    degree_weighted_dstep:
        Weight D-Step samples by tie degree, matching the E-Step's
        emphasis on well-connected ties.  Off by default (the paper
        trains the D-Step unweighted).
    dstep:
        ``"logistic"`` (the paper's D-Step, Eq. 26) or ``"mlp"`` — the
        non-linear directionality function proposed as future work in
        Sec. 8, realised by :class:`repro.models.MLPClassifier`.
    mlp_hidden:
        Hidden width of the MLP D-Step (ignored for ``"logistic"``).
    callbacks:
        Optional :class:`repro.obs.TrainerCallback` instances forwarded
        to the E-Step trainer; the D-Step additionally emits one
        ``"dstep"`` event with its convergence report.
    health:
        Optional :class:`repro.obs.health.HealthMonitor` forwarded to
        the E-Step trainer (numeric sentinels + divergence policy).

    After :meth:`fit`, ``embedding_`` holds M and the joint head but
    not the context matrix N (``embedding_.contexts is None``), exactly
    like a model loaded from an artifact: nothing after the E-Step reads
    N.  Call :class:`repro.embedding.DeepDirectEmbedding` directly to
    keep it.
    """

    def __init__(
        self,
        config: DeepDirectConfig | None = None,
        l2: float = 1e-3,
        warm_start: bool = True,
        degree_weighted_dstep: bool = False,
        dstep: str = "logistic",
        mlp_hidden: int = 32,
        callbacks: Iterable[TrainerCallback] | None = None,
        health=None,
    ) -> None:
        if dstep not in ("logistic", "mlp"):
            raise ValueError("dstep must be 'logistic' or 'mlp'")
        self.config = config or DeepDirectConfig()
        self.l2 = l2
        self.warm_start = warm_start
        self.degree_weighted_dstep = degree_weighted_dstep
        self.dstep = dstep
        self.mlp_hidden = mlp_hidden
        self.callbacks = list(callbacks or [])
        self.health = health
        self.network: MixedSocialNetwork | None = None
        self.embedding_: EmbeddingResult | None = None
        self._classifier: LogisticRegression | None = None
        self._scores: np.ndarray | None = None

    def fit(
        self, network: MixedSocialNetwork, seed: int | np.random.Generator = 0
    ) -> "DeepDirectModel":
        rng = ensure_rng(seed)
        cb = CallbackList(self.callbacks)

        # E-Step: learn the tie embedding matrix M.  No scoring,
        # discovery or export path reads the context matrix N, so it is
        # released here, before the D-Step, as a reloaded model has none.
        with span("estep", workers=self.config.workers):
            embedding = replace(
                DeepDirectEmbedding(self.config).fit(
                    network, seed=rng, callbacks=self.callbacks,
                    health=self.health,
                ),
                contexts=None,
            )

        # D-Step: classifier on the labeled tie embeddings.
        labels = network.tie_labels()
        labeled = np.flatnonzero(~np.isnan(labels))
        sample_weight = (
            network.tie_degrees()[labeled].astype(float)
            if self.degree_weighted_dstep
            else None
        )
        if self.dstep == "mlp":
            # Future-work variant (Sec. 8): the MLP has its own
            # parameterisation, so the E-Step warm start does not apply.
            from .mlp import MLPClassifier

            classifier = MLPClassifier(
                hidden=self.mlp_hidden, l2=self.l2, seed=rng
            )
            with span("dstep.fit", dstep="mlp", n_labeled=int(len(labeled))):
                classifier.fit(
                    embedding.embeddings[labeled],
                    labels[labeled],
                    sample_weight=sample_weight,
                )
        else:
            classifier = LogisticRegression(l2=self.l2)
            warm = (
                (embedding.classifier_weights, embedding.classifier_bias)
                if self.warm_start
                else None
            )
            dstep_start = time.perf_counter()
            with span(
                "dstep.fit",
                dstep="logistic",
                warm_start=self.warm_start,
                n_labeled=int(len(labeled)),
            ) as dstep_sp:
                classifier.fit(
                    embedding.embeddings[labeled],
                    labels[labeled],
                    sample_weight=sample_weight,
                    warm_start=warm,
                )
                dstep_sp.set(n_iter=classifier.n_iter_)
            if cb:
                # At the cold start (all-zero parameters) every
                # prediction is 0.5, so the unregularised objective is
                # exactly log 2 — the warm-start delta costs nothing.
                cold_initial = math.log(2.0)
                cb.on_event(
                    RunInfo(trainer="deepdirect"),
                    "dstep",
                    {
                        "n_labeled": int(len(labeled)),
                        "n_iter": classifier.n_iter_,
                        "warm_start": self.warm_start,
                        "initial_loss": classifier.initial_loss_,
                        "final_loss": classifier.final_loss_,
                        "cold_start_initial_loss": cold_initial,
                        "warm_start_delta":
                            cold_initial - classifier.initial_loss_,
                        "duration_s": time.perf_counter() - dstep_start,
                    },
                )

        self.network = network
        self.embedding_ = embedding
        self._classifier = classifier
        self._scores = classifier.predict_proba(embedding.embeddings)
        return self

    def tie_scores(self) -> np.ndarray:
        self._check_fitted()
        return self._scores

    # -- serving artifacts ---------------------------------------------

    _config_cls = DeepDirectConfig

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        from ..embedding.persistence import embedding_to_arrays

        arrays = super()._artifact_arrays()
        if self.embedding_ is not None:
            # Scoring never reads N, so the artifact leaves it out.
            arrays.update(
                embedding_to_arrays(replace(self.embedding_, contexts=None))
            )
        classifier = self._classifier
        if (
            isinstance(classifier, LogisticRegression)
            and classifier.weights_ is not None
        ):
            arrays["dstep_weights"] = np.asarray(classifier.weights_)
            arrays["dstep_bias"] = np.asarray([classifier.bias_], dtype=float)
        return arrays

    def _restore_artifact(self, arrays: dict, params: dict) -> None:
        from ..embedding.persistence import embedding_from_arrays

        super()._restore_artifact(arrays, params)
        if "embeddings" in arrays:
            self.embedding_ = embedding_from_arrays(
                arrays, source="artifact"
            )
        if "dstep_weights" in arrays:
            classifier = LogisticRegression(l2=self.l2)
            classifier.weights_ = arrays["dstep_weights"]
            classifier.bias_ = float(arrays["dstep_bias"][0])
            self._classifier = classifier

    @property
    def tie_embeddings(self) -> np.ndarray:
        """The E-Step embedding matrix ``M`` (rows = oriented tie ids)."""
        if self.embedding_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.embedding_.embeddings
