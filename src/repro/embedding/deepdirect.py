"""The DeepDirect E-Step: edge-based network embedding (paper Sec. 4).

Learns an embedding matrix ``M ∈ R^{|E|×l}`` (one row per oriented tie)
and a connection matrix ``N`` by SGD over sampled connected tie pairs,
minimising (Eq. 18)

    ``L = L_topo + α · L_label + β · L_pattern``

with the per-pair loss and gradients of Eqs. 20-25.  A lightweight
logistic head ``(w', b')`` is trained jointly and later warm-starts the
D-Step classifier (Sec. 4.5.2).

Implementation notes
--------------------
* The paper's per-sample SGD is vectorised into minibatches: every batch
  draws ``batch_size`` pairs from ``P_c``, their successors uniformly
  from ``c(e)``, and ``λ`` negatives each from ``P_n``, then hands the
  batch to :func:`~repro.embedding.kernels.fused_estep_batch`, which
  applies the exact update rules in one vectorised forward+gradient
  pass through preallocated scratch buffers with scatter-add updates
  (``tests/kernel_parity`` proves it against a scalar per-pair
  oracle).  Reads within a batch are stale by at most one batch — the
  standard HOGWILD-style approximation used by every practical
  skip-gram implementation.
* Training runs through :func:`repro.embedding.hogwild.train`, the
  driver shared with the LINE and node2vec baselines: the E-Step is
  an :class:`_EStepTask` whose every shard draws its own plan.
* Triad pseudo-labels ``y^t`` (Eq. 15) are *dynamic*: recomputed per
  batch from the live classifier on the pre-sampled witness ties, with
  no gradient through the label (Eq. 21 treats them as constants).
* The learning rate decays linearly to 1 % of its initial value, the
  word2vec schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from ..graph import MixedSocialNetwork, TieKind
from ..obs import TrainerCallback, span
from ..obs.health import HealthMonitor
from ..utils import ensure_rng, row_blocks
from .config import DeepDirectConfig
from .hogwild import SegmentArray, ShardTask, train
from .kernels import (
    BatchLoss,
    EStepWorkspace,
    batch_triad_labels,
    fused_estep_batch,
)
from .patterns import (
    TriadNeighborhood,
    build_triad_neighborhoods,
    degree_pseudo_labels,
)
from .samplers import ConnectedPairSampler, SamplePlanner, planned_batches


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _safe_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, 1e-12))


@dataclass
class EmbeddingResult:
    """Output of the E-Step.

    Attributes
    ----------
    embeddings:
        ``M``: one ``l``-dimensional row per oriented tie id.
    contexts:
        ``N``: the connection vectors, used only during training.
        :meth:`DeepDirectEmbedding.fit` returns it for inspection and
        incremental retraining; it is ``None`` on the ``embedding_`` of
        a fitted :class:`~repro.models.DeepDirectModel`, which releases
        N after the E-Step, and on a result restored from a model
        artifact, which omits N.
    classifier_weights, classifier_bias:
        The jointly trained logistic head ``(w', b')`` — the warm start
        for the D-Step.
    loss_history:
        ``(checkpoint, mean batch loss)`` pairs recorded during training.
    n_pairs_trained:
        Total connected tie pairs consumed.
    """

    embeddings: np.ndarray
    contexts: np.ndarray | None
    classifier_weights: np.ndarray
    classifier_bias: float
    loss_history: list[tuple[int, float]] = field(default_factory=list)
    n_pairs_trained: int = 0

    @property
    def dimensions(self) -> int:
        """Embedding dimensionality ``l``."""
        return self.embeddings.shape[1]

    def tie_scores(self) -> np.ndarray:
        """Joint-head scores ``σ(M·w' + b')`` for every oriented tie."""
        return _sigmoid(self.embeddings @ self.classifier_weights
                        + self.classifier_bias)


class DeepDirectEmbedding:
    """Trainer for the DeepDirect edge embedding (Algorithm 1, E-Step).

    Examples
    --------
    >>> from repro.datasets import load_dataset, hide_directions
    >>> from repro.embedding import DeepDirectConfig, DeepDirectEmbedding
    >>> net = hide_directions(load_dataset("twitter", 0.01), 0.5).network
    >>> config = DeepDirectConfig(dimensions=32, epochs=2.0)
    >>> result = DeepDirectEmbedding(config).fit(net, seed=0)
    >>> result.embeddings.shape[0] == net.n_ties
    True
    """

    def __init__(self, config: DeepDirectConfig | None = None) -> None:
        self.config = config or DeepDirectConfig()
        # Per-trainer scratch buffers for the fused kernel.  Every shard
        # (each HOGWILD worker) builds its own trainer in ``task.setup``,
        # so the workspace is naturally per-process.
        self._workspace = EStepWorkspace()
        self._triad_y: np.ndarray | None = None
        self._triad_ok: np.ndarray | None = None

    def _triad_buffers(
        self, batch: int, dtype: np.dtype
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reusable per-batch ``(y_triad, triad_valid)`` buffers, reset
        to their padding defaults (label 0.5, invalid)."""
        y, ok = self._triad_y, self._triad_ok
        if y is None or y.shape[0] != batch or y.dtype != dtype:
            y = self._triad_y = np.empty(batch, dtype=dtype)
            ok = self._triad_ok = np.empty(batch, dtype=bool)
        y.fill(0.5)
        ok.fill(False)
        return y, ok

    # ------------------------------------------------------------------

    def fit(
        self,
        network: MixedSocialNetwork,
        seed: int | np.random.Generator = 0,
        log_every: int = 200,
        callbacks: Iterable[TrainerCallback] | None = None,
        health: HealthMonitor | None = None,
    ) -> EmbeddingResult:
        """Run the E-Step on ``network`` and return the embedding.

        Parameters
        ----------
        callbacks:
            Optional :class:`repro.obs.TrainerCallback` instances.  Each
            batch emits ``on_batch_end`` with the Eq. 18 loss components
            (``L``, ``L_topo``, ``L_label``, ``L_pattern``), the current
            learning rate and throughput.  Callbacks are passive: an
            instrumented run is byte-identical to a bare one under the
            same seed.
        health:
            Optional :class:`repro.obs.health.HealthMonitor`.  Every
            batch's loss components (plus the kernel's RMS gradient
            norm) feed its sentinels, and the model
            arrays are swept at its ``check_every`` cadence; under
            ``policy="abort"`` a poisoned update raises
            :class:`~repro.obs.health.TrainingDivergedError` within one
            batch.  Like callbacks, the monitor is passive — it never
            changes the trajectory (except ``policy="rollback"``, whose
            whole point is restoring arrays after a trip).
        """
        cfg = self.config
        rng = ensure_rng(seed)
        n_ties, l = network.n_ties, cfg.dimensions

        with span("estep.setup", n_ties=n_ties, workers=cfg.workers) as setup_sp:
            sampler = ConnectedPairSampler(network)
            labels = network.tie_labels()
            labeled_mask = ~np.isnan(labels)
            labels = np.where(labeled_mask, labels, 0.0)

            use_patterns = cfg.beta > 0 and network.n_undirected > 0
            undirected_mask = network.tie_kind == int(TieKind.UNDIRECTED)
            if use_patterns:
                y_degree = degree_pseudo_labels(network)
                with span("estep.triad_neighborhoods", gamma=cfg.gamma):
                    triads = build_triad_neighborhoods(network, cfg.gamma, rng)
            else:
                y_degree = np.zeros(n_ties)
                triads = None
            setup_sp.set(use_patterns=bool(use_patterns))

        dt = np.dtype(cfg.dtype)
        labels = labels.astype(dt, copy=False)
        y_degree = y_degree.astype(dt, copy=False)
        pairs_per_epoch = network.connected_pair_count()
        total_pairs = int(cfg.epochs * pairs_per_epoch)
        if cfg.pairs_per_tie is not None:
            total_pairs = min(total_pairs, int(cfg.pairs_per_tie * n_ties))
        if cfg.max_pairs is not None:
            total_pairs = min(total_pairs, cfg.max_pairs)
        total_pairs = max(total_pairs, cfg.batch_size)
        n_batches = -(-total_pairs // cfg.batch_size)

        task = _EStepTask(
            config=cfg,
            # ``rng.spawn`` inside the planner does not advance ``rng``,
            # so M below is drawn from the stream the triads left.
            planner=SamplePlanner(sampler, cfg.n_negative, rng),
            triads=triads,
            labels=labels,
            labeled_mask=labeled_mask,
            undirected_mask=undirected_mask,
            y_degree=y_degree,
        )
        shape = (n_ties, l)
        hog = train(
            task,
            {"M": SegmentArray(
                shape, dt, lambda M: _uniform_init(rng, *shape, dt, M)),
             "N": SegmentArray(shape, dt),
             "w_prime": np.zeros(l, dtype=dt),
             "b_prime": np.zeros(1)},
            trainer="deepdirect",
            phase="estep",
            n_batches=n_batches,
            rng=rng,
            counter_names=("pair_draws", "negative_draws"),
            callbacks=callbacks,
            log_every=log_every,
            pairs_per_epoch=pairs_per_epoch,
            health=health,
            begin_logs={
                "n_ties": n_ties,
                "n_labeled": int(labeled_mask.sum()),
                "use_patterns": bool(use_patterns),
                "pairs_per_epoch": pairs_per_epoch,
                "sampler_setup_s": sampler.setup_seconds,
            },
            end_logs=sampler.stats(),
        )
        return EmbeddingResult(
            embeddings=hog.arrays["M"],
            contexts=hog.arrays["N"],
            classifier_weights=hog.arrays["w_prime"],
            classifier_bias=float(hog.arrays["b_prime"][0]),
            loss_history=hog.loss_history,
            n_pairs_trained=hog.pairs_trained,
        )

    # ------------------------------------------------------------------

    def _train_batch(
        self,
        triads: TriadNeighborhood | None,
        labels: np.ndarray,
        labeled_mask: np.ndarray,
        undirected_mask: np.ndarray,
        y_degree: np.ndarray,
        M: np.ndarray,
        N: np.ndarray,
        w_prime: np.ndarray,
        b_prime: float,
        lr: float,
        e: np.ndarray,
        successor: np.ndarray,
        negatives: np.ndarray,
        need_loss: bool = True,
        track_grad_norm: bool = False,
    ) -> BatchLoss:
        """One SGD batch: compute triad labels, run the kernel.

        The batch's samples arrive pre-drawn as zero-copy views into a
        :class:`~repro.embedding.samplers.SamplePlan`; only the dynamic
        ``y^t`` pseudo-labels (Eq. 15, recomputed from the live
        classifier each batch, no gradient through them) are computed
        here.  The parameter updates are delegated to
        :func:`~repro.embedding.kernels.fused_estep_batch`, which mutates
        M, N, w_prime in place.  Returns the batch-mean loss split into
        its Eq. 18 components plus the updated bias ``b_prime``.
        """
        cfg = self.config
        undirected_b = undirected_mask[e]

        # Triad pseudo-labels are inputs to the kernel, not part of it:
        # Eq. 21 treats y^t as a constant, so the kernels take the
        # precomputed labels and the gradient checks hold them fixed.
        # Directed rows contribute nothing (uw_ids = -1 everywhere →
        # valid=False, label 0.5), so only the undirected subset is
        # gathered and scored; the rest keeps the padding defaults.
        y_triad: np.ndarray | None = None
        triad_valid: np.ndarray | None = None
        if cfg.beta > 0 and triads is not None:
            rows = np.flatnonzero(undirected_b)
            if rows.size:
                with span("estep.triad_labels", undirected=int(rows.size)):
                    # Undirected ties all have rows in the triad table.
                    table_rows = e[rows] - triads.first
                    sub_y, sub_valid = batch_triad_labels(
                        M, w_prime, b_prime,
                        triads.uw_ids[table_rows], triads.vw_ids[table_rows],
                    )
                    y_triad, triad_valid = self._triad_buffers(
                        len(e), M.dtype
                    )
                    y_triad[rows] = sub_y
                    triad_valid[rows] = sub_valid

        return fused_estep_batch(
            M, N, w_prime, b_prime,
            e, successor, negatives,
            labels[e], labeled_mask[e], undirected_b, y_degree[e],
            y_triad, triad_valid,
            alpha=cfg.alpha,
            beta=cfg.beta,
            degree_threshold=cfg.degree_threshold,
            grad_clip=cfg.grad_clip,
            lr=lr,
            workspace=self._workspace,
            compute_loss=need_loss,
            track_grad_norm=track_grad_norm,
        )


def _uniform_init(
    rng: np.random.Generator,
    n_rows: int,
    dims: int,
    dtype: np.dtype,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """word2vec-style init of M: uniform rows in ``[-0.5, 0.5) / dims``.

    The draws stay float64 and are rounded once, so the stream (and the
    float64 path bit for bit) is dtype-independent.  Row blocks consume
    the stream in the order one ``(n_rows, dims)`` draw would, without
    its float64 transient.  ``out`` (an ``(n_rows, dims)`` array of
    ``dtype``) receives M in place, e.g. a HOGWILD shared segment.
    """
    M = np.empty((n_rows, dims), dtype=dtype) if out is None else out
    for rows in row_blocks(n_rows):
        M[rows] = (rng.random((rows.stop - rows.start, dims)) - 0.5) / dims
    return M


@dataclass
class _EStepState:
    """One shard's trainer (kernel workspace), planner, batches and loss."""

    trainer: DeepDirectEmbedding
    planner: SamplePlanner
    batches: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]
    loss: BatchLoss | None = None


@dataclass
class _EStepTask(ShardTask):
    """The E-Step as a :class:`~repro.embedding.hogwild.HogwildTask`.

    Carries everything a shard needs to run :meth:`_train_batch`
    against the ``M``/``N``/``w'``/``b'`` arrays.  ``setup`` moves the
    planner's streams to the shard's first pair and draws the shard's
    plan lazily, one byte-bounded segment at a time, so a shard holds at
    most one segment of samples and trains on exactly the pairs the
    sequential run draws for its batches.
    """

    config: DeepDirectConfig
    planner: SamplePlanner
    triads: TriadNeighborhood | None
    labels: np.ndarray
    labeled_mask: np.ndarray
    undirected_mask: np.ndarray
    y_degree: np.ndarray

    def setup(
        self, arrays: dict[str, np.ndarray], rng: np.random.Generator
    ) -> _EStepState:
        batch_size = self.config.batch_size
        planner = self.planner.skipped(self.start * batch_size)
        return _EStepState(
            trainer=DeepDirectEmbedding(self.config),
            planner=planner,
            batches=planned_batches(
                planner.draw, self.stop - self.start, batch_size,
                planner.bytes_per_pair,
            ),
        )

    def step(
        self,
        state: _EStepState,
        arrays: dict[str, np.ndarray],
        batch_idx: int,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        e, successor, negatives = next(state.batches)
        state.loss = state.trainer._train_batch(  # noqa: SLF001
            self.triads, self.labels,
            self.labeled_mask, self.undirected_mask, self.y_degree,
            arrays["M"], arrays["N"], arrays["w_prime"],
            float(arrays["b_prime"][0]), lr, e, successor, negatives,
            need_loss=self.wants_loss(batch_idx),
            track_grad_norm=self.track_grad_norm,
        )
        arrays["b_prime"][0] = state.loss.b_prime
        return state.loss.total

    def terms(self, state: _EStepState) -> dict[str, Any]:
        loss = state.loss
        terms: dict[str, Any] = {
            "L_topo": loss.topo, "L_label": loss.label,
            "L_pattern": loss.pattern,
        }
        if self.track_grad_norm:
            terms["grad_norm"] = state.trainer._workspace.grad_norm  # noqa: SLF001
        return terms

    def counters(self, state: _EStepState) -> tuple[int, ...]:
        stats = state.planner.sampler.stats()
        return stats["pair_draws"], stats["negative_draws"]


#: Trainer-centric alias for :class:`DeepDirectEmbedding`.
DeepDirectTrainer = DeepDirectEmbedding


def embed(
    network: MixedSocialNetwork,
    config: DeepDirectConfig | None = None,
    seed: int | np.random.Generator = 0,
    callbacks: Iterable[TrainerCallback] | None = None,
) -> EmbeddingResult:
    """One-call convenience wrapper around :class:`DeepDirectEmbedding`."""
    return DeepDirectEmbedding(config).fit(
        network, seed=seed, callbacks=callbacks
    )
