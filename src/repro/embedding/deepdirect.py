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
  batch to a kernel from :mod:`repro.embedding.kernels` that applies
  the exact update rules.  The default ``fused`` kernel runs one fully
  vectorised forward+gradient pass through preallocated scratch buffers
  with ``np.add.at`` scatter updates; the ``reference`` kernel is the
  scalar per-pair oracle the differential-testing harness
  (``tests/kernel_parity``) checks it against.  Reads within a batch
  are stale by at most one batch — the standard HOGWILD-style
  approximation used by every practical skip-gram implementation.
* Triad pseudo-labels ``y^t`` (Eq. 15) are *dynamic*: recomputed per
  batch from the live classifier on the pre-sampled witness ties, with
  no gradient through the label (Eq. 21 treats them as constants).
* The learning rate decays linearly to 1 % of its initial value, the
  word2vec schedule.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..graph import MixedSocialNetwork, TieKind
from ..obs import (
    CallbackList,
    MetricsRegistry,
    RunInfo,
    TrainerCallback,
    record_worker_stats,
    span,
)
from ..obs.health import HealthMonitor, maybe_poison
from ..utils import ensure_rng, row_blocks
from .config import DeepDirectConfig
from .hogwild import SegmentArray, run_hogwild, should_degrade
from .kernels import (
    BatchLoss,
    EStepWorkspace,
    batch_triad_labels,
    fused_estep_batch,
    reference_estep_batch,
)
from .patterns import (
    TriadNeighborhood,
    build_triad_neighborhoods,
    degree_pseudo_labels,
)
from .samplers import (
    ConnectedPairSampler,
    SamplePlan,
    SamplePlanner,
    planned_batches,
)


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
        # Per-trainer scratch buffers for the fused kernel.  HOGWILD
        # workers each build their own trainer in ``task.setup``, so the
        # workspace is naturally per-process.
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
            norm on the fused path) feed its sentinels, and the model
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
        cb = CallbackList(callbacks)
        metrics = MetricsRegistry()

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
        w_prime = np.zeros(l, dtype=dt)
        b_prime = 0.0
        labels = labels.astype(dt, copy=False)
        y_degree = y_degree.astype(dt, copy=False)

        total_pairs = int(cfg.epochs * network.connected_pair_count())
        if cfg.pairs_per_tie is not None:
            total_pairs = min(total_pairs, int(cfg.pairs_per_tie * n_ties))
        if cfg.max_pairs is not None:
            total_pairs = min(total_pairs, cfg.max_pairs)
        total_pairs = max(total_pairs, cfg.batch_size)
        n_batches = -(-total_pairs // cfg.batch_size)

        workers = cfg.workers
        degraded = should_degrade(
            workers, n_batches * cfg.batch_size, cfg.min_pairs_per_worker
        )
        if degraded:
            warnings.warn(
                f"workers={workers} degraded to sequential: "
                f"{n_batches * cfg.batch_size} pairs gives "
                f"{n_batches * cfg.batch_size // workers} per worker, below "
                f"min_pairs_per_worker={cfg.min_pairs_per_worker} "
                "(HOGWILD coordination overhead would outweigh the "
                "parallelism; set min_pairs_per_worker=0 to force workers)",
                RuntimeWarning,
                stacklevel=2,
            )
            metrics.counter("hogwild.degraded").inc()
            workers = 1

        planner = SamplePlanner(sampler, cfg.n_negative, rng)

        run = RunInfo(
            trainer="deepdirect",
            total_batches=n_batches,
            batch_size=cfg.batch_size,
            config=dataclasses.asdict(cfg),
        )
        pairs_per_epoch = network.connected_pair_count()
        loss_ema = metrics.ema("L", alpha=0.05)
        fit_start = time.perf_counter()
        if cb:
            fit_begin_logs = {
                "n_ties": n_ties,
                "n_labeled": int(labeled_mask.sum()),
                "use_patterns": bool(use_patterns),
                "pairs_per_epoch": pairs_per_epoch,
                "sampler_setup_s": sampler.setup_seconds,
                "workers": workers,
            }
            if degraded:
                fit_begin_logs["hogwild_degraded"] = True
                fit_begin_logs["requested_workers"] = cfg.workers
            cb.on_fit_begin(run, fit_begin_logs)

        # M is drawn here, or inside the HOGWILD segment.  The planner's
        # ``rng.spawn`` does not advance ``rng``, so both draw the same M.
        if workers > 1:
            return self._fit_parallel(
                sampler, planner, triads, labels, labeled_mask,
                undirected_mask, y_degree, w_prime, b_prime,
                n_batches, pairs_per_epoch, rng, cb, run, metrics,
                log_every, fit_start, health,
            )
        M = _uniform_init(rng, n_ties, l, dt)
        N = np.zeros((n_ties, l), dtype=dt)

        loss_history: list[tuple[int, float]] = []
        epoch = 0
        # Telemetry-disabled fast path: with no sinks and no monitor the
        # loop body below is just kernel calls — ``track`` gates every
        # piece of per-batch bookkeeping, and ``need_loss`` is only True
        # on history batches, so the kernels skip their CE passes too.
        # (``cb is not None`` was the old gate; a CallbackList is always
        # non-None, so it never actually disabled the bookkeeping.)
        track = bool(cb)
        health_arrays = {"M": M, "N": N, "w_prime": w_prime}
        with span("estep.train", n_batches=n_batches,
                  batch_size=cfg.batch_size) as train_sp:
            # Plan draws are granularity-invariant, so the byte-bounded
            # segments bound the plan's memory, never the trajectory.
            batches = planned_batches(
                planner.draw, n_batches, cfg.batch_size,
                planner.bytes_per_pair,
            )
            for batch_idx, (e, successor, negatives) in enumerate(batches):
                lr = cfg.learning_rate * max(1.0 - batch_idx / n_batches, 0.01)
                if health is not None:
                    maybe_poison(batch_idx, health_arrays)
                loss = self._train_batch(
                    triads, labels, labeled_mask,
                    undirected_mask, y_degree, M, N, w_prime, b_prime, lr,
                    e, successor, negatives,
                    # Loss bookkeeping is only consumed on history
                    # batches, by callbacks, or by the health sentinels;
                    # skip it elsewhere.
                    need_loss=track or health is not None
                    or batch_idx % log_every == 0,
                    track_grad_norm=health is not None,
                )
                b_prime = loss.b_prime
                if health is not None:
                    health.observe_batch(
                        batch_idx,
                        {"L": loss.total, "L_topo": loss.topo,
                         "L_label": loss.label, "L_pattern": loss.pattern},
                        arrays=health_arrays,
                        grad_norm=self._workspace.grad_norm,
                    )
                    if track and batch_idx % log_every == 0:
                        cb.on_event(run, "health", health.event_payload())
                if batch_idx % log_every == 0:
                    loss_history.append((batch_idx * cfg.batch_size, loss.total))
                if track:
                    pairs_done = (batch_idx + 1) * cfg.batch_size
                    elapsed = time.perf_counter() - fit_start
                    cb.on_batch_end(
                        run,
                        batch_idx,
                        {
                            "L": loss.total,
                            "L_ema": loss_ema.update(loss.total),
                            "L_topo": loss.topo,
                            "L_label": loss.label,
                            "L_pattern": loss.pattern,
                            "lr": lr,
                            "pairs": pairs_done,
                            "pairs_per_sec": pairs_done / max(elapsed, 1e-9),
                        },
                    )
                    new_epoch = pairs_done // pairs_per_epoch
                    if new_epoch > epoch:
                        epoch = new_epoch
                        cb.on_epoch_end(
                            run,
                            epoch,
                            {"pairs": pairs_done, "L_ema": loss_ema.value},
                        )
            train_sp.set(pairs=n_batches * cfg.batch_size,
                         L_ema=loss_ema.value)

        if cb:
            duration = time.perf_counter() - fit_start
            pairs_trained = n_batches * cfg.batch_size
            cb.on_fit_end(
                run,
                {
                    "n_pairs_trained": pairs_trained,
                    "L_ema": loss_ema.value,
                    **sampler.stats(),
                    "duration_s": duration,
                    "pairs_per_sec": pairs_trained / max(duration, 1e-9),
                },
            )

        return EmbeddingResult(
            embeddings=M,
            contexts=N,
            classifier_weights=w_prime,
            classifier_bias=b_prime,
            loss_history=loss_history,
            n_pairs_trained=n_batches * cfg.batch_size,
        )

    # ------------------------------------------------------------------

    def _fit_parallel(
        self,
        sampler: ConnectedPairSampler,
        planner: SamplePlanner,
        triads: TriadNeighborhood | None,
        labels: np.ndarray,
        labeled_mask: np.ndarray,
        undirected_mask: np.ndarray,
        y_degree: np.ndarray,
        w_prime: np.ndarray,
        b_prime: float,
        n_batches: int,
        pairs_per_epoch: int,
        rng: np.random.Generator,
        cb: CallbackList,
        run: RunInfo,
        metrics: MetricsRegistry,
        log_every: int,
        fit_start: float,
        health: HealthMonitor | None = None,
    ) -> EmbeddingResult:
        """HOGWILD E-Step: ``cfg.workers`` lock-free processes share M/N.

        The sequential semantics carry over exactly except for update
        interleaving: the batch schedule, the learning-rate decay and
        the total pair budget are identical.  The *entire run* is
        planned in the parent before forking — one mega-draw shared by
        every worker through the copy-on-write task payload — so workers
        do zero sampling work and no longer duplicate per-batch draw
        overhead per process (the cost that used to make small-tier
        HOGWILD slower than sequential).  The backend calls
        ``task.shard(start, stop)`` per worker, so each worker receives
        only its contiguous slice of the plan as zero-copy views.

        M and N live only in the shared segment: M is initialised there
        (the same draw as the sequential path) and N is the segment's
        zero fill, so the parent never holds a private copy of either.
        """
        cfg = self.config
        plan = planner.plan(n_batches * cfg.batch_size, cfg.batch_size)
        task = _HogwildEStepTask(
            config=cfg,
            plan=plan,
            triads=triads,
            labels=labels,
            labeled_mask=labeled_mask,
            undirected_mask=undirected_mask,
            y_degree=y_degree,
        )
        with span("estep.hogwild", workers=cfg.workers,
                  n_batches=n_batches) as hog_sp:
            shape, dt = (len(labels), cfg.dimensions), w_prime.dtype
            hog = run_hogwild(
                task,
                {"M": SegmentArray(
                    shape, dt, lambda M: _uniform_init(rng, *shape, dt, M)),
                 "N": SegmentArray(shape, dt),
                 "w_prime": w_prime, "b_prime": np.array([b_prime])},
                n_batches=n_batches,
                batch_size=cfg.batch_size,
                workers=cfg.workers,
                rng=rng,
                lr0=cfg.learning_rate,
                counter_names=(),
                callbacks=cb,
                run=run,
                log_every=log_every,
                pairs_per_epoch=pairs_per_epoch,
                health=health,
            )
            hog_sp.set(pairs=hog.pairs_trained)
        if cb:
            duration = time.perf_counter() - fit_start
            worker_logs = record_worker_stats(metrics, hog.worker_stats, ())
            cb.on_fit_end(
                run,
                {
                    "n_pairs_trained": hog.pairs_trained,
                    **worker_logs,
                    # Sampling happened in the parent's planner, so the
                    # deterministic draw counters come from there, not
                    # from the workers.
                    **sampler.stats(),
                    "duration_s": duration,
                    "pairs_per_sec": hog.pairs_trained / max(duration, 1e-9),
                    "workers": cfg.workers,
                },
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
        here.  The parameter updates are delegated to the configured
        :mod:`repro.embedding.kernels` implementation, which mutates M,
        N, w_prime in place.  Returns the batch-mean loss split into
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

        if cfg.kernel == "fused":
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
        # The reference oracle always reports its losses — it is the
        # auditable transcription of Eq. 18, not a hot path.
        return reference_estep_batch(
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
class _HogwildEStepTask:
    """Picklable E-Step payload for :func:`repro.embedding.hogwild.run_hogwild`.

    Carries everything a worker needs to run :meth:`_train_batch`
    against the shared ``M``/``N``/``w'``/``b'`` buffers.  The whole-run
    :class:`~repro.embedding.samplers.SamplePlan` was drawn in the
    parent; :meth:`shard` then narrows the payload to one worker's
    contiguous batch range, so each worker receives just its own slice
    of the plan (zero-copy views — one contiguous tie-id range of the
    store) copy-on-write (fork) or via pickling (spawn).  Workers
    themselves never touch an RNG, which is why :meth:`counters` is
    empty.
    """

    config: DeepDirectConfig
    plan: SamplePlan
    triads: TriadNeighborhood | None
    labels: np.ndarray
    labeled_mask: np.ndarray
    undirected_mask: np.ndarray
    y_degree: np.ndarray
    #: Global index of the first batch in :attr:`plan` (0 for the full
    #: plan; the shard start after :meth:`shard`).
    batch_offset: int = 0

    def shard(self, start: int, stop: int) -> "_HogwildEStepTask":
        """Payload for one worker: batches ``start .. stop - 1`` only."""
        return dataclasses.replace(
            self,
            plan=self.plan.slice_batches(start, stop),
            batch_offset=start,
        )

    def setup(
        self, arrays: dict[str, np.ndarray], rng: np.random.Generator
    ) -> DeepDirectEmbedding:
        return DeepDirectEmbedding(self.config)

    def step(
        self,
        state: DeepDirectEmbedding,
        arrays: dict[str, np.ndarray],
        batch_idx: int,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        e, successor, negatives = self.plan.batch(batch_idx - self.batch_offset)
        # Poison test hook: workers inherit REPRO_HEALTH_POISON through
        # the environment, so a poisoned batch lands one NaN in this
        # worker's shared-memory view — the parent's monitor must catch
        # it from the stats block / array sweep.
        maybe_poison(batch_idx, arrays)
        loss = state._train_batch(  # noqa: SLF001 - trainer-owned payload
            self.triads, self.labels,
            self.labeled_mask, self.undirected_mask, self.y_degree,
            arrays["M"], arrays["N"], arrays["w_prime"],
            float(arrays["b_prime"][0]), lr, e, successor, negatives,
        )
        arrays["b_prime"][0] = loss.b_prime
        return loss.total

    def counters(self, state: DeepDirectEmbedding) -> tuple[int, ...]:
        return ()


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
