"""LINE baseline: node-based network embedding (Tang et al., WWW 2015).

The paper's strongest embedding baseline.  LINE learns one vector per
*node* by preserving first-order proximity (observed ties) and
second-order proximity (shared neighbourhoods), each trained with
negative sampling; the two halves are concatenated.  A social tie
``(u, v)`` is then represented indirectly by concatenating the vectors
of its endpoints — precisely the indirection Sec. 4 argues loses edge-
level information, and what Fig. 3/Fig. 7 measure DeepDirect against.

The paper sets LINE's node dimension to 64 (half of DeepDirect's 128) so
the concatenated tie feature is 128-dimensional, matching DeepDirect.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..graph import MixedSocialNetwork
from ..obs import (
    CallbackList,
    MetricsRegistry,
    RunInfo,
    TrainerCallback,
    record_worker_stats,
    span,
)
from ..obs.health import HealthMonitor, maybe_poison
from ..utils import check_positive, ensure_rng
from .hogwild import run_hogwild, should_degrade
from .kernels import SgnsWorkspace, fused_sgns_batch, reference_sgns_batch
from .samplers import AliasSampler, planned_batches, uniform_indices


@dataclass(frozen=True)
class LineConfig:
    """Hyper-parameters of the LINE baseline.

    ``dimensions`` is the node embedding size; it is split evenly between
    the first-order and second-order components.  ``epochs`` counts
    passes over the oriented tie list, mirroring DeepDirect's ``τ``.
    ``workers > 1`` trains with that many lock-free HOGWILD processes
    over shared-memory embedding buffers (see ``docs/performance.md``);
    ``workers=1`` keeps the bit-identical sequential seeded path.
    ``min_pairs_per_worker`` is the adaptive-degradation floor: when the
    per-worker sample budget falls below it, the run drops back to the
    sequential path with a ``RuntimeWarning`` (``0`` disables the gate).
    ``dtype`` selects ``"float64"`` (default) or ``"float32"`` embedding
    precision.  ``kernel`` selects the skip-gram batch kernel —
    ``"fused"`` (vectorised, preallocated buffers) or ``"reference"``
    (the scalar per-pair oracle from :mod:`repro.embedding.kernels`).
    """

    dimensions: int = 64
    n_negative: int = 5
    epochs: float = 10.0
    learning_rate: float = 0.025
    batch_size: int = 256
    max_samples: int | None = None
    workers: int = 1
    min_pairs_per_worker: int = 50_000
    dtype: str = "float64"
    kernel: str = "fused"

    def __post_init__(self) -> None:
        if self.dimensions < 2:
            raise ValueError("dimensions must be at least 2")
        if self.dimensions % 2:
            raise ValueError("dimensions must be even (two halves)")
        if self.n_negative < 1:
            raise ValueError("n_negative must be at least 1")
        check_positive(self.epochs, "epochs")
        check_positive(self.learning_rate, "learning_rate")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.min_pairs_per_worker < 0:
            raise ValueError("min_pairs_per_worker must be non-negative")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(
                "dtype must be 'float64' or 'float32', got "
                f"{self.dtype!r}"
            )
        if self.kernel not in ("fused", "reference"):
            raise ValueError(
                "kernel must be 'fused' or 'reference', got "
                f"{self.kernel!r}"
            )


@dataclass
class LineResult:
    """Learned LINE node embeddings."""

    node_embeddings: np.ndarray
    loss_history: list[tuple[int, float]] = field(default_factory=list)

    def tie_features(
        self, network: MixedSocialNetwork, tie_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Indirect tie features: ``[emb(src) ‖ emb(dst)]`` per tie."""
        if tie_ids is None:
            tie_ids = np.arange(network.n_ties)
        src = network.tie_src[tie_ids]
        dst = network.tie_dst[tie_ids]
        return np.hstack(
            [self.node_embeddings[src], self.node_embeddings[dst]]
        )


class LineEmbedding:
    """Trainer for LINE (first + second order, negative sampling)."""

    def __init__(self, config: LineConfig | None = None) -> None:
        self.config = config or LineConfig()
        # One scratch workspace per skip-gram half (different dims keys
        # would thrash a shared one).
        self._ws_first = SgnsWorkspace()
        self._ws_second = SgnsWorkspace()

    def fit(
        self,
        network: MixedSocialNetwork,
        seed: int | np.random.Generator = 0,
        log_every: int = 200,
        callbacks: Iterable[TrainerCallback] | None = None,
        health: HealthMonitor | None = None,
    ) -> LineResult:
        """Train on the oriented tie list of ``network``.

        ``health`` attaches a :class:`repro.obs.health.HealthMonitor`
        to the batch loop (loss sentinels + embedding-array sweeps),
        exactly as on :meth:`DeepDirectEmbedding.fit`.
        """
        cfg = self.config
        cb = CallbackList(callbacks)
        rng = ensure_rng(seed)
        n_nodes = network.n_nodes
        half = cfg.dimensions // 2

        # LINE is orientation-blind: it sees every oriented tie as an
        # edge sample, exactly as running the reference implementation on
        # the expanded edge list would.
        src, dst = network.tie_src, network.tie_dst
        n_edges = len(src)

        with span("line.setup", n_nodes=n_nodes, n_edges=n_edges):
            node_degree = np.bincount(src, minlength=n_nodes).astype(float)
            noise = node_degree**0.75
            if noise.sum() == 0:
                noise = np.ones(n_nodes)
            node_sampler = AliasSampler(noise)

        dt = np.dtype(cfg.dtype)
        first = ((rng.random((n_nodes, half)) - 0.5) / half).astype(
            dt, copy=False
        )
        second = ((rng.random((n_nodes, half)) - 0.5) / half).astype(
            dt, copy=False
        )
        context = np.zeros((n_nodes, half), dtype=dt)

        total = int(cfg.epochs * n_edges)
        if cfg.max_samples is not None:
            total = min(total, cfg.max_samples)
        total = max(total, cfg.batch_size)
        n_batches = -(-total // cfg.batch_size)

        workers = cfg.workers
        degraded = should_degrade(
            workers, n_batches * cfg.batch_size, cfg.min_pairs_per_worker
        )
        if degraded:
            warnings.warn(
                f"workers={workers} degraded to sequential: "
                f"{n_batches * cfg.batch_size} samples gives "
                f"{n_batches * cfg.batch_size // workers} per worker, below "
                f"min_pairs_per_worker={cfg.min_pairs_per_worker} "
                "(set min_pairs_per_worker=0 to force workers)",
                RuntimeWarning,
                stacklevel=2,
            )
            MetricsRegistry().counter("hogwild.degraded").inc()
            workers = 1

        run = RunInfo(
            trainer="line",
            total_batches=n_batches,
            batch_size=cfg.batch_size,
            config=dataclasses.asdict(cfg),
        )
        fit_start = time.perf_counter()
        if cb:
            fit_begin_logs = {
                "n_nodes": n_nodes, "n_edges": n_edges, "workers": workers,
            }
            if degraded:
                fit_begin_logs["hogwild_degraded"] = True
                fit_begin_logs["requested_workers"] = cfg.workers
            cb.on_fit_begin(run, fit_begin_logs)

        def draw(n_plan: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Edge endpoints and negatives of the next ``n_plan`` samples.

            Each sample consumes ``1 + λ`` uniforms of ``rng`` in order,
            so any split of the run into draws gives the same samples.
            """
            with span("line.sample", samples=n_plan, planned=True):
                u = rng.random((n_plan, 1 + cfg.n_negative))
                edge_ids = uniform_indices(u[:, 0], n_edges)
                return (src[edge_ids], dst[edge_ids],
                        node_sampler.pick(u[:, 1:]))

        if workers > 1:
            # Plan the whole run in the parent; workers slice batches
            # copy-on-write and never touch an RNG.
            plan_u, plan_v, plan_negs = draw(n_batches * cfg.batch_size)
            task = _HogwildLineTask(
                config=cfg, u=plan_u, v=plan_v, negs=plan_negs
            )
            with span("line.hogwild", workers=workers):
                hog = run_hogwild(
                    task,
                    {"first": first, "second": second, "context": context},
                    n_batches=n_batches,
                    batch_size=cfg.batch_size,
                    workers=workers,
                    rng=rng,
                    lr0=cfg.learning_rate,
                    counter_names=(),
                    callbacks=cb,
                    run=run,
                    log_every=log_every,
                    health=health,
                )
            if cb:
                duration = time.perf_counter() - fit_start
                worker_logs = record_worker_stats(
                    MetricsRegistry(), hog.worker_stats, ()
                )
                cb.on_fit_end(
                    run,
                    {
                        "n_samples_trained": hog.pairs_trained,
                        **worker_logs,
                        "negative_draws": node_sampler.n_draws,
                        "duration_s": duration,
                        "workers": workers,
                    },
                )
            return LineResult(
                node_embeddings=np.hstack(
                    [hog.arrays["first"], hog.arrays["second"]]
                ),
                loss_history=hog.loss_history,
            )

        kernel = (fused_sgns_batch if cfg.kernel == "fused"
                  else reference_sgns_batch)
        history: list[tuple[int, float]] = []
        health_arrays = {"first": first, "second": second, "context": context}
        # Samples come in byte-bounded segments of whole batches, sliced
        # zero-copy per batch.
        batches = planned_batches(
            draw, n_batches, cfg.batch_size,
            2 * src.itemsize + cfg.n_negative * np.dtype(np.int64).itemsize,
        )
        with span("line.train", n_batches=n_batches,
                  batch_size=cfg.batch_size):
            for batch_idx, (u, v, negs) in enumerate(batches):
                lr = cfg.learning_rate * max(1.0 - batch_idx / n_batches, 0.01)
                if health is not None:
                    maybe_poison(batch_idx, health_arrays)
                # First order scores nodes against themselves (ctx=emb);
                # second order against separate context vectors.
                loss = kernel(first, first, u, v, negs, lr,
                              workspace=self._ws_first)
                loss += kernel(second, context, u, v, negs, lr,
                               workspace=self._ws_second)
                if health is not None:
                    health.observe_batch(
                        batch_idx, {"L": loss / 2.0}, arrays=health_arrays
                    )
                    if cb and batch_idx % log_every == 0:
                        cb.on_event(run, "health", health.event_payload())
                if batch_idx % log_every == 0:
                    history.append((batch_idx * cfg.batch_size, loss / 2.0))
                if cb:
                    samples = (batch_idx + 1) * cfg.batch_size
                    elapsed = time.perf_counter() - fit_start
                    cb.on_batch_end(
                        run,
                        batch_idx,
                        {
                            "L": loss / 2.0,
                            "lr": lr,
                            "pairs": samples,
                            "pairs_per_sec": samples / max(elapsed, 1e-9),
                        },
                    )

        if cb:
            duration = time.perf_counter() - fit_start
            cb.on_fit_end(
                run,
                {
                    "n_samples_trained": n_batches * cfg.batch_size,
                    "negative_draws": node_sampler.n_draws,
                    "duration_s": duration,
                },
            )

        return LineResult(
            node_embeddings=np.hstack([first, second]),
            loss_history=history,
        )

    @staticmethod
    def _first_order_step(
        emb: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        negs: np.ndarray,
        lr: float,
    ) -> float:
        """Symmetric skip-gram step on the node embeddings themselves.

        Back-compat shim over the shared
        :func:`repro.embedding.kernels.fused_sgns_batch` kernel with
        ``ctx = emb``.
        """
        return fused_sgns_batch(emb, emb, u, v, negs, lr)

    @staticmethod
    def _second_order_step(
        emb: np.ndarray,
        context: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        negs: np.ndarray,
        lr: float,
    ) -> float:
        """Skip-gram step against separate context vectors.

        Back-compat shim over
        :func:`repro.embedding.kernels.fused_sgns_batch`.
        """
        return fused_sgns_batch(emb, context, u, v, negs, lr)


@dataclass
class _HogwildLineTask:
    """Picklable LINE payload for the shared-memory HOGWILD backend.

    The whole run's edge endpoints and negatives were mega-drawn in the
    parent, so workers slice their batches out of the shared (copy-on-
    write) plan arrays and never touch an RNG.  ``setup`` builds
    per-worker :class:`SgnsWorkspace` scratch buffers, so every HOGWILD
    process reuses the fused kernel with zero per-batch allocation
    against the shared-memory embedding views.
    """

    config: LineConfig
    u: np.ndarray
    v: np.ndarray
    negs: np.ndarray
    #: Global index of the first batch held by this payload's arrays.
    batch_offset: int = 0

    def shard(self, start: int, stop: int) -> "_HogwildLineTask":
        """Payload for one worker: samples of batches ``start..stop-1``."""
        lo = start * self.config.batch_size
        hi = stop * self.config.batch_size
        return dataclasses.replace(
            self, u=self.u[lo:hi], v=self.v[lo:hi], negs=self.negs[lo:hi],
            batch_offset=start,
        )

    def setup(
        self, arrays: dict[str, np.ndarray], rng: np.random.Generator
    ) -> tuple[SgnsWorkspace, SgnsWorkspace]:
        return (SgnsWorkspace(), SgnsWorkspace())

    def step(
        self,
        state: tuple[SgnsWorkspace, SgnsWorkspace],
        arrays: dict[str, np.ndarray],
        batch_idx: int,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        cfg = self.config
        kernel = (fused_sgns_batch if cfg.kernel == "fused"
                  else reference_sgns_batch)
        lo = (batch_idx - self.batch_offset) * cfg.batch_size
        hi = lo + cfg.batch_size
        u, v, negs = self.u[lo:hi], self.v[lo:hi], self.negs[lo:hi]
        maybe_poison(batch_idx, arrays)
        loss = kernel(arrays["first"], arrays["first"], u, v, negs, lr,
                      workspace=state[0])
        loss += kernel(arrays["second"], arrays["context"], u, v, negs, lr,
                       workspace=state[1])
        return loss / 2.0

    def counters(self, state: tuple[SgnsWorkspace, SgnsWorkspace]) -> tuple[int, ...]:
        return ()
