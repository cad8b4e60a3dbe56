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

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..graph import MixedSocialNetwork
from ..obs import TrainerCallback, span
from ..obs.health import HealthMonitor
from ..utils import check_positive, ensure_rng
from .hogwild import ShardTask, train
from .kernels import SgnsWorkspace, fused_sgns_batch
from .samplers import AliasSampler, PairPlanner, planned_batches


@dataclass(frozen=True)
class LineConfig:
    """Hyper-parameters of the LINE baseline.

    ``dimensions`` is the node embedding size; it is split evenly between
    the first-order and second-order components.  ``epochs`` counts
    passes over the oriented tie list, mirroring DeepDirect's ``τ``.
    ``workers > 1`` trains with that many lock-free HOGWILD processes
    over shared-memory embedding buffers (see ``docs/performance.md``);
    ``workers=1`` trains in-process, bit-identical under a fixed seed.
    ``min_pairs_per_worker`` is the adaptive-degradation floor: when the
    per-worker sample budget falls below it, the run drops back to one
    worker with a ``RuntimeWarning`` (``0`` disables the gate).
    ``dtype`` selects ``"float64"`` (default) or ``"float32"`` embedding
    precision.
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

        hog = train(
            _LineTask(
                config=cfg,
                # Samples continue ``rng`` past the two init draws.
                planner=PairPlanner(src, dst, node_sampler, cfg.n_negative,
                                    rng, "line.sample"),
            ),
            {"first": first, "second": second, "context": context},
            trainer="line",
            phase="line",
            n_batches=n_batches,
            rng=rng,
            counter_names=("negative_draws",),
            callbacks=callbacks,
            log_every=log_every,
            pairs_per_epoch=n_edges,
            health=health,
            begin_logs={"n_nodes": n_nodes, "n_edges": n_edges},
        )
        return LineResult(
            node_embeddings=np.hstack(
                [hog.arrays["first"], hog.arrays["second"]]
            ),
            loss_history=hog.loss_history,
        )


@dataclass
class _LineTask(ShardTask):
    """LINE as a :class:`~repro.embedding.hogwild.HogwildTask`.

    ``setup`` moves the planner's stream to the shard's first sample and
    draws the shard's plan lazily, segment by segment; each step runs
    the fused skip-gram kernel for the first-order half (nodes scored
    against themselves) and the second-order half (against separate
    context vectors).
    """

    config: LineConfig
    planner: PairPlanner

    def setup(
        self, arrays: dict[str, np.ndarray], rng: np.random.Generator
    ) -> tuple:
        batch_size = self.config.batch_size
        planner = self.planner.skipped(self.start * batch_size)
        batches = planned_batches(
            planner.draw, self.stop - self.start, batch_size,
            planner.bytes_per_pair,
        )
        # One scratch workspace per half (different arrays would thrash
        # a shared one).
        return planner, batches, SgnsWorkspace(), SgnsWorkspace()

    def step(
        self,
        state: tuple,
        arrays: dict[str, np.ndarray],
        batch_idx: int,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        _, batches, ws_first, ws_second = state
        u, v, negs = next(batches)
        want = self.wants_loss(batch_idx)
        loss = fused_sgns_batch(arrays["first"], arrays["first"], u, v, negs,
                                lr, workspace=ws_first, compute_loss=want)
        loss += fused_sgns_batch(arrays["second"], arrays["context"], u, v,
                                 negs, lr, workspace=ws_second,
                                 compute_loss=want)
        return loss / 2.0

    def counters(self, state: tuple) -> tuple[int, ...]:
        return (state[0].noise.n_draws,)
