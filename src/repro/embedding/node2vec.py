"""node2vec baseline (Grover & Leskovec, KDD 2016).

An additional node-embedding baseline from the paper's related work
(Sec. 7): biased second-order random walks generate a corpus, and a
skip-gram with negative sampling embeds the nodes.  Like LINE, it
represents a tie only indirectly (endpoint concatenation), so it serves
as a second datapoint for the paper's argument that node-based
embeddings lose edge-level information.

Walks treat the network as undirected (node2vec's usual mode on social
graphs); the return parameter ``p`` and in-out parameter ``q`` control
the BFS/DFS interpolation.
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
class Node2VecConfig:
    """Hyper-parameters of the node2vec baseline.

    Defaults follow the original paper's typical settings; ``dimensions``
    is halved relative to DeepDirect for the same reason as LINE's
    (endpoint concatenation doubles the tie-feature size).  Walk
    generation is always sequential; ``workers > 1`` parallelises only
    the skip-gram SGD over shared-memory buffers (HOGWILD, see
    ``docs/performance.md``), while ``workers=1`` keeps the bit-identical
    sequential seeded path.  ``min_pairs_per_worker`` is the adaptive-
    degradation floor: a per-worker sample budget below it drops the run
    back to the sequential path with a ``RuntimeWarning`` (``0``
    disables the gate).  ``dtype`` selects ``"float64"`` (default) or
    ``"float32"`` embedding precision.  ``kernel`` selects the skip-gram
    batch kernel — ``"fused"`` (vectorised, preallocated buffers) or
    ``"reference"`` (the scalar per-pair oracle from
    :mod:`repro.embedding.kernels`).
    """

    dimensions: int = 64
    walk_length: int = 40
    walks_per_node: int = 5
    window: int = 5
    p: float = 1.0
    q: float = 1.0
    n_negative: int = 5
    learning_rate: float = 0.025
    batch_size: int = 256
    epochs: float = 2.0
    workers: int = 1
    min_pairs_per_worker: int = 50_000
    dtype: str = "float64"
    kernel: str = "fused"

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise ValueError("dimensions must be at least 1")
        if self.walk_length < 2:
            raise ValueError("walk_length must be at least 2")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        check_positive(self.p, "p")
        check_positive(self.q, "q")
        if self.n_negative < 1:
            raise ValueError("n_negative must be at least 1")
        check_positive(self.learning_rate, "learning_rate")
        check_positive(self.epochs, "epochs")
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


def generate_walks(
    network: MixedSocialNetwork,
    config: Node2VecConfig,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Biased second-order random walks over the undirected view.

    Transition weights from ``current`` given ``previous``: ``1/p`` to
    return to ``previous``, ``1`` to a common neighbour of both, ``1/q``
    otherwise (rejection-sampled, per the fast implementation trick).
    """
    neighbor_sets = [
        set(int(x) for x in network.neighbors(n))
        for n in range(network.n_nodes)
    ]
    max_bias = max(1.0, 1.0 / config.p, 1.0 / config.q)

    walks: list[list[int]] = []
    for start in range(network.n_nodes):
        if not neighbor_sets[start]:
            continue
        for _ in range(config.walks_per_node):
            walk = [start]
            previous = -1
            while len(walk) < config.walk_length:
                current = walk[-1]
                neighbors = network.neighbors(current)
                if len(neighbors) == 0:
                    break
                # Rejection sampling against the p/q bias.
                for _attempt in range(32):
                    candidate = int(neighbors[rng.integers(len(neighbors))])
                    if previous < 0:
                        break
                    if candidate == previous:
                        bias = 1.0 / config.p
                    elif candidate in neighbor_sets[previous]:
                        bias = 1.0
                    else:
                        bias = 1.0 / config.q
                    if rng.random() < bias / max_bias:
                        break
                previous = current
                walk.append(candidate)
            if len(walk) > 1:
                walks.append(walk)
    return walks


def _corpus_pairs(
    walks: list[list[int]], window: int
) -> tuple[np.ndarray, np.ndarray]:
    """All (center, context) pairs within the window, as two arrays."""
    centers: list[int] = []
    contexts: list[int] = []
    for walk in walks:
        for i, center in enumerate(walk):
            lo = max(0, i - window)
            hi = min(len(walk), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    centers.append(center)
                    contexts.append(walk[j])
    return np.asarray(centers, dtype=np.int64), np.asarray(
        contexts, dtype=np.int64
    )


@dataclass
class Node2VecResult:
    """Learned node2vec embeddings."""

    node_embeddings: np.ndarray
    n_walks: int
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


class Node2VecEmbedding:
    """Trainer: biased walks + skip-gram with negative sampling."""

    def __init__(self, config: Node2VecConfig | None = None) -> None:
        self.config = config or Node2VecConfig()

    def fit(
        self,
        network: MixedSocialNetwork,
        seed: int | np.random.Generator = 0,
        log_every: int = 200,
        callbacks: Iterable[TrainerCallback] | None = None,
        health: HealthMonitor | None = None,
    ) -> Node2VecResult:
        cfg = self.config
        rng = ensure_rng(seed)
        cb = CallbackList(callbacks)

        walk_start = time.perf_counter()
        with span(
            "node2vec.walks",
            walk_length=cfg.walk_length,
            walks_per_node=cfg.walks_per_node,
        ) as walk_sp:
            walks = generate_walks(network, cfg, rng)
            centers, contexts = _corpus_pairs(walks, cfg.window)
            walk_sp.set(n_walks=len(walks), n_corpus_pairs=len(centers))
        walk_seconds = time.perf_counter() - walk_start
        if len(centers) == 0:
            raise ValueError("walk corpus is empty; network too sparse")

        # Unigram^0.75 noise distribution over corpus frequencies.
        frequency = np.bincount(centers, minlength=network.n_nodes).astype(
            float
        )
        noise = frequency**0.75
        if noise.sum() == 0:
            noise = np.ones(network.n_nodes)
        sampler = AliasSampler(noise)

        half = cfg.dimensions
        dt = np.dtype(cfg.dtype)
        emb = ((rng.random((network.n_nodes, half)) - 0.5) / half).astype(
            dt, copy=False
        )
        ctx = np.zeros((network.n_nodes, half), dtype=dt)

        total = int(cfg.epochs * len(centers))
        n_batches = max(1, -(-total // cfg.batch_size))

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
            trainer="node2vec",
            total_batches=n_batches,
            batch_size=cfg.batch_size,
            config=dataclasses.asdict(cfg),
        )
        fit_start = time.perf_counter()
        if cb:
            fit_begin_logs = {
                "n_walks": len(walks),
                "n_corpus_pairs": len(centers),
                "walk_setup_s": walk_seconds,
                "workers": workers,
            }
            if degraded:
                fit_begin_logs["hogwild_degraded"] = True
                fit_begin_logs["requested_workers"] = cfg.workers
            cb.on_fit_begin(run, fit_begin_logs)

        def draw(n_plan: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Corpus pairs and negatives of the next ``n_plan`` samples.

            Each sample consumes ``1 + λ`` uniforms of ``rng`` in order,
            so any split of the run into draws gives the same samples.
            """
            with span("node2vec.sample", samples=n_plan, planned=True):
                u = rng.random((n_plan, 1 + cfg.n_negative))
                picks = uniform_indices(u[:, 0], len(centers))
                return centers[picks], contexts[picks], sampler.pick(u[:, 1:])

        if workers > 1:
            # Plan the whole run in the parent; workers slice batches
            # copy-on-write and never touch an RNG.
            plan_u, plan_v, plan_negs = draw(n_batches * cfg.batch_size)
            task = _HogwildNode2VecTask(
                config=cfg, u=plan_u, v=plan_v, negs=plan_negs
            )
            with span("node2vec.hogwild", workers=workers):
                hog = run_hogwild(
                    task,
                    {"emb": emb, "ctx": ctx},
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
                        "negative_draws": sampler.n_draws,
                        "duration_s": duration,
                        "workers": workers,
                    },
                )
            return Node2VecResult(
                node_embeddings=hog.arrays["emb"],
                n_walks=len(walks),
                loss_history=hog.loss_history,
            )

        kernel = (fused_sgns_batch if cfg.kernel == "fused"
                  else reference_sgns_batch)
        workspace = SgnsWorkspace()
        history: list[tuple[int, float]] = []
        health_arrays = {"emb": emb, "ctx": ctx}
        # Samples come in byte-bounded segments of whole batches, sliced
        # zero-copy per batch.
        batches = planned_batches(
            draw, n_batches, cfg.batch_size,
            centers.itemsize + contexts.itemsize
            + cfg.n_negative * np.dtype(np.int64).itemsize,
        )
        with span("node2vec.train", n_batches=n_batches,
                  batch_size=cfg.batch_size):
            for batch_idx, (u, v, negs) in enumerate(batches):
                lr = cfg.learning_rate * max(
                    1.0 - batch_idx / n_batches, 0.01
                )

                # The loss is not a by-product of the update, so the
                # kernel only evaluates it when a consumer wants it.
                want_loss = (bool(cb) or health is not None
                             or batch_idx % log_every == 0)
                if health is not None:
                    maybe_poison(batch_idx, health_arrays)
                loss = kernel(emb, ctx, u, v, negs, lr,
                              workspace=workspace, compute_loss=want_loss)
                if health is not None:
                    health.observe_batch(
                        batch_idx, {"L": float(loss)}, arrays=health_arrays
                    )
                    if cb and batch_idx % log_every == 0:
                        cb.on_event(run, "health", health.event_payload())
                if want_loss:
                    if batch_idx % log_every == 0:
                        history.append(
                            (batch_idx * cfg.batch_size, float(loss))
                        )
                    if cb:
                        samples = (batch_idx + 1) * cfg.batch_size
                        elapsed = time.perf_counter() - fit_start
                        cb.on_batch_end(
                            run,
                            batch_idx,
                            {
                                "L": float(loss),
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
                    "negative_draws": sampler.n_draws,
                    "duration_s": duration,
                },
            )

        return Node2VecResult(
            node_embeddings=emb, n_walks=len(walks), loss_history=history
        )


@dataclass
class _HogwildNode2VecTask:
    """Picklable skip-gram payload for the shared-memory backend.

    Walks were already generated sequentially in the parent, and so were
    all (center, context, negatives) samples — one mega-draw per run —
    so workers slice their batches out of the shared (copy-on-write)
    plan arrays and never touch an RNG.
    """

    config: Node2VecConfig
    u: np.ndarray
    v: np.ndarray
    negs: np.ndarray
    #: Global index of the first batch held by this payload's arrays.
    batch_offset: int = 0

    def shard(self, start: int, stop: int) -> "_HogwildNode2VecTask":
        """Payload for one worker: samples of batches ``start..stop-1``."""
        lo = start * self.config.batch_size
        hi = stop * self.config.batch_size
        return dataclasses.replace(
            self, u=self.u[lo:hi], v=self.v[lo:hi], negs=self.negs[lo:hi],
            batch_offset=start,
        )

    def setup(
        self, arrays: dict[str, np.ndarray], rng: np.random.Generator
    ) -> SgnsWorkspace:
        return SgnsWorkspace()

    def step(
        self,
        state: SgnsWorkspace,
        arrays: dict[str, np.ndarray],
        batch_idx: int,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        cfg = self.config
        maybe_poison(batch_idx, arrays)
        kernel = (fused_sgns_batch if cfg.kernel == "fused"
                  else reference_sgns_batch)
        lo = (batch_idx - self.batch_offset) * cfg.batch_size
        hi = lo + cfg.batch_size
        u, v, negs = self.u[lo:hi], self.v[lo:hi], self.negs[lo:hi]
        return float(
            kernel(arrays["emb"], arrays["ctx"], u, v, negs, lr,
                   workspace=state)
        )

    def counters(self, state: SgnsWorkspace) -> tuple[int, ...]:
        return ()
