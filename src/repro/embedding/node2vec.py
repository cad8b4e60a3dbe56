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

import time
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
class Node2VecConfig:
    """Hyper-parameters of the node2vec baseline.

    Defaults follow the original paper's typical settings; ``dimensions``
    is halved relative to DeepDirect for the same reason as LINE's
    (endpoint concatenation doubles the tie-feature size).  Walk
    generation is always sequential; ``workers > 1`` parallelises only
    the skip-gram SGD over shared-memory buffers (HOGWILD, see
    ``docs/performance.md``), while ``workers=1`` trains in-process,
    bit-identical under a fixed seed.  ``min_pairs_per_worker`` is the
    adaptive-degradation floor: a per-worker sample budget below it
    drops the run back to one worker with a ``RuntimeWarning`` (``0``
    disables the gate).  ``dtype`` selects ``"float64"`` (default) or
    ``"float32"`` embedding precision.
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

        hog = train(
            _Node2VecTask(
                config=cfg,
                # Samples continue ``rng`` past the walks and the init.
                planner=PairPlanner(centers, contexts, sampler,
                                    cfg.n_negative, rng, "node2vec.sample"),
            ),
            {"emb": emb, "ctx": ctx},
            trainer="node2vec",
            phase="node2vec",
            n_batches=n_batches,
            rng=rng,
            counter_names=("negative_draws",),
            callbacks=callbacks,
            log_every=log_every,
            pairs_per_epoch=len(centers),
            health=health,
            begin_logs={
                "n_walks": len(walks),
                "n_corpus_pairs": len(centers),
                "walk_setup_s": walk_seconds,
            },
        )
        return Node2VecResult(
            node_embeddings=hog.arrays["emb"],
            n_walks=len(walks),
            loss_history=hog.loss_history,
        )


@dataclass
class _Node2VecTask(ShardTask):
    """The skip-gram half of node2vec as a
    :class:`~repro.embedding.hogwild.HogwildTask`.

    Walks were generated sequentially in the parent; ``setup`` moves the
    planner's stream to the shard's first sample and draws the shard's
    (center, context, negatives) plan lazily, segment by segment.
    """

    config: Node2VecConfig
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
        return planner, batches, SgnsWorkspace()

    def step(
        self,
        state: tuple,
        arrays: dict[str, np.ndarray],
        batch_idx: int,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        _, batches, workspace = state
        u, v, negs = next(batches)
        # The loss is not a by-product of the update, so the kernel only
        # evaluates it when a consumer wants it.
        return fused_sgns_batch(arrays["emb"], arrays["ctx"], u, v, negs,
                                lr, workspace=workspace,
                                compute_loss=self.wants_loss(batch_idx))

    def counters(self, state: tuple) -> tuple[int, ...]:
        return (state[0].noise.n_draws,)
