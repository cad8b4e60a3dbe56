"""Parallel (HOGWILD shared-memory) E-Step training.

Determinism contract: ``workers=1`` is the untouched sequential path and
must match the default-config output byte-for-byte; ``workers>1`` is a
seeded HOGWILD approximation whose *quality* (D-Step AUC) must stay
within tolerance of the sequential run, but whose bits may differ
(scatter-add interleaving is scheduler-dependent).  No wall-clock
assertions anywhere — throughput is the perf harness's job.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.embedding import (
    DeepDirectConfig,
    DeepDirectEmbedding,
    LineConfig,
    LineEmbedding,
)
from repro.embedding.deepdirect import _uniform_init
from repro.embedding.hogwild import SegmentArray, run_hogwild
from repro.embedding.node2vec import Node2VecConfig, Node2VecEmbedding
from repro.eval import roc_auc
from repro.graph import TieKind
from repro.obs import TrainerCallback


class _Recorder(TrainerCallback):
    def __init__(self) -> None:
        self.fit_begin: dict | None = None
        self.fit_end: dict | None = None
        self.batch_logs: list[dict] = []

    def on_fit_begin(self, run, logs) -> None:
        self.fit_begin = dict(logs)

    def on_batch_end(self, run, step, logs) -> None:
        self.batch_logs.append(dict(logs))

    def on_fit_end(self, run, logs) -> None:
        self.fit_end = dict(logs)


# min_pairs_per_worker=0 opts out of the adaptive degradation gate so
# these tests exercise the real multi-process path at test scale.
PARALLEL_CONFIG = DeepDirectConfig(
    dimensions=16, epochs=2.0, alpha=5.0, beta=0.1, max_pairs=40_000,
    min_pairs_per_worker=0,
)


def _labeled_auc(result, network) -> float:
    """D-Step-style AUC of the E-Step classifier on the directed ties."""
    directed = network.ties_of_kind(TieKind.DIRECTED)
    reverse = network.ties_of_kind(TieKind.DIRECTED_REVERSE)
    ids = np.concatenate([directed, reverse])
    labels = np.concatenate(
        [np.ones(len(directed)), np.zeros(len(reverse))]
    )
    logits = (
        result.embeddings[ids] @ result.classifier_weights
        + result.classifier_bias
    )
    return roc_auc(labels, 1.0 / (1.0 + np.exp(-logits)))


def test_workers_one_is_bit_identical(discovery_task):
    base = DeepDirectEmbedding(PARALLEL_CONFIG).fit(
        discovery_task.network, seed=11
    )
    explicit = DeepDirectEmbedding(
        dataclasses.replace(PARALLEL_CONFIG, workers=1)
    ).fit(discovery_task.network, seed=11)
    assert np.array_equal(base.embeddings, explicit.embeddings)
    assert np.array_equal(base.contexts, explicit.contexts)
    assert np.array_equal(
        base.classifier_weights, explicit.classifier_weights
    )
    assert base.classifier_bias == explicit.classifier_bias


def test_parallel_deepdirect_trains(discovery_task):
    network = discovery_task.network
    sequential = DeepDirectEmbedding(PARALLEL_CONFIG).fit(network, seed=5)
    parallel = DeepDirectEmbedding(
        dataclasses.replace(PARALLEL_CONFIG, workers=2)
    ).fit(network, seed=5)
    assert parallel.embeddings.shape == sequential.embeddings.shape
    assert parallel.contexts.shape == sequential.contexts.shape
    assert np.all(np.isfinite(parallel.embeddings))
    assert np.all(np.isfinite(parallel.classifier_weights))
    # Both paths honour the same pair budget.
    assert parallel.n_pairs_trained == sequential.n_pairs_trained
    assert len(parallel.loss_history) > 0


def test_parallel_auc_within_tolerance_of_sequential(discovery_task):
    network = discovery_task.network
    sequential = DeepDirectEmbedding(PARALLEL_CONFIG).fit(network, seed=5)
    parallel = DeepDirectEmbedding(
        dataclasses.replace(PARALLEL_CONFIG, workers=4)
    ).fit(network, seed=5)
    auc_seq = _labeled_auc(sequential, network)
    auc_par = _labeled_auc(parallel, network)
    assert auc_seq > 0.6  # the sequential baseline actually learns
    assert auc_par > auc_seq - 0.1


def test_parallel_callbacks_report_worker_stats(discovery_task):
    recorder = _Recorder()
    DeepDirectEmbedding(
        dataclasses.replace(PARALLEL_CONFIG, workers=2)
    ).fit(discovery_task.network, seed=5, callbacks=[recorder])
    assert recorder.fit_begin is not None
    assert recorder.fit_begin["workers"] == 2
    assert recorder.fit_end is not None
    # Merged counters from both workers plus per-worker rate gauges.
    assert recorder.fit_end["pair_draws"] > 0
    assert "worker0_pairs_per_sec" in recorder.fit_end
    assert "worker1_pairs_per_sec" in recorder.fit_end
    assert recorder.fit_end["workers"] == 2
    assert any("pairs_per_sec" in logs for logs in recorder.batch_logs)

    # Structured per-worker gauges and fleet aggregates land alongside
    # the legacy worker<i>_pairs_per_sec names in both event kinds.
    for logs in (recorder.batch_logs[-1], recorder.fit_end):
        for i in range(2):
            assert f"hogwild.worker.{i}.pairs" in logs
        assert logs["hogwild.straggler_lag_pairs"] >= 0
        assert 0.0 < logs["hogwild.parallel_efficiency"] <= 1.0
        assert logs["hogwild.stalled_workers"] == 0
    last = recorder.batch_logs[-1]
    for i in range(2):
        assert last[f"hogwild.worker.{i}.heartbeat_age_s"] >= 0.0


def test_run_hogwild_worker_stats_have_heartbeat_fields(discovery_task):
    result = DeepDirectEmbedding(
        dataclasses.replace(PARALLEL_CONFIG, workers=2)
    )
    recorder = _Recorder()
    result.fit(discovery_task.network, seed=5, callbacks=[recorder])
    # The heartbeat gauges in fit_end come from HogwildResult's settled
    # worker_stats: joined workers report age 0 and no stall flags.
    for i in range(2):
        assert recorder.fit_end[f"hogwild.worker.{i}.heartbeat_age_s"] == 0.0
    assert recorder.fit_end["hogwild.stalled_workers"] == 0


def test_line_parallel_smoke(small_dataset):
    config = LineConfig(dimensions=8, epochs=2.0, workers=2,
                        min_pairs_per_worker=0)
    result = LineEmbedding(config).fit(small_dataset, seed=2)
    assert result.node_embeddings.shape == (small_dataset.n_nodes, 8)
    assert np.all(np.isfinite(result.node_embeddings))

    base = LineEmbedding(LineConfig(dimensions=8, epochs=2.0)).fit(
        small_dataset, seed=2
    )
    explicit = LineEmbedding(
        LineConfig(dimensions=8, epochs=2.0, workers=1)
    ).fit(small_dataset, seed=2)
    assert np.array_equal(base.node_embeddings, explicit.node_embeddings)


def test_node2vec_parallel_smoke(small_dataset):
    config = Node2VecConfig(
        dimensions=8,
        epochs=0.5,
        walk_length=10,
        walks_per_node=2,
        workers=2,
        min_pairs_per_worker=0,
    )
    result = Node2VecEmbedding(config).fit(small_dataset, seed=2)
    assert result.node_embeddings.shape == (small_dataset.n_nodes, 8)
    assert np.all(np.isfinite(result.node_embeddings))


@pytest.mark.parametrize(
    "config_cls", [DeepDirectConfig, LineConfig, Node2VecConfig]
)
def test_workers_must_be_positive(config_cls):
    with pytest.raises(ValueError, match="workers"):
        config_cls(workers=0)


def test_run_hogwild_rejects_single_worker():
    class _Task:
        def setup(self, arrays, rng):
            return None

        def step(self, state, arrays, batch_idx, lr, rng):
            return 0.0

        def counters(self, state):
            return ()

    with pytest.raises(ValueError, match="workers"):
        run_hogwild(
            _Task(),
            {"x": np.zeros(4)},
            n_batches=1,
            batch_size=1,
            workers=1,
            rng=np.random.default_rng(0),
            lr0=0.1,
        )


class _IdleTask:
    """Trains nothing, so run_hogwild returns the arrays as set up."""

    def setup(self, arrays, rng):
        return None

    def step(self, state, arrays, batch_idx, lr, rng):
        return 0.0

    def counters(self, state):
        return ()


def test_segment_arrays_are_initialised_in_the_segment():
    """A SegmentArray starts as the segment's zero fill, or as its init
    drew it; ndarrays are copied in as before."""
    shape = (300, 8)
    result = run_hogwild(
        _IdleTask(),
        {
            "M": SegmentArray(shape, np.dtype(np.float32), lambda view:
                              _uniform_init(np.random.default_rng(4),
                                            *shape, np.float32, view)),
            "N": SegmentArray(shape, np.dtype(np.float32)),
            "w": np.arange(3.0),
        },
        n_batches=2, batch_size=1, workers=2,
        rng=np.random.default_rng(0), lr0=0.1,
    )
    want = _uniform_init(np.random.default_rng(4), *shape, np.float32)
    assert np.array_equal(result.arrays["M"], want)
    assert result.arrays["N"].dtype == np.float32
    assert not result.arrays["N"].any()
    assert np.array_equal(result.arrays["w"], np.arange(3.0))


# ---------------------------------------------------------------------------
# Adaptive degradation: workers>1 with a per-worker budget below the
# floor silently falling behind sequential is exactly what the gate
# prevents — it must warn, fall back, and be bit-identical to workers=1.


def test_should_degrade_thresholds():
    from repro.embedding import should_degrade

    assert not should_degrade(1, 100, 50_000)  # sequential never degrades
    assert not should_degrade(2, 100_000, 0)  # floor 0 disables the gate
    assert should_degrade(2, 40_000, 50_000)  # 20k/worker < 50k
    assert not should_degrade(2, 200_000, 50_000)  # 100k/worker >= 50k
    assert should_degrade(4, 199_999, 50_000)  # 49_999/worker < 50k


def test_degraded_run_warns_and_matches_sequential(discovery_task):
    network = discovery_task.network
    base = DeepDirectEmbedding(
        dataclasses.replace(PARALLEL_CONFIG, min_pairs_per_worker=50_000)
    ).fit(network, seed=11)
    with pytest.warns(RuntimeWarning, match="degraded to sequential"):
        degraded = DeepDirectEmbedding(
            dataclasses.replace(
                PARALLEL_CONFIG, workers=2, min_pairs_per_worker=50_000
            )
        ).fit(network, seed=11)
    assert np.array_equal(base.embeddings, degraded.embeddings)
    assert np.array_equal(base.contexts, degraded.contexts)
    assert np.array_equal(
        base.classifier_weights, degraded.classifier_weights
    )
    assert base.classifier_bias == degraded.classifier_bias


def test_degraded_run_reports_effective_workers(discovery_task):
    recorder = _Recorder()
    with pytest.warns(RuntimeWarning, match="degraded to sequential"):
        DeepDirectEmbedding(
            dataclasses.replace(
                PARALLEL_CONFIG, workers=2, min_pairs_per_worker=50_000
            )
        ).fit(discovery_task.network, seed=5, callbacks=[recorder])
    assert recorder.fit_begin is not None
    assert recorder.fit_begin["workers"] == 1
    assert recorder.fit_begin["hogwild_degraded"] is True
    assert recorder.fit_begin["requested_workers"] == 2


@pytest.mark.parametrize("config_cls", [LineConfig, Node2VecConfig])
def test_baseline_degradation_warns(config_cls, small_dataset):
    if config_cls is LineConfig:
        cfg = LineConfig(dimensions=8, epochs=2.0, workers=2)
        trainer = LineEmbedding(cfg)
    else:
        cfg = Node2VecConfig(
            dimensions=8, epochs=0.5, walk_length=10, walks_per_node=2,
            workers=2,
        )
        trainer = Node2VecEmbedding(cfg)
    with pytest.warns(RuntimeWarning, match="degraded to sequential"):
        result = trainer.fit(small_dataset, seed=2)
    assert np.all(np.isfinite(result.node_embeddings))
