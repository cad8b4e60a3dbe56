"""Epoch-scale sample planning (`repro.embedding.samplers.SamplePlan`).

Three contracts protect the planned pipeline:

1. **Granularity invariance** — drawing one mega-plan or any sequence of
   chunks totalling the same pairs yields bit-identical samples (each
   draw consumes exactly one uniform per element in schedule order), so
   the plan-segment byte budget can never change a trajectory.
2. **Batched back-tie resolution** — the single-pass k-shift remap is
   exactly uniform over ``c(e)``: successors always chain, back-ties
   never survive, and the telemetry counts every draw.
3. **Whole-fit equivalence** — a DeepDirect fit re-planning every few
   batches matches one planning the entire run up front, byte for byte
   (the determinism contract the HOGWILD parent-side planner relies on).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.embedding.samplers as samplers
import repro.embedding.deepdirect as deepdirect
import repro.embedding.line as line
import repro.embedding.node2vec as node2vec
from repro.embedding import (
    DeepDirectConfig,
    DeepDirectEmbedding,
    LineConfig,
    LineEmbedding,
    Node2VecConfig,
    Node2VecEmbedding,
)
from repro.embedding.samplers import (
    AliasSampler,
    ConnectedPairSampler,
    SamplePlan,
    SamplePlanner,
)


# ---------------------------------------------------------------------------
# AliasSampler.pick


def test_pick_matches_alias_distribution(rng):
    weights = np.array([1.0, 2.0, 3.0, 4.0])
    sampler = AliasSampler(weights)
    draws = sampler.pick(rng.random(200_000))
    freq = np.bincount(draws, minlength=4) / 200_000
    np.testing.assert_allclose(freq, weights / weights.sum(), atol=0.01)


def test_pick_counts_draws(rng):
    sampler = AliasSampler(np.ones(5))
    sampler.pick(rng.random(17))
    sampler.pick(rng.random((3, 4)))
    assert sampler.n_draws == 17 + 12


def test_pick_rejects_empty():
    sampler = AliasSampler(np.ones(3))
    with pytest.raises(ValueError, match="at least one"):
        sampler.pick(np.empty(0))


def test_pick_handles_uniform_one_boundary():
    """u → 1.0 must clamp into the last bucket, not index out of range."""
    sampler = AliasSampler(np.ones(7))
    draws = sampler.pick(np.array([0.0, 1.0 - 1e-16, 0.999999999999]))
    assert np.all((draws >= 0) & (draws < 7))


# ---------------------------------------------------------------------------
# Plan granularity invariance


def _make_planner(network, seed, n_negative=3):
    return SamplePlanner(
        ConnectedPairSampler(network), n_negative,
        np.random.default_rng(seed),
    )


def test_plan_granularity_invariance(small_dataset):
    whole = _make_planner(small_dataset, 99).plan(4096, 256)

    chunked = _make_planner(small_dataset, 99)
    parts = [chunked.plan(n, 256) for n in (512, 1024, 256, 2304)]
    e = np.concatenate([p.e for p in parts])
    successor = np.concatenate([p.successor for p in parts])
    negatives = np.vstack([p.negatives for p in parts])

    assert np.array_equal(whole.e, e)
    assert np.array_equal(whole.successor, successor)
    assert np.array_equal(whole.negatives, negatives)


def test_plan_matches_sampler_telemetry(small_dataset):
    planner = _make_planner(small_dataset, 5, n_negative=4)
    planner.plan(1000, 200)
    planner.plan(500, 200)
    stats = planner.sampler.stats()
    assert stats["pair_draws"] == 1500
    assert stats["negative_draws"] == 1500 * 4
    # The k-shift remap never redraws; rejection is a legacy-path-only
    # counter and must stay zero on the planned path.
    assert stats["rejection_redraws"] == 0
    assert planner.n_plans == 2


def test_plan_batch_views(small_dataset):
    plan = _make_planner(small_dataset, 1).plan(700, 256)
    assert plan.n_pairs == 700
    assert plan.n_batches == 3
    e0, s0, n0 = plan.batch(0)
    assert len(e0) == len(s0) == len(n0) == 256
    # Zero-copy: views share the plan's buffers.
    assert e0.base is plan.e
    e2, _, _ = plan.batch(2)
    assert len(e2) == 700 - 512  # short tail batch
    with pytest.raises(IndexError):
        plan.batch(3)
    with pytest.raises(IndexError):
        plan.batch(-1)


# ---------------------------------------------------------------------------
# Batched back-tie resolution (hypothesis)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 2000))
def test_planned_successors_chain_without_back_ties(
    small_dataset, seed, n
):
    network = small_dataset
    sampler = ConnectedPairSampler(network)
    rng = np.random.default_rng(seed)
    e = sampler.planned_pairs(rng.random(n))
    successor = sampler.planned_successors(e, rng.random(n))
    # Successors continue the path: src(e') == dst(e) ...
    assert np.all(network.tie_src[successor] == network.tie_dst[e])
    # ... and never double straight back: e' is not the reverse of e.
    assert np.all(successor != network.reverse_of[e])
    # Telemetry counted the source draws and nothing redrew.
    assert sampler.stats()["pair_draws"] == n
    assert sampler.stats()["rejection_redraws"] == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_planned_successors_uniform_over_candidates(
    small_dataset, seed
):
    """The k-shift remap is *exactly* uniform over c(e), like rejection."""
    network = small_dataset
    sampler = ConnectedPairSampler(network)
    rng = np.random.default_rng(seed)
    # Pin one source tie with at least 3 candidates, draw many successors.
    degrees = network.tie_degrees()
    tie = int(np.argmax(degrees))
    n = 6000
    e = np.full(n, tie)
    successor = sampler.planned_successors(e, rng.random(n))
    counts = np.bincount(successor, minlength=network.n_ties)
    candidates = np.flatnonzero(counts)
    assert len(candidates) == degrees[tie]
    freq = counts[candidates] / n
    np.testing.assert_allclose(freq, 1.0 / degrees[tie], atol=0.05)


# ---------------------------------------------------------------------------
# Whole-fit equivalence


FIT_CONFIG = DeepDirectConfig(
    dimensions=8, epochs=1.0, alpha=5.0, beta=1.0, n_negative=3,
    batch_size=128, max_pairs=4_000,
)


def test_plan_segment_budget_does_not_change_trajectory(
    discovery_task, monkeypatch
):
    network = discovery_task.network
    # One batch per segment, then the whole run in one segment.
    monkeypatch.setattr(samplers, "_PLAN_SEGMENT_BYTES", 1)
    tiny = DeepDirectEmbedding(FIT_CONFIG).fit(network, seed=21)
    monkeypatch.setattr(samplers, "_PLAN_SEGMENT_BYTES", 1 << 30)
    whole = DeepDirectEmbedding(FIT_CONFIG).fit(network, seed=21)
    assert np.array_equal(tiny.embeddings, whole.embeddings)
    assert np.array_equal(tiny.contexts, whole.contexts)
    assert np.array_equal(tiny.classifier_weights, whole.classifier_weights)
    assert tiny.classifier_bias == whole.classifier_bias
    assert tiny.loss_history == whole.loss_history


# ---------------------------------------------------------------------------
# Byte-bounded plan segments


# Runs of 47 batches: a prime, so every segment of 2..46 batches
# leaves a short last segment.
TRAINERS = {
    "deepdirect": (deepdirect, lambda: DeepDirectEmbedding(
        DeepDirectConfig(dimensions=8, n_negative=3, batch_size=64,
                         max_pairs=47 * 64))),
    "line": (line, lambda: LineEmbedding(
        LineConfig(dimensions=8, n_negative=3, batch_size=64,
                   max_samples=47 * 64))),
    "node2vec": (node2vec, lambda: Node2VecEmbedding(
        Node2VecConfig(dimensions=8, walk_length=8, walks_per_node=2,
                       window=2, n_negative=3, batch_size=64,
                       epochs=0.5))),
}
BUDGETS = {"one_batch": 1, "non_divisor": 20_000, "beyond_run": 1 << 30}


def _numpy_bytes() -> int:
    """Live bytes of numpy array buffers (tracemalloc's numpy domain)."""
    numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    snapshot = tracemalloc.take_snapshot().filter_traces([numpy_domain])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def _fit_with_budget(monkeypatch, network, trainer, budget, measure=False):
    """Fit ``trainer`` under a patched plan budget; return the result and
    each segment's ``(pairs, retained numpy bytes)``."""
    module, make = TRAINERS[trainer]
    monkeypatch.setattr(samplers, "_PLAN_SEGMENT_BYTES", budget)
    segments: list[tuple[int, int]] = []

    def spy(draw, *args):
        def measured(n_pairs):
            before = _numpy_bytes() if measure else 0
            out = draw(n_pairs)
            after = _numpy_bytes() if measure else 0
            segments.append((n_pairs, after - before))
            return out

        return samplers.planned_batches(measured, *args)

    monkeypatch.setattr(module, "planned_batches", spy)
    return make().fit(network, seed=21), segments


def _trajectory(trainer: str, result) -> list[np.ndarray]:
    if trainer == "deepdirect":
        arrays = [result.embeddings, result.contexts,
                  result.classifier_weights,
                  np.array([result.classifier_bias])]
    else:
        arrays = [result.node_embeddings]
    return arrays + [np.array(result.loss_history, dtype=float)]


@pytest.mark.parametrize("budget", ["one_batch", "non_divisor"])
@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_trainers_are_plan_segment_invariant(
    discovery_task, monkeypatch, trainer, budget
):
    network = discovery_task.network
    whole, whole_segments = _fit_with_budget(
        monkeypatch, network, trainer, BUDGETS["beyond_run"]
    )
    split, segments = _fit_with_budget(
        monkeypatch, network, trainer, BUDGETS[budget]
    )
    assert len(whole_segments) == 1
    sizes = [n for n, _ in segments]
    assert sum(sizes) == whole_segments[0][0]
    if budget == "one_batch":
        assert set(sizes) == {64}
    else:
        assert len(set(sizes[:-1])) == 1 and 64 < sizes[-1] < sizes[0]
    for got, want in zip(_trajectory(trainer, split),
                         _trajectory(trainer, whole)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_plan_bytes_never_exceed_the_budget(
    discovery_task, monkeypatch, trainer
):
    budget = BUDGETS["non_divisor"]
    tracemalloc.start()
    try:
        _, segments = _fit_with_budget(
            monkeypatch, discovery_task.network, trainer, budget,
            measure=True,
        )
    finally:
        tracemalloc.stop()
    # The first draw also builds lazy sampler tables (DeepDirect's
    # back-tie positions), so its bytes are not all plan.  It holds as
    # many pairs as the second, whose bytes are all plan.
    sizes = [n for n, _ in segments]
    retained = [nbytes for _, nbytes in segments]
    assert len(segments) > 2 and sizes[0] == sizes[1]
    assert 0 < max(retained[1:]) <= budget


# ---------------------------------------------------------------------------
# Config knobs


@pytest.mark.parametrize(
    "config_cls", [DeepDirectConfig, LineConfig, Node2VecConfig]
)
def test_new_knob_validation(config_cls):
    with pytest.raises(ValueError, match="min_pairs_per_worker"):
        config_cls(min_pairs_per_worker=-1)
    with pytest.raises(ValueError, match="dtype"):
        config_cls(dtype="float16")
    # The plan-granularity knob is gone: a private byte budget sizes
    # plan segments now.
    with pytest.raises(TypeError, match="plan_epochs"):
        config_cls(plan_epochs=0.5)
    cfg = config_cls(dtype="float32", min_pairs_per_worker=0)
    assert cfg.dtype == "float32"


def test_sample_plan_validates_shapes():
    e = np.arange(10)
    succ = np.arange(10)
    negs = np.zeros((10, 3), dtype=np.int64)
    SamplePlan(e, succ, negs, 4)
    with pytest.raises(ValueError, match="equal-length"):
        SamplePlan(e, succ[:5], negs, 4)
    with pytest.raises(ValueError, match="negatives"):
        SamplePlan(e, succ, negs[:5], 4)
    with pytest.raises(ValueError, match="batch_size"):
        SamplePlan(e, succ, negs, 0)
