"""Bounded-transient DeepDirect fit: row blocks never change a result.

The init of M, the sample plan, the D-Step and the scoring pass all work
one row block at a time (``repro.utils.blocks._ROW_BLOCK``) so their
float64 scratch stays a constant.  These tests pin the two halves of
that contract:

* **Determinism** — every blocked pass equals its one-shot formula,
  written out here (never imported from ``src/``), for block sizes of
  1, a non-divisor of ``n`` and more than ``n``.  The D-Step sums
  reorder across blocks, so it is held to ``n_iter``, ``allclose`` and
  identical predictions instead of bits.
* **Memory** — ``tracemalloc`` peaks of the plan draw, the D-Step and
  scoring grow with the block size, not with ``n``.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import repro.embedding.samplers as samplers
import repro.utils.blocks as blocks
from repro.datasets import hide_directions, load_dataset
from repro.embedding import (
    DeepDirectConfig,
    DeepDirectEmbedding,
    build_triad_neighborhoods,
)
from repro.embedding.deepdirect import _uniform_init
from repro.embedding.samplers import (
    AliasSampler,
    ConnectedPairSampler,
    SamplePlanner,
    _index_dtype,
)
from repro.graph import MixedSocialNetwork
from repro.graph.store import TIE_INDEX_DTYPE
from repro.models import LogisticRegression


def _block(rows: int):
    return mock.patch.object(blocks, "_ROW_BLOCK", rows)


def _block_sizes(n: int) -> list[int]:
    """1, a size that does not divide ``n``, and one larger than ``n``."""
    odd = next(b for b in range(2, n + 2) if n % b)
    return [1, odd, n + 1]


# ---------------------------------------------------------------------------
# Sample plan


def _pick(sampler: AliasSampler, u: np.ndarray) -> np.ndarray:
    """Walker's alias lookup, one uniform per draw (bucket + coin)."""
    prob = sampler._prob
    alias = sampler._alias.astype(np.int64)
    scaled = u * len(prob)
    idx = np.minimum(scaled.astype(np.int64), len(prob) - 1)
    return np.where(scaled - idx < prob[idx], idx, alias[idx])


def _one_shot_plan(network, n_negative, seed, n):
    """The whole plan from one int64 draw per stream."""
    pair_rng, succ_rng, neg_rng = np.random.default_rng(seed).spawn(3)
    sampler = ConnectedPairSampler(network)
    deg = network.tie_degrees().astype(np.int64)
    e = np.flatnonzero(deg > 0)[
        _pick(sampler._source_sampler, pair_rng.random(n))
    ]

    # Successor: slot k uniform over the deg(e) out-ties of dst(e) that
    # are not the back-tie, shifted past the back-tie's slot.
    offsets, out = network._ensure_out_csr()
    offsets = offsets.astype(np.int64)
    out = out.astype(np.int64)
    pos_of_tie = np.empty(network.n_ties, dtype=np.int64)
    pos_of_tie[out] = np.arange(len(out)) - offsets[network.tie_src[out]]
    back = pos_of_tie[network.reverse_of]
    k = np.minimum((succ_rng.random(n) * deg[e]).astype(np.int64), deg[e] - 1)
    k += k >= back[e]
    successor = out[offsets[network.tie_dst[e]] + k]

    negatives = _pick(
        sampler._noise_sampler, neg_rng.random((n, n_negative))
    )
    return e, successor, negatives


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 3000),
    which=st.integers(0, 2),
)
def test_blocked_plan_equals_one_shot_draw(small_dataset, seed, n, which):
    block = _block_sizes(n)[which]
    with _block(block):
        plan = SamplePlanner(
            ConnectedPairSampler(small_dataset), 3,
            np.random.default_rng(seed),
        ).plan(n, 64)
    e, successor, negatives = _one_shot_plan(small_dataset, 3, seed, n)
    assert np.array_equal(plan.e, e)
    assert np.array_equal(plan.successor, successor)
    assert np.array_equal(plan.negatives, negatives)
    for arr in (plan.e, plan.successor, plan.negatives):
        assert arr.dtype == TIE_INDEX_DTYPE


def test_fit_is_block_size_invariant_on_both_backends(tmp_path):
    from repro.datasets import GeneratorConfig, generate_social_network

    net = generate_social_network(
        GeneratorConfig(n_nodes=120, ties_per_node=5), seed=11
    )
    stored = MixedSocialNetwork.from_store(
        net.save_store(tmp_path / "graph.store")
    )
    config = DeepDirectConfig(
        dimensions=8, alpha=5.0, beta=0.1, max_pairs=6_000,
        batch_size=128, dtype="float32",
    )
    # Several plan segments per fit, as the old plan_epochs=0.2 gave.
    segments = mock.patch.object(samplers, "_PLAN_SEGMENT_BYTES", 20_000)
    with segments:
        reference = DeepDirectEmbedding(config).fit(net, seed=42)
    for network in (net, stored):
        with _block(37), segments:
            blocked = DeepDirectEmbedding(config).fit(network, seed=42)
        assert np.array_equal(blocked.embeddings, reference.embeddings)
        assert np.array_equal(blocked.contexts, reference.contexts)
        assert blocked.classifier_bias == reference.classifier_bias
        assert blocked.loss_history == reference.loss_history


# ---------------------------------------------------------------------------
# Index widths


def test_sampler_index_arrays_use_tie_index_dtype(small_dataset):
    sampler = ConnectedPairSampler(small_dataset)
    sampler._ensure_back_positions()
    assert sampler._sampleable_ids.dtype == TIE_INDEX_DTYPE
    assert sampler._back_pos.dtype == TIE_INDEX_DTYPE
    assert sampler._source_sampler._alias.dtype == TIE_INDEX_DTYPE
    assert sampler._noise_sampler._alias.dtype == TIE_INDEX_DTYPE


def test_index_dtype_widens_past_int32():
    limit = int(np.iinfo(np.int32).max)
    assert _index_dtype(limit) == np.int32
    assert _index_dtype(limit + 1) == np.int64


def test_triad_ids_use_tie_index_dtype(small_dataset):
    triads = build_triad_neighborhoods(small_dataset, 4, seed=0)
    assert triads.uw_ids.dtype == TIE_INDEX_DTYPE
    assert triads.vw_ids.dtype == TIE_INDEX_DTYPE
    assert triads.counts.dtype == TIE_INDEX_DTYPE


# ---------------------------------------------------------------------------
# Init of M


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 97, 1000])
def test_blocked_init_matches_one_shot_draw(dtype, n):
    l = 12
    expected = (
        (np.random.default_rng(5).random((n, l)) - 0.5) / l
    ).astype(dtype)
    for block in _block_sizes(n):
        with _block(block):
            got = _uniform_init(np.random.default_rng(5), n, l, dtype)
        assert got.dtype == dtype
        assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Scoring


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 500),
    d=st.integers(1, 40),
    which=st.integers(0, 2),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**31 - 1),
)
def test_decision_function_is_block_size_invariant(n, d, which, dtype, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)).astype(dtype)
    model = LogisticRegression()
    model.weights_ = rng.normal(size=d)
    model.bias_ = float(rng.normal())
    # The unblocked product, summed row by row in einsum's fixed order.
    expected = np.einsum("ij,j->i", X.astype(np.float64), model.weights_)
    expected += model.bias_
    with _block(_block_sizes(n)[which]):
        got = model.decision_function(X)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# D-Step


def _unblocked_fit(X, y, l2, warm):
    """L-BFGS-B on the whole-matrix float64 objective."""
    X = X.astype(np.float64)
    n, d = X.shape

    def objective(params):
        w, b = params[:d], params[d]
        p = 1.0 / (1.0 + np.exp(-np.clip(X @ w + b, -30.0, 30.0)))
        ce = -(
            y * np.log(np.maximum(p, 1e-12))
            + (1 - y) * np.log(np.maximum(1 - p, 1e-12))
        )
        residual = (p - y) / n
        loss = float(ce.sum() / n) + 0.5 * l2 * float(w @ w)
        grad = np.concatenate([X.T @ residual + l2 * w, [residual.sum()]])
        return loss, grad

    x0 = np.concatenate([warm[0], [warm[1]]])
    return optimize.minimize(
        objective, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": 500},
    )


@pytest.fixture(scope="module")
def epinions_dstep():
    """Float32 E-Step embeddings of the epinions preset's labeled ties."""
    network = hide_directions(
        load_dataset("epinions", scale=0.02), 0.7, seed=1
    ).network
    config = DeepDirectConfig(dimensions=16, max_pairs=20_000,
                              dtype="float32")
    embedding = DeepDirectEmbedding(config).fit(network, seed=3)
    labels = network.tie_labels()
    labeled = np.flatnonzero(~np.isnan(labels))
    warm = (embedding.classifier_weights.astype(np.float64),
            float(embedding.classifier_bias))
    return embedding.embeddings[labeled], labels[labeled], warm


def test_blocked_dstep_matches_unblocked_objective(epinions_dstep):
    X, y, warm = epinions_dstep
    assert X.dtype == np.float32 and len(X) > 3 * 1000
    reference = _unblocked_fit(X, y, 1e-3, warm)
    with _block(1000):
        model = LogisticRegression(l2=1e-3).fit(X, y, warm_start=warm)
        predictions = model.predict(X)
    assert model.n_iter_ == reference.nit
    np.testing.assert_allclose(model.weights_, reference.x[:-1], rtol=1e-10)
    np.testing.assert_allclose(model.bias_, reference.x[-1], rtol=1e-10)
    expected = (X.astype(np.float64) @ reference.x[:-1] + reference.x[-1]
                >= 0).astype(np.int64)
    assert np.array_equal(predictions, expected)


# ---------------------------------------------------------------------------
# Memory bounds


def _traced_peak(fn) -> tuple[int, object]:
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_plan_peak_is_plan_bytes_plus_one_block(small_dataset):
    block = 512
    planner = SamplePlanner(
        ConnectedPairSampler(small_dataset), 5, np.random.default_rng(0)
    )
    planner.plan(1, 1)  # lazily built sampler tables are not plan scratch
    with _block(block):
        for n in (20_000, 80_000):
            peak, plan = _traced_peak(lambda: planner.plan(n, 256))
            plan_bytes = (
                plan.e.nbytes + plan.successor.nbytes + plan.negatives.nbytes
            )
            # ~0.3 KB of uniforms and alias scratch per planned row.
            assert peak - plan_bytes <= 1024 * block, n


def test_scoring_and_dstep_never_upcast_the_whole_matrix(rng):
    n, d = 200_000, 32
    X = rng.normal(size=(n, d)).astype(np.float32)
    y = (X[:, 0] > 0).astype(np.float64)
    whole_float64 = n * d * 8
    with _block(4096):
        peak, model = _traced_peak(
            lambda: LogisticRegression(max_iter=5).fit(X, y)
        )
        assert peak < whole_float64 / 4
        peak, scores = _traced_peak(lambda: model.decision_function(X))
        assert peak < whole_float64 / 4
    assert scores.shape == (n,)
