"""Fused-vs-reference parity on random problems (hypothesis-driven).

The fused kernel and the scalar reference oracle implement the same
batch-stale mathematics, so on any input their parameter *deltas* must
agree to floating-point reordering — summation order is the only thing
allowed to differ.  Hypothesis drives the configuration space: graph
sizes, dimensions, batch sizes, loss weights, gate fractions, triad
availability.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.kernels import (
    batch_triad_labels,
    fused_estep_batch,
    fused_sgns_batch,
)

from .problems import (
    make_estep_problem,
    make_sgns_problem,
    run_estep_kernel,
    run_sgns_kernel,
)
from .reference import (
    reference_batch_triad_labels,
    reference_estep_batch,
    reference_sgns_batch,
)

LR = 0.02
#: Production default — parity must hold through the Eq. 21 clip too.
GRAD_CLIP = 5.0

ESTEP_CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n_ties": st.integers(5, 40),
        "dims": st.integers(2, 16),
        "batch": st.integers(1, 24),
        "n_negative": st.integers(1, 4),
        "alpha": st.floats(0.0, 6.0),
        "beta": st.floats(0.0, 4.0),
        "degree_threshold": st.floats(0.0, 1.0),
        "labeled_frac": st.floats(0.0, 1.0),
        "undirected_frac": st.floats(0.0, 1.0),
        "gamma": st.integers(1, 3),
        "with_triads": st.booleans(),
    }
)


def _assert_estep_parity(prob, rtol: float, atol: float) -> None:
    M0 = prob["M"].astype(np.float64)
    N0 = prob["N"].astype(np.float64)
    w0 = prob["w_prime"].astype(np.float64)
    fM, fN, fw, f_loss = run_estep_kernel(
        fused_estep_batch, prob, lr=LR, grad_clip=GRAD_CLIP
    )
    rM, rN, rw, r_loss = run_estep_kernel(
        reference_estep_batch, prob, lr=LR, grad_clip=GRAD_CLIP
    )
    np.testing.assert_allclose(fM - M0, rM - M0, rtol=rtol, atol=atol,
                               err_msg="M update delta")
    np.testing.assert_allclose(fN - N0, rN - N0, rtol=rtol, atol=atol,
                               err_msg="N update delta")
    np.testing.assert_allclose(fw - w0, rw - w0, rtol=rtol, atol=atol,
                               err_msg="w' update delta")
    for field in ("total", "topo", "label", "pattern", "b_prime"):
        np.testing.assert_allclose(
            getattr(f_loss, field), getattr(r_loss, field),
            rtol=max(rtol, 1e-9), atol=atol,
            err_msg=f"BatchLoss.{field}",
        )


@given(case=ESTEP_CASES)
@settings(deadline=None, max_examples=40)
def test_estep_parity_float64(case) -> None:
    """Per-update E-Step deltas agree on arbitrary configurations."""
    prob = make_estep_problem(**case)
    _assert_estep_parity(prob, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", [11, 29, 83])
def test_estep_parity_float32(seed: int) -> None:
    """float32 parity: fused f32 arithmetic vs reference f64-rounded-f32."""
    prob = make_estep_problem(seed=seed, batch=16, dtype=np.float32)
    assert prob["M"].dtype == np.float32
    _assert_estep_parity(prob, rtol=1e-3, atol=1e-5)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_ties=st.integers(3, 30),
    dims=st.integers(2, 12),
    batch=st.integers(1, 20),
    gamma=st.integers(1, 4),
)
@settings(deadline=None, max_examples=40)
def test_triad_label_parity(seed, n_ties, dims, batch, gamma) -> None:
    """Vectorised Eq. 15 pseudo-labels match the per-witness loop."""
    rng = np.random.default_rng(seed)
    M = (rng.random((n_ties, dims)) - 0.5) / dims
    w = (rng.random(dims) - 0.5) * 0.8
    b = float(rng.normal() * 0.1)
    uw = rng.integers(0, n_ties, size=(batch, gamma))
    vw = rng.integers(0, n_ties, size=(batch, gamma))
    missing = rng.random((batch, gamma)) < 0.4
    uw[missing] = -1
    vw[missing] = -1

    labels, valid = batch_triad_labels(M, w, b, uw, vw)
    ref_labels, ref_valid = reference_batch_triad_labels(M, w, b, uw, vw)
    np.testing.assert_array_equal(valid, ref_valid)
    np.testing.assert_allclose(labels, ref_labels, rtol=1e-10, atol=1e-13)
    assert np.all(labels[~valid] == 0.5)


@given(
    case=st.fixed_dictionaries(
        {
            "seed": st.integers(0, 2**31 - 1),
            "n_nodes": st.integers(3, 30),
            "dims": st.integers(2, 16),
            "batch": st.integers(1, 24),
            "n_negative": st.integers(1, 4),
            "shared": st.booleans(),
        }
    )
)
@settings(deadline=None, max_examples=40)
def test_sgns_parity(case) -> None:
    """LINE/node2vec skip-gram deltas agree, including the shared
    ``ctx is emb`` first-order mode where update interleaving differs
    between the two implementations (adds commute, so the end state
    must not)."""
    prob = make_sgns_problem(**case)
    emb0 = prob["emb"].astype(np.float64)
    ctx0 = prob["ctx"].astype(np.float64)
    f_emb, f_ctx, f_loss = run_sgns_kernel(fused_sgns_batch, prob, lr=LR)
    r_emb, r_ctx, r_loss = run_sgns_kernel(reference_sgns_batch, prob, lr=LR)
    np.testing.assert_allclose(f_emb - emb0, r_emb - emb0,
                               rtol=1e-9, atol=1e-12, err_msg="emb delta")
    np.testing.assert_allclose(f_ctx - ctx0, r_ctx - ctx0,
                               rtol=1e-9, atol=1e-12, err_msg="ctx delta")
    np.testing.assert_allclose(f_loss, r_loss, rtol=1e-9, atol=1e-12)


def test_sgns_skip_loss_still_updates() -> None:
    """``compute_loss=False`` returns nan but applies identical updates."""
    prob = make_sgns_problem(seed=5, batch=8)
    emb_a, ctx_a = prob["emb"].copy(), prob["ctx"].copy()
    emb_b, ctx_b = prob["emb"].copy(), prob["ctx"].copy()
    loss_a = fused_sgns_batch(
        emb_a, ctx_a, prob["u"], prob["v"], prob["negs"], LR,
        compute_loss=True,
    )
    loss_b = fused_sgns_batch(
        emb_b, ctx_b, prob["u"], prob["v"], prob["negs"], LR,
        compute_loss=False,
    )
    assert np.isfinite(loss_a)
    assert np.isnan(loss_b)
    np.testing.assert_array_equal(emb_a, emb_b)
    np.testing.assert_array_equal(ctx_a, ctx_b)


def test_workspace_reuse_is_invisible() -> None:
    """Reusing one workspace across differently-shaped batches changes
    nothing versus fresh allocations each call."""
    from repro.embedding.kernels import EStepWorkspace

    ws = EStepWorkspace()
    for seed, batch in [(1, 4), (2, 12), (3, 4), (4, 12)]:
        prob = make_estep_problem(seed=seed, batch=batch)
        M_ws, N_ws, w_ws = (
            prob["M"].copy(), prob["N"].copy(), prob["w_prime"].copy()
        )
        M_fresh, N_fresh, w_fresh = (
            prob["M"].copy(), prob["N"].copy(), prob["w_prime"].copy()
        )
        args = (
            prob["e"], prob["successor"], prob["negatives"],
            prob["y_label"], prob["is_labeled"], prob["is_undirected"],
            prob["y_degree"], prob["y_triad"], prob["triad_valid"],
        )
        kwargs = dict(
            alpha=prob["alpha"], beta=prob["beta"],
            degree_threshold=prob["degree_threshold"],
            grad_clip=GRAD_CLIP, lr=LR,
        )
        loss_ws = fused_estep_batch(
            M_ws, N_ws, w_ws, prob["b_prime"], *args,
            workspace=ws, **kwargs,
        )
        loss_fresh = fused_estep_batch(
            M_fresh, N_fresh, w_fresh, prob["b_prime"], *args, **kwargs
        )
        np.testing.assert_array_equal(M_ws, M_fresh)
        np.testing.assert_array_equal(N_ws, N_fresh)
        np.testing.assert_array_equal(w_ws, w_fresh)
        assert loss_ws == loss_fresh


class TestScatterAdd:
    """`_scatter_add` must be BIT-identical to `np.add.at` — the fused
    kernels' trajectory regression (1e-6 rtol over thousands of batches)
    only holds if the fast scatter preserves per-row accumulation order.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_matches_add_at(self, seed, dtype):
        from repro.embedding.kernels import _scatter_add

        rng = np.random.default_rng(seed)
        n, b, l = 37, 200, 9
        idx = rng.integers(0, n, size=b)  # duplicate-heavy: b >> n
        grads = rng.standard_normal((b, l)).astype(dtype)
        a = rng.standard_normal((n, l)).astype(dtype)
        expected = a.copy()
        np.add.at(expected, idx, grads)
        _scatter_add(a, idx, grads)
        np.testing.assert_array_equal(a, expected)

    def test_all_unique_fast_path(self):
        from repro.embedding.kernels import _scatter_add

        rng = np.random.default_rng(3)
        idx = rng.permutation(50)[:20]
        grads = rng.standard_normal((20, 4))
        a = rng.standard_normal((50, 4))
        expected = a.copy()
        np.add.at(expected, idx, grads)
        _scatter_add(a, idx, grads)
        np.testing.assert_array_equal(a, expected)

    def test_single_hot_row(self):
        """Worst case: every gradient lands on one row — summation order
        must still match np.add.at exactly."""
        from repro.embedding.kernels import _scatter_add

        rng = np.random.default_rng(9)
        idx = np.zeros(500, dtype=np.int64)
        grads = rng.standard_normal((500, 3)).astype(np.float32)
        a = rng.standard_normal((4, 3)).astype(np.float32)
        expected = a.copy()
        np.add.at(expected, idx, grads)
        _scatter_add(a, idx, grads)
        np.testing.assert_array_equal(a, expected)
