"""Finite-difference gradient checks of the E-Step kernels.

The kernels update parameters as ``p -= lr * grad`` from batch-entry
values, so ``(p_before - p_after) / lr`` recovers the analytic gradient
of Eqs. 21-25 exactly.  Each test compares that implied gradient against
a central-difference numerical gradient of the pure batch objective
(:func:`repro.embedding.kernels.estep_batch_loss`, the sum of the three
Eq. 18 terms over the batch) — for the fused production kernel AND the
scalar reference oracle, across loss-term configurations, batch sizes
and dtypes.

``grad_clip`` is set astronomically high here: the clip is a kink the
objective does not model, and these checks probe the smooth region the
paper's closed forms describe.  The triad pseudo-labels are constants by
construction (Eq. 21), so finite differences naturally hold them fixed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding.kernels import estep_batch_loss, fused_estep_batch

from .problems import make_estep_problem, run_estep_kernel
from .reference import reference_estep_batch

KERNELS = {
    "fused": fused_estep_batch,
    "reference": reference_estep_batch,
}

#: Loss-term configurations: every Eq. 18 component checked alone on top
#: of L_topo, plus the full objective.
TERM_CONFIGS = {
    "L_topo": dict(alpha=0.0, beta=0.0, with_triads=False),
    "L_label": dict(alpha=2.5, beta=0.0, with_triads=False),
    "L_pattern": dict(alpha=0.0, beta=1.5, with_triads=True),
    "all_terms": dict(alpha=2.5, beta=1.5, with_triads=True),
}

EPS = 1e-5
LR = 0.01


def _total_loss(
    prob, M: np.ndarray, N: np.ndarray, w_prime: np.ndarray, b_prime: float
) -> float:
    topo, label, pattern = estep_batch_loss(
        M, N, w_prime, b_prime,
        prob["e"], prob["successor"], prob["negatives"],
        prob["y_label"], prob["is_labeled"], prob["is_undirected"],
        prob["y_degree"], prob["y_triad"], prob["triad_valid"],
        alpha=prob["alpha"],
        beta=prob["beta"],
        degree_threshold=prob["degree_threshold"],
    )
    return float(topo.sum() + label.sum() + pattern.sum())


def _fd_grad(f, arr: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central-difference gradient of ``f()`` w.r.t. every entry of ``arr``.

    ``f`` must read ``arr`` live (the perturbation happens in place).
    """
    grad = np.zeros(arr.shape)
    flat, grad_flat = arr.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def _implied_gradients(kernel, prob, lr: float = LR):
    """Analytic gradients recovered from one kernel invocation."""
    M1, N1, w1, loss = run_estep_kernel(kernel, prob, lr=lr)
    grad_M = (prob["M"].astype(np.float64) - M1.astype(np.float64)) / lr
    grad_N = (prob["N"].astype(np.float64) - N1.astype(np.float64)) / lr
    grad_w = (
        prob["w_prime"].astype(np.float64) - w1.astype(np.float64)
    ) / lr
    grad_b = (prob["b_prime"] - loss.b_prime) / lr
    return grad_M, grad_N, grad_w, grad_b


def _numerical_gradients(prob):
    """Central-difference gradients of the summed batch objective."""
    M = prob["M"].astype(np.float64).copy()
    N = prob["N"].astype(np.float64).copy()
    w = prob["w_prime"].astype(np.float64).copy()
    b = prob["b_prime"]

    def f() -> float:
        return _total_loss(prob, M, N, w, b)

    grad_M = _fd_grad(f, M)
    grad_N = _fd_grad(f, N)
    grad_w = _fd_grad(f, w)
    grad_b = (
        _total_loss(prob, M, N, w, b + EPS)
        - _total_loss(prob, M, N, w, b - EPS)
    ) / (2.0 * EPS)
    return grad_M, grad_N, grad_w, grad_b


def _assert_gradients_match(kernel, prob, rtol: float, atol: float) -> None:
    got_M, got_N, got_w, got_b = _implied_gradients(kernel, prob)
    want_M, want_N, want_w, want_b = _numerical_gradients(prob)
    np.testing.assert_allclose(got_M, want_M, rtol=rtol, atol=atol,
                               err_msg="grad wrt M (Eqs. 21-23)")
    np.testing.assert_allclose(got_N, want_N, rtol=rtol, atol=atol,
                               err_msg="grad wrt N (Eqs. 24-25)")
    np.testing.assert_allclose(got_w, want_w, rtol=rtol, atol=atol,
                               err_msg="grad wrt w' (Eq. 22)")
    np.testing.assert_allclose(got_b, want_b, rtol=rtol, atol=atol,
                               err_msg="grad wrt b' (Eq. 22)")


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("term", sorted(TERM_CONFIGS))
def test_gradcheck_loss_terms(kernel_name: str, term: str) -> None:
    """Each Eq. 18 term's closed-form gradient matches finite differences."""
    prob = make_estep_problem(seed=101, batch=7, **TERM_CONFIGS[term])
    _assert_gradients_match(
        KERNELS[kernel_name], prob, rtol=1e-5, atol=1e-7
    )


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("batch", [1, 4, 33])
def test_gradcheck_batch_sizes(kernel_name: str, batch: int) -> None:
    """Scatter-add accumulation stays correct across batch sizes.

    ``batch=1`` is the paper's literal per-sample SGD; larger batches
    repeat tie ids so duplicate rows must sum their contributions.
    """
    prob = make_estep_problem(
        seed=211 + batch, batch=batch, **TERM_CONFIGS["all_terms"]
    )
    _assert_gradients_match(
        KERNELS[kernel_name], prob, rtol=1e-5, atol=1e-7
    )


@pytest.mark.parametrize("seed", [3, 17, 59])
def test_gradcheck_float32(seed: int) -> None:
    """The fused kernel in float32 tracks the float64 objective.

    The implied float32 gradients are compared against float64 finite
    differences with tolerances sized to single-precision rounding.
    (The reference kernel computes in python floats regardless of array
    dtype, so only the fused path has a distinct float32 code path.)
    """
    prob = make_estep_problem(
        seed=seed, batch=9, dtype=np.float32, **TERM_CONFIGS["all_terms"]
    )
    assert prob["M"].dtype == np.float32
    _assert_gradients_match(fused_estep_batch, prob, rtol=2e-2, atol=2e-3)


def test_gradcheck_is_sensitive_to_wrong_gradients() -> None:
    """The harness itself fails when handed a perturbed update rule.

    Guards against the classic differential-testing failure mode: a
    check so loose (or a fixture so degenerate) that any kernel passes.
    """
    prob = make_estep_problem(seed=101, batch=7, **TERM_CONFIGS["all_terms"])

    def broken_kernel(M, N, w_prime, b_prime, *args, **kwargs):
        # Right direction, subtly wrong magnitude — a 2% gradient error.
        result = fused_estep_batch(M, N, w_prime, b_prime, *args, **kwargs)
        M += 0.02 * (prob["M"] - M)
        return result

    with pytest.raises(AssertionError):
        _assert_gradients_match(broken_kernel, prob, rtol=1e-5, atol=1e-7)
