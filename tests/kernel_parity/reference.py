"""Scalar reference oracles for the fused kernels.

Each oracle is a deliberately scalar per-pair (and per-negative) Python
loop that transcribes Eqs. 21-25 of the paper term by term, with the
same batch-stale semantics as the fused kernels of
:mod:`repro.embedding.kernels` (every row is snapshotted before any
write).  They are slow and exist so the fused path has something
independent to be proven against: the gradient checks, the per-batch
parity properties and the whole-fit trajectories of this package.
"""

from __future__ import annotations

import math

import numpy as np

from repro.embedding.kernels import (
    _LOG_FLOOR,
    _SIG_CLIP,
    BatchLoss,
    EStepWorkspace,
    SgnsWorkspace,
)


def _sigmoid_scalar(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-min(max(x, -_SIG_CLIP), _SIG_CLIP)))


def _log_scalar(x: float) -> float:
    return math.log(max(x, _LOG_FLOOR))


def _cross_entropy_scalar(p: float, y: float) -> float:
    return -(y * _log_scalar(p) + (1.0 - y) * _log_scalar(1.0 - p))


def reference_batch_triad_labels(
    M: np.ndarray,
    w_prime: np.ndarray,
    b_prime: float,
    uw: np.ndarray,
    vw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar-loop oracle for
    :func:`~repro.embedding.kernels.batch_triad_labels`."""
    batch, gamma = uw.shape
    labels = np.full(batch, 0.5)
    valid = np.zeros(batch, dtype=bool)
    for i in range(batch):
        votes = 0.0
        count = 0
        for j in range(gamma):
            if uw[i, j] < 0:
                continue
            y_uw = _sigmoid_scalar(float(M[uw[i, j]] @ w_prime) + b_prime)
            y_vw = _sigmoid_scalar(float(M[vw[i, j]] @ w_prime) + b_prime)
            denom = y_uw + y_vw
            if denom > _LOG_FLOOR:
                votes += y_uw / denom
            count += 1
        if count > 0:
            labels[i] = votes / count
            valid[i] = True
    return labels, valid


def reference_estep_batch(
    M: np.ndarray,
    N: np.ndarray,
    w_prime: np.ndarray,
    b_prime: float,
    e: np.ndarray,
    successor: np.ndarray,
    negatives: np.ndarray,
    y_label: np.ndarray,
    is_labeled: np.ndarray,
    is_undirected: np.ndarray,
    y_degree: np.ndarray,
    y_triad: np.ndarray | None,
    triad_valid: np.ndarray | None,
    *,
    alpha: float,
    beta: float,
    degree_threshold: float,
    grad_clip: float,
    lr: float,
    workspace: EStepWorkspace | None = None,
    compute_loss: bool = True,
    track_grad_norm: bool = False,
) -> BatchLoss:
    """Scalar per-pair oracle for
    :func:`~repro.embedding.kernels.fused_estep_batch`.

    Same signature, same batch-stale semantics (all rows are snapshotted
    before any write), but every pair — and every negative inside a pair
    — is processed by an explicit Python loop transcribing Eqs. 21-25.
    ``workspace``, ``compute_loss`` and ``track_grad_norm`` are accepted
    and ignored, so a trainer runs the oracle in the fused kernel's
    place; it always reports its losses.
    """
    del workspace, compute_loss, track_grad_norm
    batch, n_negative = negatives.shape
    m0 = np.array(M[e], copy=True)
    n_pos0 = np.array(N[successor], copy=True)
    n_neg0 = np.array(N[negatives], copy=True)
    w0 = np.array(w_prime, copy=True)

    loss_topo = np.zeros(batch)
    loss_label = np.zeros(batch)
    loss_pattern = np.zeros(batch)
    grad_w_acc = np.zeros_like(w0)
    error_sum = 0.0

    for i in range(batch):
        m_i = m0[i]
        n_i = n_pos0[i]

        # L_topo (Eqs. 20, 23-25), one negative at a time.
        pos = _sigmoid_scalar(float(m_i @ n_i))
        grad_m = (pos - 1.0) * n_i
        N[successor[i]] -= lr * ((pos - 1.0) * m_i)
        topo_i = -_log_scalar(pos)
        for k in range(n_negative):
            n_k = n_neg0[i, k]
            s = _sigmoid_scalar(float(m_i @ n_k))
            grad_m = grad_m + s * n_k
            N[negatives[i, k]] -= lr * (s * m_i)
            topo_i -= _log_scalar(1.0 - s)
        loss_topo[i] = topo_i

        # Supervised error scalar (Eq. 21) against the batch-entry w'.
        prediction = _sigmoid_scalar(float(m_i @ w0) + b_prime)
        error = 0.0
        if alpha > 0 and is_labeled[i]:
            error += alpha * (prediction - float(y_label[i]))
            loss_label[i] = alpha * _cross_entropy_scalar(
                prediction, float(y_label[i])
            )
        if beta > 0 and y_triad is not None and is_undirected[i]:
            if float(y_degree[i]) > degree_threshold:
                error += beta * (prediction - float(y_degree[i]))
                loss_pattern[i] += beta * _cross_entropy_scalar(
                    prediction, float(y_degree[i])
                )
            if triad_valid[i]:
                error += beta * (prediction - float(y_triad[i]))
                loss_pattern[i] += beta * _cross_entropy_scalar(
                    prediction, float(y_triad[i])
                )
        error = min(max(error, -grad_clip), grad_clip)

        # Apply (Eqs. 22-23): scatter writes accumulate repeated rows.
        grad_m = grad_m + error * w0
        M[e[i]] -= lr * grad_m
        grad_w_acc += error * m_i
        error_sum += error

    w_prime -= lr * grad_w_acc
    topo = float(loss_topo.mean())
    label = float(loss_label.mean())
    pattern = float(loss_pattern.mean())
    return BatchLoss(
        total=topo + label + pattern,
        topo=topo,
        label=label,
        pattern=pattern,
        b_prime=b_prime - lr * error_sum,
    )


def reference_sgns_batch(
    emb: np.ndarray,
    ctx: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    negs: np.ndarray,
    lr: float,
    workspace: SgnsWorkspace | None = None,
    compute_loss: bool = True,
) -> float:
    """Scalar per-pair oracle for
    :func:`~repro.embedding.kernels.fused_sgns_batch`."""
    del workspace, compute_loss
    batch, n_negative = negs.shape
    eu0 = np.array(emb[u], copy=True)
    cv0 = np.array(ctx[v], copy=True)
    cn0 = np.array(ctx[negs], copy=True)
    loss_sum = 0.0
    for i in range(batch):
        e_i = eu0[i]
        c_i = cv0[i]
        pos = _sigmoid_scalar(float(e_i @ c_i))
        grad_u = (pos - 1.0) * c_i
        ctx[v[i]] -= lr * ((pos - 1.0) * e_i)
        loss_sum += -_log_scalar(pos)
        for k in range(n_negative):
            c_k = cn0[i, k]
            s = _sigmoid_scalar(float(e_i @ c_k))
            grad_u = grad_u + s * c_k
            ctx[negs[i, k]] -= lr * (s * e_i)
            loss_sum += -_log_scalar(1.0 - s)
        emb[u[i]] -= lr * grad_u
    return loss_sum / batch
