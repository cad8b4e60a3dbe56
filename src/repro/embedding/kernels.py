"""Fused SGD kernels for the embedding trainers.

This module is the numerical heart of the E-Step: given a sampled batch
of connected tie pairs it applies the closed-form SGD updates of
Eqs. 20-25 to the shared parameter matrices.

:func:`fused_estep_batch` is fully vectorised: one gather, one fused
forward/backward pass over the whole batch through preallocated
:class:`EStepWorkspace` scratch buffers, and ``np.add.at`` scatter
updates.  Because the updates are plain in-place scatter-adds on
whatever arrays are passed in, the HOGWILD shared-memory path
(:mod:`repro.embedding.hogwild`) runs this exact kernel against its
``multiprocessing.shared_memory`` views.

The kernel implements *batch-stale* semantics — every gradient in a
batch is computed from the parameter values at batch entry, and writes
accumulate via scatter-add (repeated rows add up) — which is the
standard minibatch vectorisation of the paper's per-sample SGD.  The
triad pseudo-labels ``y^t`` (Eq. 15) are constants (no gradient flows
through them, per Eq. 21) computed by :func:`batch_triad_labels`.  The
skip-gram-with-negative-sampling step shared by the LINE and node2vec
baselines is :func:`fused_sgns_batch` (:class:`SgnsWorkspace` buffers).

The differential-testing harness in ``tests/kernel_parity/`` holds a
scalar per-pair oracle for each kernel, transcribing Eqs. 21-25 term by
term, and proves the fused kernels against it and against
finite-difference gradients of :func:`estep_batch_loss`.

Math -> code mapping (see ``docs/performance.md`` for the full table):

========  =====================================================
Eq. 20    ``loss_topo = -log sigma(m·n') - sum_k log(1 - sigma(m·n_k))``
Eq. 21    ``error = alpha(p - y) + beta(p - y^d) + beta(p - y^t)``
Eq. 22    ``grad_w' = m·error``, ``grad_b' = sum(error)``
Eq. 23    ``grad_m = (sigma(m·n') - 1) n' + sum_k sigma(m·n_k) n_k + error w'``
Eq. 24    ``grad_n' = (sigma(m·n') - 1) m``
Eq. 25    ``grad_n_k = sigma(m·n_k) m``
========  =====================================================
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..obs.trace import NULL_SPAN, span

try:  # same C routine np.einsum dispatches to, minus the per-call
    # subscript-parsing wrapper (several µs on hot sub-ms batches)
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy < 2 layout
    _einsum = np.einsum

#: Floor applied inside every ``log`` (identical to the trainers').
_LOG_FLOOR = 1e-12
#: Symmetric clip applied to sigmoid arguments (identical everywhere).
_SIG_CLIP = 30.0


class BatchLoss(NamedTuple):
    """Per-batch mean loss, split into the Eq. 18 components.

    ``total == topo + label + pattern`` (the α/β weights are already
    applied to the component means); ``b_prime`` is the updated joint
    bias, returned because a python float cannot mutate in place.
    """

    total: float
    topo: float
    label: float
    pattern: float
    b_prime: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SIG_CLIP, _SIG_CLIP)))


def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """``x <- sigma(x)`` without allocating, preserving dtype."""
    # minimum/maximum is np.clip minus the fromnumeric wrapper — same
    # ufuncs, bit-identical result, a few µs saved per hot call.
    np.minimum(x, _SIG_CLIP, out=x)
    np.maximum(x, -_SIG_CLIP, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x


def _safe_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, _LOG_FLOOR))


def _scatter_add(
    target: np.ndarray, idx: np.ndarray, grads: np.ndarray
) -> None:
    """Duplicate-safe ``target[idx] += grads``, faster than ``np.add.at``.

    Row-indexed ``np.add.at(target, idx, grads)`` dispatches one ufunc
    inner loop *per duplicated row group*, which on small-row targets
    (a few dozen dims) costs far more than the adds themselves.
    Linearising to flat element indices turns the whole scatter into a
    single 1-D ``np.add.at`` over ``len(idx) * dims`` scalars — one
    inner loop, 2-3x faster at typical batch shapes.

    Bit-compatibility: the flat index enumerates elements in exactly the
    row-major order the 2-D form applies them, and every element is
    still one scalar in-place add, so results are bitwise identical to
    ``np.add.at`` (and to a sequential per-row loop).
    """
    if not target.flags.c_contiguous:
        # reshape(-1) on a non-contiguous target would copy and the
        # scatter would silently vanish; the row form is always safe.
        np.add.at(target, idx, grads)
        return
    dims = target.shape[1]
    # Plan ids are int32; widen before scaling so ``id * dims`` cannot
    # wrap on large matrices.
    idx = np.asarray(idx, dtype=np.intp)
    flat_idx = idx[:, None] * dims + np.arange(dims)
    np.add.at(
        target.reshape(-1), flat_idx.reshape(-1), grads.reshape(-1)
    )


# ----------------------------------------------------------------------
# Triad pseudo-labels (Eq. 15) — constant w.r.t. the batch gradients.


def batch_triad_labels(
    M: np.ndarray,
    w_prime: np.ndarray,
    b_prime: float,
    uw: np.ndarray,
    vw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``y^t`` for a batch from its witness tie ids.

    ``uw``/``vw`` are ``(B, γ)`` witness tie ids, ``-1`` marking absent
    witnesses.  Returns ``(labels, valid)`` where invalid rows (no
    witnesses) get the uninformative label ``0.5``.
    """
    mask = uw >= 0
    batch, gamma = uw.shape
    # One stacked gather + matvec for both witness sides: the
    # (B·2γ, l) rows go through a single contiguous ``take`` and one
    # BLAS matvec against w' instead of a 3-D fancy gather + batched
    # matmul.
    both = np.empty((batch, 2 * gamma), dtype=np.intp)
    np.maximum(uw, 0, out=both[:, :gamma], casting="unsafe")
    np.maximum(vw, 0, out=both[:, gamma:], casting="unsafe")
    scores = M.take(both.reshape(-1), axis=0) @ w_prime
    scores += b_prime
    _sigmoid_inplace(scores)
    scores = scores.reshape(batch, 2 * gamma)
    y_uw = scores[:, :gamma]
    y_vw = scores[:, gamma:]
    denom = y_uw + y_vw
    votes = np.where(
        mask & (denom > _LOG_FLOOR), y_uw / np.maximum(denom, _LOG_FLOOR), 0.0
    )
    counts = np.add.reduce(mask, axis=1)
    valid = counts > 0
    labels = np.where(
        valid, np.add.reduce(votes, axis=1) / np.maximum(counts, 1), 0.5
    )
    return labels, valid


# ----------------------------------------------------------------------
# E-Step batch kernel (Eqs. 20-25).


class EStepWorkspace:
    """Preallocated scratch buffers for :func:`fused_estep_batch`.

    Buffers are sized lazily on first use and reallocated only when the
    ``(batch, λ, l, dtype)`` key changes, so a training run allocates
    its per-batch temporaries exactly once.  One workspace serves one
    trainer (or one HOGWILD worker) — it is not thread-safe.
    """

    def __init__(self) -> None:
        self._key: tuple[int, int, int, np.dtype] | None = None
        #: RMS gradient norm of the last batch's ``grad_m``, populated
        #: only when the kernel ran with ``track_grad_norm=True``
        #: (health monitoring); ``None`` otherwise.
        self.grad_norm: float | None = None

    def ensure(
        self, batch: int, n_negative: int, dims: int, dtype: np.dtype
    ) -> None:
        key = (batch, n_negative, dims, np.dtype(dtype))
        if key == self._key:
            return
        b, k, l = batch, n_negative, dims
        dt = np.dtype(dtype)
        self.m = np.empty((b, l), dt)
        # Successor + negative rows live in one contiguous block so the
        # batch needs a single gather and a single scatter over the
        # combined index buffer ``idx_n`` (successor ids first, then the
        # flattened negatives).
        self.n_all = np.empty((b * (k + 1), l), dt)
        self.n_pos = self.n_all[:b]
        self.n_neg_flat = self.n_all[b:]
        self.n_neg = self.n_neg_flat.reshape(b, k, l)
        self.pos_score = np.empty(b, dt)
        self.neg_score = np.empty((b, k), dt)
        self.grad_m = np.empty((b, l), dt)
        self.grad_n_all = np.empty((b * (k + 1), l), dt)
        self.grad_n_pos = self.grad_n_all[:b]
        self.grad_n_neg_flat = self.grad_n_all[b:]
        self.grad_n_neg = self.grad_n_neg_flat.reshape(b, k, l)
        self.idx_n = np.empty(b * (k + 1), np.int64)
        self.grad_w = np.empty(l, dt)
        self.prediction = np.empty(b, dt)
        self.error = np.empty(b, dt)
        self.loss_topo = np.empty(b, dt)
        self.loss_label = np.empty(b, dt)
        self.loss_pattern = np.empty(b, dt)
        self.log_p = np.empty(b, dt)
        self.log_1mp = np.empty(b, dt)
        self.tmp_b = np.empty(b, dt)
        self.tmp_b2 = np.empty(b, dt)
        self.tmp_bk = np.empty((b, k), dt)
        self.tmp_bl = np.empty((b, l), dt)
        self.gate = np.empty(b, dtype=bool)
        self._key = key


def _supervised_term(
    ws: EStepWorkspace,
    y: np.ndarray,
    gate: np.ndarray,
    weight: float,
    loss_out: np.ndarray,
    want_loss: bool = True,
) -> None:
    """Accumulate one supervised error/CE term, gated and weighted.

    ``error += weight * gate * (p - y)`` and
    ``loss += weight * gate * CE(p, y)`` with ``p`` the live prediction
    buffer and ``gate`` a boolean mask (multiplying by it zeroes the
    masked-out rows without allocating).  ``want_loss=False`` skips the
    CE half (the error accumulation is unchanged).
    """
    np.subtract(ws.prediction, y, out=ws.tmp_b)
    ws.tmp_b *= weight
    ws.tmp_b *= gate
    ws.error += ws.tmp_b
    if not want_loss:
        return
    # ce = -(y log p + (1 - y) log(1 - p))
    np.multiply(y, ws.log_p, out=ws.tmp_b)
    np.subtract(1.0, y, out=ws.tmp_b2)
    ws.tmp_b2 *= ws.log_1mp
    ws.tmp_b += ws.tmp_b2
    np.negative(ws.tmp_b, out=ws.tmp_b)
    ws.tmp_b *= weight
    ws.tmp_b *= gate
    loss_out += ws.tmp_b


def fused_estep_batch(
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
    """One fused, vectorised E-Step SGD batch; mutates M, N, w' in place.

    Parameters are the full matrices plus the sampled batch: ``e``
    (source tie ids, ``(B,)``), ``successor`` (connected tie ids,
    ``(B,)``), ``negatives`` (``(B, λ)``), the per-batch supervision
    slices (``y_label``/``is_labeled``/``is_undirected``/``y_degree``,
    all ``(B,)``) and the precomputed triad pseudo-labels
    (``y_triad``/``triad_valid``, or ``None`` when the pattern term is
    off).  Returns the batch-mean :class:`BatchLoss`.

    All arithmetic runs in the dtype of ``M`` through ``workspace``
    buffers; pass the same workspace every batch to amortise the
    allocations to zero.

    ``compute_loss=False`` skips the cross-entropy/log bookkeeping (the
    parameter updates are identical) and returns a zeroed
    :class:`BatchLoss` apart from ``b_prime`` — for hot loops where
    nothing consumes the loss on this batch.  Traced runs always
    compute losses so span attributes stay complete.

    ``track_grad_norm=True`` additionally stores the batch's RMS
    ``grad_m`` norm (before the ``-lr`` scaling) in
    ``workspace.grad_norm`` — one extra reduction, consumed by the
    health monitor's gradient-norm histogram.  The updates themselves
    are bit-identical either way.
    """
    ws = workspace if workspace is not None else EStepWorkspace()
    batch, n_negative = negatives.shape
    ws.ensure(batch, n_negative, M.shape[1], M.dtype)

    # One gather for the whole batch: every gradient below reads these
    # batch-entry snapshots (batch-stale semantics).  Successor and
    # negative ids share one index buffer so their N rows gather (and
    # later scatter) as a single contiguous block.
    ws.idx_n[:batch] = successor
    ws.idx_n[batch:] = negatives.ravel()
    np.take(M, e, axis=0, out=ws.m)
    np.take(N, ws.idx_n, axis=0, out=ws.n_all)
    m = ws.m

    # ---- L_topo forward + gradients (Eqs. 20, 23-25) ----
    with span("estep.L_topo", pairs=batch) as topo_sp:
        want_loss = compute_loss or topo_sp is not NULL_SPAN
        _einsum("bl,bl->b", m, ws.n_pos, out=ws.pos_score)
        _sigmoid_inplace(ws.pos_score)
        _einsum("bl,bkl->bk", m, ws.n_neg, out=ws.neg_score)
        _sigmoid_inplace(ws.neg_score)

        if want_loss:
            # Losses first: the score buffers are reused below for the
            # gradient coefficients.
            np.maximum(ws.pos_score, _LOG_FLOOR, out=ws.tmp_b)
            np.log(ws.tmp_b, out=ws.tmp_b)
            np.negative(ws.tmp_b, out=ws.loss_topo)
            np.subtract(1.0, ws.neg_score, out=ws.tmp_bk)
            np.maximum(ws.tmp_bk, _LOG_FLOOR, out=ws.tmp_bk)
            np.log(ws.tmp_bk, out=ws.tmp_bk)
            np.add.reduce(ws.tmp_bk, axis=1, out=ws.tmp_b)
            ws.loss_topo -= ws.tmp_b

        ws.pos_score -= 1.0  # sigma(m·n') - 1, the Eq. 23/24 coefficient
        np.multiply(ws.n_pos, ws.pos_score[:, None], out=ws.grad_m)
        _einsum("bk,bkl->bl", ws.neg_score, ws.n_neg, out=ws.tmp_bl)
        ws.grad_m += ws.tmp_bl
        # The context gradients are built pre-scaled by -lr (one cheap
        # scale of the (B,) / (B,k) coefficients instead of a full pass
        # over the (B·(k+1), l) gradient block before the scatter).
        ws.pos_score *= -lr
        ws.neg_score *= -lr
        np.multiply(m, ws.pos_score[:, None], out=ws.grad_n_pos)
        np.multiply(
            m[:, None, :], ws.neg_score[:, :, None], out=ws.grad_n_neg
        )
        if topo_sp is not NULL_SPAN:
            topo_sp.set(loss=float(ws.loss_topo.mean()))

    if want_loss:
        ws.loss_label[:] = 0.0
        ws.loss_pattern[:] = 0.0
    ws.error[:] = 0.0

    # ---- supervised error scalar (Eqs. 21-22) ----
    np.dot(m, w_prime, out=ws.prediction)
    ws.prediction += b_prime
    _sigmoid_inplace(ws.prediction)

    label_active = alpha > 0 and bool(is_labeled.any())
    pattern_active = (
        beta > 0 and y_triad is not None and bool(is_undirected.any())
    )
    if want_loss and (label_active or pattern_active):
        # log p and log(1 - p) are shared by every CE term below.
        np.maximum(ws.prediction, _LOG_FLOOR, out=ws.log_p)
        np.log(ws.log_p, out=ws.log_p)
        np.subtract(1.0, ws.prediction, out=ws.log_1mp)
        np.maximum(ws.log_1mp, _LOG_FLOOR, out=ws.log_1mp)
        np.log(ws.log_1mp, out=ws.log_1mp)

    if label_active:
        with span("estep.L_label") as label_sp:
            _supervised_term(ws, y_label, is_labeled, alpha, ws.loss_label,
                             want_loss)
            if label_sp is not NULL_SPAN:
                label_sp.set(labeled=int(is_labeled.sum()),
                             loss=float(ws.loss_label.mean()))

    if pattern_active:
        with span("estep.L_pattern") as pattern_sp:
            # Degree-pattern term, gated by the threshold T (Eq. 16).
            np.greater(y_degree, degree_threshold, out=ws.gate)
            ws.gate &= is_undirected
            _supervised_term(ws, y_degree, ws.gate, beta, ws.loss_pattern,
                             want_loss)
            # Triad-pattern term with constant pseudo-labels (Eq. 15).
            np.logical_and(is_undirected, triad_valid, out=ws.gate)
            _supervised_term(ws, y_triad, ws.gate, beta, ws.loss_pattern,
                             want_loss)
            if pattern_sp is not NULL_SPAN:
                pattern_sp.set(undirected=int(is_undirected.sum()),
                               loss=float(ws.loss_pattern.mean()))

    # ---- apply updates (scatter-add handles repeated rows) ----
    with span("estep.update", pairs=batch):
        np.minimum(ws.error, grad_clip, out=ws.error)
        np.maximum(ws.error, -grad_clip, out=ws.error)
        np.multiply(w_prime[None, :], ws.error[:, None], out=ws.tmp_bl)
        ws.grad_m += ws.tmp_bl
        np.dot(m.T, ws.error, out=ws.grad_w)
        grad_b = float(ws.error.sum())

        if track_grad_norm:
            ws.grad_norm = float(
                np.sqrt(np.einsum("bl,bl->", ws.grad_m, ws.grad_m) / batch)
            )
        ws.grad_m *= -lr
        _scatter_add(M, e, ws.grad_m)
        # grad_n_all was already built -lr-scaled above.
        _scatter_add(N, ws.idx_n, ws.grad_n_all)
        ws.grad_w *= lr
        w_prime -= ws.grad_w

    if not want_loss:
        return BatchLoss(total=0.0, topo=0.0, label=0.0, pattern=0.0,
                         b_prime=b_prime - lr * grad_b)
    # add.reduce/len is np.mean minus the wrapper overhead (same
    # pairwise summation, same division — bit-identical).
    topo = float(np.add.reduce(ws.loss_topo)) / batch
    label = float(np.add.reduce(ws.loss_label)) / batch
    pattern = float(np.add.reduce(ws.loss_pattern)) / batch
    return BatchLoss(
        total=topo + label + pattern,
        topo=topo,
        label=label,
        pattern=pattern,
        b_prime=b_prime - lr * grad_b,
    )


def estep_batch_loss(
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair loss arrays ``(topo, label, pattern)`` — no mutation.

    The pure objective the kernels descend: α/β weights are applied, the
    triad labels are constants, and nothing is clipped.  The
    finite-difference gradient checks in ``tests/kernel_parity``
    differentiate exactly this function.
    """
    m = M[e]
    n_pos = N[successor]
    n_neg = N[negatives]
    pos_score = _sigmoid(np.einsum("bl,bl->b", m, n_pos))
    neg_score = _sigmoid(np.einsum("bl,bkl->bk", m, n_neg))
    loss_topo = -_safe_log(pos_score) - _safe_log(1.0 - neg_score).sum(axis=1)

    prediction = _sigmoid(m @ w_prime + b_prime)
    log_p = _safe_log(prediction)
    log_1mp = _safe_log(1.0 - prediction)

    def cross_entropy(y: np.ndarray) -> np.ndarray:
        return -(y * log_p + (1.0 - y) * log_1mp)

    loss_label = np.zeros(len(e))
    if alpha > 0:
        loss_label = alpha * np.where(is_labeled, cross_entropy(y_label), 0.0)
    loss_pattern = np.zeros(len(e))
    if beta > 0 and y_triad is not None:
        degree_gate = is_undirected & (y_degree > degree_threshold)
        loss_pattern = beta * np.where(
            degree_gate, cross_entropy(y_degree), 0.0
        )
        triad_gate = is_undirected & triad_valid
        loss_pattern = loss_pattern + beta * np.where(
            triad_gate, cross_entropy(y_triad), 0.0
        )
    return loss_topo, loss_label, loss_pattern


# ----------------------------------------------------------------------
# Skip-gram-with-negative-sampling kernel (LINE / node2vec).


class SgnsWorkspace:
    """Preallocated scratch buffers for :func:`fused_sgns_batch`."""

    def __init__(self) -> None:
        self._key: tuple[int, int, int, np.dtype] | None = None

    def ensure(
        self, batch: int, n_negative: int, dims: int, dtype: np.dtype
    ) -> None:
        key = (batch, n_negative, dims, np.dtype(dtype))
        if key == self._key:
            return
        b, k, l = batch, n_negative, dims
        dt = np.dtype(dtype)
        self.eu = np.empty((b, l), dt)
        # Positive + negative context rows share one contiguous block
        # (one gather, one scatter) — see EStepWorkspace.
        self.c_all = np.empty((b * (k + 1), l), dt)
        self.cv = self.c_all[:b]
        self.cn_flat = self.c_all[b:]
        self.cn = self.cn_flat.reshape(b, k, l)
        self.pos = np.empty(b, dt)
        self.neg = np.empty((b, k), dt)
        self.grad_u = np.empty((b, l), dt)
        self.grad_c_all = np.empty((b * (k + 1), l), dt)
        self.grad_cv = self.grad_c_all[:b]
        self.grad_cn_flat = self.grad_c_all[b:]
        self.grad_cn = self.grad_cn_flat.reshape(b, k, l)
        self.idx_c = np.empty(b * (k + 1), np.int64)
        self.tmp_b = np.empty(b, dt)
        self.tmp_bk = np.empty((b, k), dt)
        self.tmp_bl = np.empty((b, l), dt)
        self._key = key


def fused_sgns_batch(
    emb: np.ndarray,
    ctx: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    negs: np.ndarray,
    lr: float,
    workspace: SgnsWorkspace | None = None,
    compute_loss: bool = True,
) -> float:
    """One fused skip-gram negative-sampling step; mutates emb/ctx.

    ``u`` rows come from ``emb``; the positive ``v`` and the ``(B, K)``
    ``negs`` rows come from ``ctx``.  Passing the same array as both
    ``emb`` and ``ctx`` gives LINE's first-order step.  Returns the
    batch-mean loss, or ``nan`` when ``compute_loss`` is false (the loss
    is not a by-product of the update, so callers that ignore it can
    skip the log evaluations).
    """
    ws = workspace if workspace is not None else SgnsWorkspace()
    batch, n_negative = negs.shape
    ws.ensure(batch, n_negative, emb.shape[1], emb.dtype)

    ws.idx_c[:batch] = v
    ws.idx_c[batch:] = negs.ravel()
    np.take(emb, u, axis=0, out=ws.eu)
    np.take(ctx, ws.idx_c, axis=0, out=ws.c_all)

    np.einsum("bl,bl->b", ws.eu, ws.cv, out=ws.pos)
    _sigmoid_inplace(ws.pos)
    np.einsum("bl,bkl->bk", ws.eu, ws.cn, out=ws.neg)
    _sigmoid_inplace(ws.neg)

    loss = float("nan")
    if compute_loss:
        loss = float(-_safe_log(ws.pos).mean())
        loss += float(-_safe_log(1.0 - ws.neg).sum(axis=1).mean())

    ws.pos -= 1.0
    np.multiply(ws.cv, ws.pos[:, None], out=ws.grad_u)
    np.einsum("bk,bkl->bl", ws.neg, ws.cn, out=ws.tmp_bl)
    ws.grad_u += ws.tmp_bl
    np.multiply(ws.eu, ws.pos[:, None], out=ws.grad_cv)
    np.multiply(ws.eu[:, None, :], ws.neg[:, :, None], out=ws.grad_cn)

    ws.grad_u *= -lr
    _scatter_add(emb, u, ws.grad_u)
    ws.grad_c_all *= -lr
    _scatter_add(ctx, ws.idx_c, ws.grad_c_all)
    return loss
