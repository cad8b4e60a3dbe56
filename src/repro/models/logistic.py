"""L2-regularised logistic regression — the D-Step learner (Sec. 4.5.2).

Implemented directly on scipy's L-BFGS-B so the library has no
scikit-learn dependency.  Supports soft (probabilistic) targets, sample
weights, and warm starts — the D-Step initialises from the E-Step's
joint head ``(w', b')``.
"""

from __future__ import annotations

import numpy as np

from ..utils import check_finite_array, check_non_negative, row_blocks


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _row_scores(block: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """``block·w + b`` per row.

    einsum sums each row in a fixed order, so a row's score does not
    depend on how many rows share its block; a BLAS matvec's does.
    """
    return np.einsum("ij,j->i", block, w) + b


class _Float64Rows:
    """Row blocks of a design matrix as float64, through one buffer.

    Iterating yields ``(rows, block)`` pairs covering the matrix.  A
    float64 matrix yields views; any other dtype is upcast one block at
    a time into a buffer the size of one block, reused by every pass,
    so no ``(n, d)`` float64 copy is ever made.  Consume each block
    before taking the next.
    """

    def __init__(self, features: np.ndarray) -> None:
        self.features = features
        self._buffer: np.ndarray | None = None

    def __iter__(self):
        for rows in row_blocks(len(self.features)):
            block = self.features[rows]
            if block.dtype != np.float64:
                if self._buffer is None:  # the first block is the largest
                    self._buffer = np.empty(block.shape)
                upcast = self._buffer[: len(block)]
                np.copyto(upcast, block)
                block = upcast
            yield rows, block


class LogisticRegression:
    """Binary logistic regression with L2 regularisation.

    Parameters
    ----------
    l2:
        Regularisation strength on the weights (not the bias).
    max_iter:
        L-BFGS iteration budget.

    Attributes
    ----------
    weights_, bias_:
        Learned parameters, available after :meth:`fit`.
    n_iter_:
        L-BFGS iterations the last :meth:`fit` took to converge.
    initial_loss_, final_loss_:
        Objective value at the starting point (zeros or the warm start)
        and at the solution — together they quantify how much work the
        warm start saved the optimiser.
    """

    def __init__(self, l2: float = 1e-3, max_iter: int = 500) -> None:
        check_non_negative(l2, "l2")
        self.l2 = l2
        self.max_iter = max_iter
        self.weights_: np.ndarray | None = None
        self.bias_: float | None = None
        self.n_iter_: int | None = None
        self.initial_loss_: float | None = None
        self.final_loss_: float | None = None

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_weight: np.ndarray | None = None,
        warm_start: tuple[np.ndarray, float] | None = None,
    ) -> "LogisticRegression":
        """Fit to ``targets`` (hard 0/1 or soft probabilities).

        Parameters
        ----------
        features:
            ``(n, d)`` design matrix of any real dtype; float32 rows are
            upcast one block at a time, never as a whole.
        targets:
            Length-``n`` targets in [0, 1].
        sample_weight:
            Optional per-sample weights (the paper weights labeled ties
            by their tie degree in Eq. 13).
        warm_start:
            Optional ``(weights, bias)`` initial point — the D-Step warm
            start from the E-Step head.
        """
        features = np.asarray(features)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or len(features) != len(targets):
            raise ValueError("features must be (n, d) aligned with targets")
        blocks = _Float64Rows(features)
        for _, block in blocks:
            check_finite_array(block, "features")
        if np.any((targets < 0) | (targets > 1)):
            raise ValueError("targets must lie in [0, 1]")
        n, d = features.shape
        if sample_weight is None:
            sample_weight = np.ones(n)
        else:
            sample_weight = np.asarray(sample_weight, dtype=float)
            if len(sample_weight) != n:
                raise ValueError("sample_weight must align with targets")
        weight_sum = max(sample_weight.sum(), 1e-12)

        if warm_start is not None:
            w0, b0 = warm_start
            x0 = np.concatenate([np.asarray(w0, dtype=float), [float(b0)]])
            if len(x0) != d + 1:
                raise ValueError("warm_start dimension mismatch")
        else:
            x0 = np.zeros(d + 1)

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            # The loss and X.T @ residual are sums over rows, accumulated
            # in float64 one row block at a time.
            w, b = params[:d], params[d]
            ce_sum = 0.0
            grad = np.zeros(d + 1)
            for rows, block in blocks:
                p = _sigmoid(_row_scores(block, w, b))
                t, sw = targets[rows], sample_weight[rows]
                ce = -(
                    t * np.log(np.maximum(p, 1e-12))
                    + (1 - t) * np.log(np.maximum(1 - p, 1e-12))
                )
                ce_sum += float((sw * ce).sum())
                residual = sw * (p - t) / weight_sum
                grad[:d] += block.T @ residual
                grad[d] += residual.sum()
            grad[:d] += self.l2 * w
            loss = ce_sum / weight_sum + 0.5 * self.l2 * float(w @ w)
            return loss, grad

        # Imported here, not at module level: scipy costs ~50 MB of RSS
        # that a process which only loads and scores a model never needs.
        from scipy import optimize

        self.initial_loss_ = float(objective(x0)[0])
        result = optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.weights_ = result.x[:d]
        self.bias_ = float(result.x[d])
        self.n_iter_ = int(result.nit)
        self.final_loss_ = float(result.fun)
        return self

    def _check_fitted(self) -> None:
        if self.weights_ is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw float64 scores ``X·w + b``, upcast one row block at a time."""
        self._check_fitted()
        features = np.asarray(features)
        scores = np.empty(len(features))
        for rows, block in _Float64Rows(features):
            scores[rows] = _row_scores(block, self.weights_, self.bias_)
        return scores

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probabilities ``σ(X·w + b)`` — the directionality values."""
        return _sigmoid(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard 0/1 predictions at the 0.5 threshold."""
        return (self.predict_proba(features) >= 0.5).astype(np.int64)
