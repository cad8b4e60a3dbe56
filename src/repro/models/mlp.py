"""Non-linear directionality function — the paper's future work (Sec. 8).

"We can try to use a deep neural network in D-Step to learn a non-linear
directionality function."

:class:`MLPClassifier` is a one-hidden-layer perceptron (tanh units,
sigmoid output, L2 weight decay) trained with full-batch gradient
descent via scipy's L-BFGS — the smallest model that makes the D-Step
non-linear.  :class:`repro.models.DeepDirectModel` accepts
``dstep="mlp"`` to use it in place of the logistic regression.
"""

from __future__ import annotations

import numpy as np

from ..utils import check_finite_array, check_non_negative, ensure_rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class MLPClassifier:
    """One-hidden-layer binary classifier for the non-linear D-Step.

    Parameters
    ----------
    hidden:
        Hidden-layer width.
    l2:
        Weight decay on all weight matrices (not the biases).
    max_iter:
        L-BFGS iteration budget.
    seed:
        Initialisation seed (Glorot-scaled uniform).
    """

    def __init__(
        self,
        hidden: int = 32,
        l2: float = 1e-3,
        max_iter: int = 500,
        seed: int | np.random.Generator = 0,
    ) -> None:
        if hidden < 1:
            raise ValueError("hidden must be at least 1")
        check_non_negative(l2, "l2")
        self.hidden = hidden
        self.l2 = l2
        self.max_iter = max_iter
        self.seed = seed
        self._params: np.ndarray | None = None
        self._n_features: int | None = None

    # -- parameter (un)packing -----------------------------------------

    def _shapes(self, d: int) -> list[tuple[int, ...]]:
        h = self.hidden
        return [(d, h), (h,), (h,), ()]

    def _unpack(
        self, params: np.ndarray, d: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        h = self.hidden
        w1 = params[: d * h].reshape(d, h)
        b1 = params[d * h : d * h + h]
        w2 = params[d * h + h : d * h + 2 * h]
        b2 = float(params[-1])
        return w1, b1, w2, b2

    # -- training --------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MLPClassifier":
        """Fit to binary (or soft) targets in [0, 1]."""
        features = check_finite_array(
            np.asarray(features, dtype=float), "features"
        )
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or len(features) != len(targets):
            raise ValueError("features must be (n, d) aligned with targets")
        if np.any((targets < 0) | (targets > 1)):
            raise ValueError("targets must lie in [0, 1]")
        n, d = features.shape
        if sample_weight is None:
            sample_weight = np.ones(n)
        weight_sum = max(float(sample_weight.sum()), 1e-12)

        rng = ensure_rng(self.seed)
        h = self.hidden
        scale1 = np.sqrt(6.0 / (d + h))
        scale2 = np.sqrt(6.0 / (h + 1))
        x0 = np.concatenate(
            [
                rng.uniform(-scale1, scale1, size=d * h),
                np.zeros(h),
                rng.uniform(-scale2, scale2, size=h),
                [0.0],
            ]
        )

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            w1, b1, w2, b2 = self._unpack(params, d)
            hidden_pre = features @ w1 + b1
            hidden_act = np.tanh(hidden_pre)
            logits = hidden_act @ w2 + b2
            p = _sigmoid(logits)
            ce = -(
                targets * np.log(np.maximum(p, 1e-12))
                + (1 - targets) * np.log(np.maximum(1 - p, 1e-12))
            )
            loss = float((sample_weight * ce).sum() / weight_sum)
            loss += 0.5 * self.l2 * (float(w1.ravel() @ w1.ravel())
                                     + float(w2 @ w2))

            delta = sample_weight * (p - targets) / weight_sum      # (n,)
            grad_w2 = hidden_act.T @ delta + self.l2 * w2
            grad_b2 = float(delta.sum())
            back = np.outer(delta, w2) * (1.0 - hidden_act**2)      # (n, h)
            grad_w1 = features.T @ back + self.l2 * w1
            grad_b1 = back.sum(axis=0)
            grad = np.concatenate(
                [grad_w1.ravel(), grad_b1, grad_w2, [grad_b2]]
            )
            return loss, grad

        from scipy import optimize

        result = optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self._params = result.x
        self._n_features = d
        return self

    # -- inference -------------------------------------------------------

    def _check_fitted(self) -> None:
        if self._params is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probabilities ``σ(MLP(x))``."""
        self._check_fitted()
        features = np.asarray(features, dtype=float)
        w1, b1, w2, b2 = self._unpack(self._params, self._n_features)
        return _sigmoid(np.tanh(features @ w1 + b1) @ w2 + b2)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard 0/1 predictions at the 0.5 threshold."""
        return (self.predict_proba(features) >= 0.5).astype(np.int64)
