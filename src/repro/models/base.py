"""Common interface of every tie-direction model.

All five methods from the paper's evaluation (HF, DeepDirect, LINE,
ReDirect-N/sm, ReDirect-T/sm) implement :class:`TieDirectionModel`:
``fit`` on a mixed social network, then expose the directionality value
``d(e)`` for every oriented tie.  Applications (Sec. 5) consume only
this interface.

Every fitted model can also be frozen to disk as a *serving artifact*
(:meth:`TieDirectionModel.to_artifact`) — a no-pickle ``.npy`` + JSON
bundle holding the learned weights, the constructor configuration and a
content fingerprint of the training network — and restored with
:meth:`TieDirectionModel.from_artifact` for batch scoring through
:mod:`repro.serve` without refitting.  See ``docs/serving.md``.
"""

from __future__ import annotations

import abc
import dataclasses
import inspect
import os

import numpy as np

from ..graph import MixedSocialNetwork


class TieDirectionModel(abc.ABC):
    """A learned (or propagated) directionality function on one network."""

    network: MixedSocialNetwork | None = None

    #: Config dataclass accepted by the ``config=`` constructor argument
    #: (``None`` for models configured by plain scalars only); used to
    #: rebuild the config when restoring from an artifact.
    _config_cls: type | None = None

    @abc.abstractmethod
    def fit(
        self, network: MixedSocialNetwork, seed: int | np.random.Generator = 0
    ) -> "TieDirectionModel":
        """Learn from ``network``'s labeled ties; returns ``self``."""

    @abc.abstractmethod
    def tie_scores(self) -> np.ndarray:
        """``d(e)`` for every oriented tie id of the fitted network."""

    # ------------------------------------------------------------------

    def _check_fitted(self) -> MixedSocialNetwork:
        if self.network is None:
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )
        return self.network

    def directionality(self, u: int, v: int) -> float:
        """``d(u, v)`` for one existing oriented tie."""
        network = self._check_fitted()
        return float(self.tie_scores()[network.tie_id(u, v)])

    def directionality_batch(self, pairs: np.ndarray) -> np.ndarray:
        """``d(u, v)`` for a ``(k, 2)`` batch of oriented-tie pairs.

        The vectorised counterpart of :meth:`directionality` — one
        :meth:`tie_scores` read plus one vectorised id lookup, so
        scoring a million pairs costs two array operations rather than
        a million dictionary probes.  Raises :class:`KeyError` naming
        the first pair that is not an oriented tie of the network.
        """
        network = self._check_fitted()
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return np.zeros(0, dtype=float)
        scores = np.asarray(self.tie_scores(), dtype=float)
        return scores[network.tie_ids(pairs)]

    # ------------------------------------------------------------------
    # Serving artifacts (docs/serving.md)
    # ------------------------------------------------------------------

    def _artifact_params(self) -> dict:
        """JSON-able constructor parameters, for artifact round-trips.

        The default collects every ``__init__`` parameter whose
        same-named attribute holds a plain scalar; models with a config
        dataclass extend this with its ``asdict`` form.
        """
        params: dict = {}
        for name in inspect.signature(type(self).__init__).parameters:
            if name == "self":
                continue
            value = getattr(self, name, None)
            if value is None or isinstance(value, (bool, int, float, str)):
                params[name] = value
        config = getattr(self, "config", None)
        if self._config_cls is not None and dataclasses.is_dataclass(config):
            params["config"] = dataclasses.asdict(config)
        return params

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        """Model weights to persist, each in the dtype it holds; keys
        become ``weights/<name>.npy`` file names.

        The default stores the per-oriented-tie scores, which is enough
        for any model whose ``tie_scores`` returns a cached array.
        Models with reusable parameters (embeddings, classifier heads)
        override this to persist them as well.
        """
        return {"tie_scores": np.asarray(self.tie_scores())}

    def _restore_artifact(self, arrays: dict, params: dict) -> None:
        """Rehydrate fitted state from :meth:`_artifact_arrays` output."""
        self._scores = arrays["tie_scores"]

    @classmethod
    def _from_artifact_params(cls, params: dict) -> "TieDirectionModel":
        """Instantiate from a stored :meth:`_artifact_params` dict."""
        allowed = set(inspect.signature(cls.__init__).parameters) - {"self"}
        kwargs = {}
        for key, value in params.items():
            if key not in allowed:
                continue
            if key == "config" and isinstance(value, dict):
                if cls._config_cls is None:
                    continue
                fields = {f.name for f in dataclasses.fields(cls._config_cls)}
                value = cls._config_cls(
                    **{k: v for k, v in value.items() if k in fields}
                )
            kwargs[key] = value
        return cls(**kwargs)

    def to_artifact(self, path: str | os.PathLike) -> None:
        """Write this fitted model as a serving artifact bundle at ``path``.

        The bundle (``artifact.json`` + ``weights/*.npy``) round-trips the
        learned weights, the constructor configuration, the expanded tie
        set and a dataset fingerprint; see :mod:`repro.serve.artifact`.
        """
        from ..serve.artifact import save_model_artifact

        save_model_artifact(self, path)

    @classmethod
    def from_artifact(cls, path: str | os.PathLike) -> "TieDirectionModel":
        """Load a serving artifact written by :meth:`to_artifact`.

        Called on a concrete model class it additionally checks the
        artifact holds that class; ``TieDirectionModel.from_artifact``
        accepts any registered model.
        """
        from ..serve.artifact import load_model_artifact

        expected = cls if cls is not TieDirectionModel else None
        return load_model_artifact(path, expected=expected)
