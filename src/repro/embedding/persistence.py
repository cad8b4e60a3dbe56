"""Array (de)serialisation contract for trained embeddings.

An E-Step run on a large network is the expensive part of the pipeline;
:func:`embedding_to_arrays` / :func:`embedding_from_arrays` define the
validated plain-array contract the serving-artifact API
(:func:`repro.serve.save_embedding_artifact` /
:func:`repro.serve.load_embedding_artifact`) persists — no pickling,
every array checked on the way back in.

Arrays keep their trained dtype; ``contexts`` (``N``) is optional and
a result rebuilt without it has ``contexts=None``.

The bare ``save_embedding`` / ``load_embedding`` helpers that once
lived here were deprecated in favour of artifact bundles and have been
removed; see ``docs/serving.md`` and the migration notes in
``docs/paper_mapping.md``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .deepdirect import EmbeddingResult

#: Array names (and the validation contract) of a saved embedding;
#: only ``contexts`` may be absent.
EMBEDDING_ARRAY_NAMES = (
    "embeddings",
    "contexts",
    "classifier_weights",
    "classifier_bias",
    "loss_history",
    "n_pairs_trained",
)


def embedding_to_arrays(result: EmbeddingResult) -> dict[str, np.ndarray]:
    """Flatten an :class:`EmbeddingResult` into named plain arrays."""
    history = np.asarray(result.loss_history, dtype=float).reshape(-1, 2)
    arrays = {
        "embeddings": np.asarray(result.embeddings),
        "classifier_weights": np.asarray(result.classifier_weights),
        "classifier_bias": np.asarray([result.classifier_bias], dtype=float),
        "loss_history": history,
        "n_pairs_trained": np.asarray([result.n_pairs_trained], np.int64),
    }
    if result.contexts is not None:
        arrays["contexts"] = np.asarray(result.contexts)
    return arrays


def embedding_from_arrays(
    arrays: Mapping[str, np.ndarray], source: str = "archive"
) -> EmbeddingResult:
    """Rebuild an :class:`EmbeddingResult`, validating every array.

    Raises a :class:`ValueError` naming ``source`` and the offending
    array whenever a dtype or shape does not match the
    :func:`embedding_to_arrays` contract — a truncated or hand-edited
    archive fails here with a clear message instead of surfacing later
    as a numpy broadcast error.
    """
    missing = set(EMBEDDING_ARRAY_NAMES) - {"contexts"} - set(arrays)
    if missing:
        raise ValueError(
            f"{source} is not a saved embedding (missing {sorted(missing)})"
        )

    def _bad(name: str, why: str) -> ValueError:
        arr = np.asarray(arrays[name])
        return ValueError(
            f"{source}: array {name!r} {why} "
            f"(got dtype={arr.dtype}, shape={arr.shape}); the archive is "
            "truncated or was not written by embedding_to_arrays"
        )

    embeddings = np.asarray(arrays["embeddings"])
    contexts = (
        np.asarray(arrays["contexts"]) if "contexts" in arrays else None
    )
    weights = np.asarray(arrays["classifier_weights"])
    bias = np.asarray(arrays["classifier_bias"])
    history = np.asarray(arrays["loss_history"])
    n_pairs = np.asarray(arrays["n_pairs_trained"])

    for name, arr in (("embeddings", embeddings), ("contexts", contexts)):
        if arr is not None and (
            arr.ndim != 2 or not np.issubdtype(arr.dtype, np.floating)
        ):
            raise _bad(name, "must be a 2-D float matrix")
    if contexts is not None and embeddings.shape != contexts.shape:
        raise ValueError(
            f"{source}: embeddings {embeddings.shape} and contexts "
            f"{contexts.shape} must have identical shapes; the archive is "
            "truncated or mismatched"
        )
    if weights.ndim != 1 or not np.issubdtype(weights.dtype, np.floating):
        raise _bad("classifier_weights", "must be a 1-D float vector")
    if len(weights) != embeddings.shape[1]:
        raise ValueError(
            f"{source}: classifier_weights has {len(weights)} entries but "
            f"embeddings are {embeddings.shape[1]}-dimensional; the archive "
            "is truncated or mismatched"
        )
    if bias.shape != (1,) or not np.issubdtype(bias.dtype, np.floating):
        raise _bad("classifier_bias", "must be a single float")
    if history.size and (
        history.ndim != 2
        or history.shape[1] != 2
        or not np.issubdtype(history.dtype, np.number)
    ):
        raise _bad("loss_history", "must be (n, 2) numeric pairs")
    if n_pairs.shape != (1,) or not np.issubdtype(n_pairs.dtype, np.integer):
        raise _bad("n_pairs_trained", "must be a single integer")

    return EmbeddingResult(
        embeddings=embeddings,
        contexts=contexts,
        classifier_weights=weights,
        classifier_bias=float(bias[0]),
        loss_history=[
            (int(step), float(loss)) for step, loss in history.reshape(-1, 2)
        ],
        n_pairs_trained=int(n_pairs[0]),
    )
