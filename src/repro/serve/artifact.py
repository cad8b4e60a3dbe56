"""Serving artifacts: a no-pickle, memory-mapped bundle for fitted models.

An artifact freezes everything a scoring process needs — learned
weights, constructor configuration, the expanded oriented tie set and a
content fingerprint of the training network — into one directory::

    artifact/
      artifact.json       # schema, model class, params, dataset
                          # fingerprint, and a dtype/shape manifest
      weights/<name>.npy  # one plain numpy array per file

Arrays keep their trained dtype and are opened with
``np.load(mmap_mode="r", allow_pickle=False)``, so loading copies
nothing and servers of one bundle share its pages.  Model artifacts
omit the training-only context matrix ``N``.

Because the bundle stores the canonical tie lists of the training
network, :func:`load_model_artifact` rebuilds the identical
:class:`~repro.graph.MixedSocialNetwork` (same oriented tie ids) and
returns a fitted model whose ``tie_scores()`` match the original
exactly — verified against the stored dataset fingerprint at load time.

Every array is validated against the JSON manifest before use, so a
missing, truncated or tampered file fails with :class:`ArtifactError`
naming the offending array rather than a numpy broadcast error
downstream.  Bundles are written atomically (see :func:`_write_bundle`).

The same bundle layout (``kind: "embedding"``) generalises
:mod:`repro.embedding.persistence` for bare E-Step results, ``N``
included.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
import time
from typing import Any, Mapping

import numpy as np

from ..embedding.deepdirect import EmbeddingResult
from ..embedding.persistence import embedding_from_arrays, embedding_to_arrays
from ..graph import MixedSocialNetwork, TieKind
from ..graph.store import STORE_SCHEMA
from ..obs import network_fingerprint, span

#: Schema tag written into every ``artifact.json``.
ARTIFACT_SCHEMA = "repro_artifact/v2"

#: The retired single-``weights.npz`` layout, which must be re-exported.
_V1_SCHEMA = "repro_artifact/v1"

#: Names inside an artifact bundle directory: the metadata file and
#: the directory of per-array ``.npy`` files.
ARTIFACT_META = "artifact.json"
ARTIFACT_WEIGHTS = "weights"

#: Model classes an artifact may name (the registry keeps loading
#: closed-world: nothing outside this set is ever instantiated).
MODEL_CLASS_NAMES = (
    "DeepDirectModel",
    "HFModel",
    "LineModel",
    "Node2VecModel",
    "ReDirectNSM",
    "ReDirectTSM",
)

#: Array names reserved for the network arrays.
_NETWORK_ARRAYS = ("network_tie_src", "network_tie_dst", "network_tie_kind")


class ArtifactError(ValueError):
    """Raised when an artifact bundle is missing, malformed or tampered."""


def _model_class(name: str):
    if name not in MODEL_CLASS_NAMES:
        raise ArtifactError(
            f"unknown model class {name!r}; expected one of "
            f"{sorted(MODEL_CLASS_NAMES)}"
        )
    import repro.models as models

    return getattr(models, name)


# ----------------------------------------------------------------------
# Network round-trip
# ----------------------------------------------------------------------


def network_to_arrays(network: MixedSocialNetwork) -> dict[str, np.ndarray]:
    """The expanded oriented tie set as plain arrays (store dtypes)."""
    return {
        "network_tie_src": np.asarray(network.tie_src),
        "network_tie_dst": np.asarray(network.tie_dst),
        "network_tie_kind": np.asarray(network.tie_kind),
    }


def network_from_arrays(
    tie_src: np.ndarray,
    tie_dst: np.ndarray,
    tie_kind: np.ndarray,
    n_nodes: int,
) -> MixedSocialNetwork:
    """Rebuild a network with *identical* oriented tie ids.

    The expanded layout is ``[E_d fwd | E_d rev | E_b both | E_u both]``
    (see :class:`~repro.graph.MixedSocialNetwork`), so slicing the
    canonical pair lists back out and re-running the constructor is an
    exact inverse of the expansion.
    """
    tie_src = np.asarray(tie_src)
    tie_dst = np.asarray(tie_dst)
    tie_kind = np.asarray(tie_kind)
    nd = int(np.count_nonzero(tie_kind == int(TieKind.DIRECTED)))
    nb = int(np.count_nonzero(tie_kind == int(TieKind.BIDIRECTIONAL))) // 2
    nu = int(np.count_nonzero(tie_kind == int(TieKind.UNDIRECTED))) // 2
    if not len(tie_src) == len(tie_dst) == 2 * (nd + nb + nu):
        raise ArtifactError(
            f"inconsistent tie arrays: {len(tie_src)} oriented ties cannot "
            f"expand from |E_d|={nd}, |E_b|={nb}, |E_u|={nu}"
        )

    def pairs(start: int, count: int) -> np.ndarray:
        stop = start + count
        return np.stack([tie_src[start:stop], tie_dst[start:stop]], axis=1)

    e_d = pairs(0, nd)
    e_b = pairs(2 * nd, nb)
    e_u = pairs(2 * nd + 2 * nb, nu)
    try:
        network = MixedSocialNetwork(
            int(n_nodes), e_d, e_b, e_u, validate=False
        )
    except Exception as exc:
        # Corrupt tie arrays can fail the constructor's structural
        # invariants (duplicate oriented ties, out-of-range nodes, ...);
        # surface every such case as a bundle problem.
        raise ArtifactError(
            f"stored tie arrays do not form a valid network: {exc}"
        ) from exc
    if (
        not np.array_equal(network.tie_src, tie_src)
        or not np.array_equal(network.tie_dst, tie_dst)
        or not np.array_equal(
            network.tie_kind, tie_kind.astype(network.tie_kind.dtype)
        )
    ):
        raise ArtifactError(
            "stored tie arrays do not round-trip through the expanded "
            "layout; the bundle was not written by save_model_artifact"
        )
    return network


# ----------------------------------------------------------------------
# Bundle I/O
# ----------------------------------------------------------------------


def _array_manifest(arrays: Mapping[str, np.ndarray]) -> dict[str, Any]:
    return {
        name: {"dtype": str(arr.dtype), "shape": list(arr.shape)}
        for name, arr in arrays.items()
    }


def _write_bundle(
    path: str | os.PathLike, meta: dict, arrays: dict[str, np.ndarray]
) -> pathlib.Path:
    """Build the bundle in a sibling directory, then rename it to ``path``.

    A crash never leaves half a bundle at ``path``.  An existing bundle
    is renamed aside and deleted: its files are unlinked, never
    rewritten, so a process that has them mapped keeps reading the old
    weights instead of dying with ``SIGBUS``.
    """
    path = pathlib.Path(path)
    if path.is_dir() and any(path.iterdir()) and not (
        path / ARTIFACT_META
    ).is_file():
        raise ArtifactError(
            f"{path} exists and is not an artifact bundle; refusing to "
            "replace it"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = pathlib.Path(
        tempfile.mkdtemp(prefix=f".{path.name}.", dir=path.parent)
    )
    retired = None
    try:
        weights = staging / ARTIFACT_WEIGHTS
        weights.mkdir()
        for name, arr in arrays.items():
            np.save(weights / f"{name}.npy", arr, allow_pickle=False)
        meta = {**meta, "arrays": _array_manifest(arrays)}
        with open(staging / ARTIFACT_META, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if path.is_dir() and any(path.iterdir()):
            # rename(2) replaces only an empty directory: move the old
            # bundle aside first.
            retired = tempfile.mkdtemp(
                prefix=f".{path.name}.", dir=path.parent
            )
            os.rename(path, retired)
        os.rename(staging, path)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if retired is not None:
        shutil.rmtree(retired, ignore_errors=True)
    return path


def read_artifact_meta(path: str | os.PathLike) -> dict[str, Any]:
    """Read and schema-check the ``artifact.json`` side-car of a bundle."""
    path = pathlib.Path(path)
    meta_path = path / ARTIFACT_META
    if not meta_path.is_file():
        raise ArtifactError(
            f"{path} is not an artifact bundle (no {ARTIFACT_META})"
        )
    try:
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{meta_path} is not valid JSON: {exc}") from exc
    schema = meta.get("schema") if isinstance(meta, dict) else None
    if schema == _V1_SCHEMA:
        raise ArtifactError(
            f"{path} is a {_V1_SCHEMA} bundle (one weights.npz), which is "
            f"no longer read; re-export it (repro export, or "
            f"model.to_artifact) to write {ARTIFACT_SCHEMA}"
        )
    if schema != ARTIFACT_SCHEMA:
        raise ArtifactError(
            f"{meta_path} has schema {schema!r}; expected {ARTIFACT_SCHEMA}"
        )
    return meta


def _read_bundle(
    path: str | os.PathLike, kind: str
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """The metadata and read-only memory-mapped arrays of a bundle."""
    path = pathlib.Path(path)
    meta = read_artifact_meta(path)
    if meta.get("kind") != kind:
        raise ArtifactError(
            f"{path} holds a {meta.get('kind')!r} artifact, not {kind!r}"
        )
    weights = path / ARTIFACT_WEIGHTS
    if not weights.is_dir():
        raise ArtifactError(f"{path} is missing {ARTIFACT_WEIGHTS}/")
    expected = meta.get("arrays")
    if not isinstance(expected, dict):
        raise ArtifactError(f"{path} has no array manifest in its metadata")
    # Names become file names: nothing may point outside weights/.
    invalid = [name for name in expected if not name.isidentifier()]
    if invalid:
        raise ArtifactError(f"{path}: invalid array names {sorted(invalid)}")
    missing = [
        name for name in expected if not (weights / f"{name}.npy").is_file()
    ]
    if missing:
        raise ArtifactError(
            f"{path} is truncated: missing arrays {sorted(missing)}"
        )
    arrays = {}
    for name, spec in expected.items():
        try:
            arr = np.load(
                weights / f"{name}.npy", mmap_mode="r", allow_pickle=False
            )
        except (OSError, ValueError, EOFError) as exc:
            raise ArtifactError(
                f"{path}: array {name!r} is unreadable ({exc}); the bundle "
                "is truncated or was modified"
            ) from exc
        if str(arr.dtype) != spec.get("dtype") or list(arr.shape) != list(
            spec.get("shape", ())
        ):
            raise ArtifactError(
                f"{path}: array {name!r} has dtype={arr.dtype}, "
                f"shape={tuple(arr.shape)} but the manifest declares "
                f"dtype={spec.get('dtype')}, "
                f"shape={tuple(spec.get('shape', ()))}; the bundle is "
                "truncated or was modified"
            )
        arrays[name] = arr
    return meta, arrays


# ----------------------------------------------------------------------
# Model artifacts
# ----------------------------------------------------------------------


def save_model_artifact(model, path: str | os.PathLike) -> pathlib.Path:
    """Write a fitted :class:`~repro.models.TieDirectionModel` bundle.

    Prefer the method form ``model.to_artifact(path)``; this function is
    the implementation behind it.
    """
    network = model._check_fitted()  # noqa: SLF001 - intra-package API
    class_name = type(model).__name__
    if class_name not in MODEL_CLASS_NAMES:
        raise ArtifactError(
            f"{class_name} is not a registered artifact model class"
        )
    with span("serve.save_artifact", model=class_name):
        arrays = network_to_arrays(network)
        model_arrays = model._artifact_arrays()  # noqa: SLF001
        collision = set(model_arrays) & set(arrays)
        if collision:
            raise ArtifactError(
                f"model arrays shadow reserved names {sorted(collision)}"
            )
        arrays.update(model_arrays)
        dataset = network_fingerprint(network)
        meta = {
            "schema": ARTIFACT_SCHEMA,
            "kind": "model",
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "model_class": class_name,
            "params": model._artifact_params(),  # noqa: SLF001
            "dataset": dataset,
            # The graph-store identity of the training network: equal to
            # MixedSocialNetwork.store.fingerprint() by construction, so
            # serving clients can pin requests to this exact graph.
            "store": {
                "schema": STORE_SCHEMA,
                "fingerprint": dataset["fingerprint"],
            },
            "packages": {"numpy": np.__version__},
        }
        return _write_bundle(path, meta, arrays)


def load_model_artifact(
    path: str | os.PathLike, expected: type | None = None
):
    """Load a model bundle back into a fitted, scoring-ready model.

    Parameters
    ----------
    path:
        Bundle directory written by :func:`save_model_artifact`.
    expected:
        Optional model class the bundle must hold (mismatches raise
        :class:`ArtifactError`).

    The reconstructed network's store hashes its own columns (once; the
    digest is cached, so a :class:`~repro.serve.ScoringEngine` over the
    model reuses it) and is compared against the stored dataset
    fingerprint, so id-to-tie alignment of the restored scores is
    guaranteed, not assumed.
    """
    with span("serve.load_artifact"):
        meta, arrays = _read_bundle(path, kind="model")
        for name in _NETWORK_ARRAYS:
            if name not in arrays:
                raise ArtifactError(f"{path} is missing array {name!r}")
        dataset = meta.get("dataset") or {}
        network = network_from_arrays(
            arrays["network_tie_src"],
            arrays["network_tie_dst"],
            arrays["network_tie_kind"],
            n_nodes=int(dataset.get("n_nodes", 0)),
        )
        fingerprint = network_fingerprint(network)["fingerprint"]
        if dataset.get("fingerprint") != fingerprint:
            raise ArtifactError(
                f"{path}: dataset fingerprint mismatch (stored "
                f"{dataset.get('fingerprint')}, rebuilt {fingerprint})"
            )
        cls = _model_class(meta.get("model_class", ""))
        if expected is not None and not issubclass(cls, expected):
            raise ArtifactError(
                f"{path} holds a {cls.__name__}, not a {expected.__name__}"
            )
        params = meta.get("params") or {}
        model = cls._from_artifact_params(params)  # noqa: SLF001
        model.network = network
        model._restore_artifact(arrays, params)  # noqa: SLF001
        return model


# ----------------------------------------------------------------------
# Embedding artifacts (generalising embedding/persistence.py)
# ----------------------------------------------------------------------


def save_embedding_artifact(
    result: EmbeddingResult,
    path: str | os.PathLike,
    network: MixedSocialNetwork | None = None,
) -> pathlib.Path:
    """Write a bare E-Step :class:`EmbeddingResult` as an artifact bundle.

    Pass the training ``network`` to stamp its fingerprint into the
    metadata (recommended — it documents which graph the tie ids of the
    embedding rows refer to).
    """
    dataset = network_fingerprint(network) if network is not None else {}
    meta = {
        "schema": ARTIFACT_SCHEMA,
        "kind": "embedding",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "dataset": dataset,
        "store": (
            {"schema": STORE_SCHEMA, "fingerprint": dataset["fingerprint"]}
            if dataset
            else {}
        ),
        "packages": {"numpy": np.__version__},
    }
    return _write_bundle(path, meta, embedding_to_arrays(result))


def load_embedding_artifact(path: str | os.PathLike) -> EmbeddingResult:
    """Read an embedding bundle written by :func:`save_embedding_artifact`."""
    _meta, arrays = _read_bundle(path, kind="embedding")
    return embedding_from_arrays(arrays, source=str(path))
