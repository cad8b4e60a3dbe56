"""Storage backends for the mixed social network's expanded tie set.

The graph layer is split into a thin façade (:class:`~repro.graph.
mixed_graph.MixedSocialNetwork`) and a *storage backend* holding the
actual tie arrays.  A backend implements the :class:`GraphStore`
protocol: the four tie columns (``tie_src``/``tie_dst``/``tie_kind``/
``reverse_of``), the per-class counts, and the derived structures every
consumer reaches for (out-CSR, undirected-neighbour CSR, the sorted
key index behind ``tie_ids``, tie degrees, and a content fingerprint).

Two implementations ship:

* :class:`InMemoryStore` — dtype-tight arrays in RAM, derived
  structures computed lazily.  This is what the classic constructor and
  ``MixedSocialNetwork.from_arrays`` build.
* :class:`MmapStore` — the same columns plus the *precomputed* derived
  arrays as individual ``.npy`` files in a directory, opened with
  ``np.load(..., mmap_mode="r")``.  Arrays are read-only, zero-copy
  views of the page cache: HOGWILD workers forked from the parent share
  the mapping instead of pickled copies, and a graph much larger than
  RAM can be trained against as long as the hot pages fit.

The on-disk layout (schema ``repro_graphstore/v1``) is a directory::

    store/
      store.json        # schema, counts, fingerprint, per-array manifest
      tie_src.npy       # int32 (n_ties,)
      tie_dst.npy       # int32 (n_ties,)
      tie_kind.npy      # int8  (n_ties,)
      reverse_of.npy    # int32 (n_ties,)
      out_indptr.npy    # int64 (n_nodes + 1,)  shared by out- and und-CSR
      out_order.npy     # int32 (n_ties,)  oriented tie ids grouped by src
      und_targets.npy   # int32 (n_ties,)  neighbour ids grouped by src
      key_order.npy     # int32 (n_ties,)  tie ids in (src * n + dst) order

Separate ``.npy`` files (not one ``.npz``) are deliberate:
``np.load(mmap_mode="r")`` silently falls back to an eager read for
zipped archives, which would defeat the whole point.  ``store.json``
records dtype/shape and a SHA-256 per array so truncated or tampered
files fail loudly with :class:`GraphValidationError` instead of
producing silently wrong neighbourhoods.

Everything here is int32-indexed (``kind`` is int8); node counts are
validated against the int32 range at build time.  Key packing and
fingerprinting widen to int64 first, so digests and lookups are
identical whatever dtype a legacy in-memory network carries.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

#: On-disk schema identifier, bumped on layout changes.
STORE_SCHEMA = "repro_graphstore/v1"
#: Manifest file name inside a store directory.
STORE_META = "store.json"

#: Canonical column dtypes of the expanded tie set.
TIE_INDEX_DTYPE = np.int32
TIE_KIND_DTYPE = np.int8
#: CSR offsets stay int64 so ``indptr[-1]`` can exceed int32 in theory
#: and because every consumer already treats offsets as int64.
INDPTR_DTYPE = np.int64

#: (file stem, attribute) pairs of the persisted arrays, in manifest order.
_STORE_ARRAYS = (
    "tie_src",
    "tie_dst",
    "tie_kind",
    "reverse_of",
    "out_indptr",
    "out_order",
    "und_targets",
    "key_order",
)

#: Elements widened per ``digest.update`` call in :func:`tie_fingerprint`.
_HASH_BLOCK = 1 << 16
#: Value bits :func:`packed_argsort` may fill before it falls back to
#: ``argsort`` (private so tests can force the fallback).
_PACK_BITS = 63


class GraphValidationError(ValueError):
    """Raised when tie lists or store files violate the graph contract."""


def tie_fingerprint(
    n_nodes: int,
    tie_src: np.ndarray,
    tie_dst: np.ndarray,
    tie_kind: np.ndarray,
) -> str:
    """Canonical content digest of an expanded tie set.

    Arrays are widened to contiguous int64 before hashing so the digest
    identifies the *graph*, not the dtype a particular backend happens
    to store it in — an int64 legacy network and its int32 on-disk
    store fingerprint identically.  ``reverse_of`` and the CSR arrays
    are derivable from the columns hashed here, so they do not
    contribute.
    """
    digest = hashlib.sha256()
    digest.update(str(int(n_nodes)).encode("utf-8"))
    # Widen block by block into one reused buffer: the byte stream (and
    # so the digest) is that of the whole int64 column, and no
    # full-length copy of a column is made.
    buffer = np.empty(_HASH_BLOCK, dtype=np.int64)
    for array in (tie_src, tie_dst, tie_kind):
        flat = np.ravel(array)
        for start in range(0, len(flat), _HASH_BLOCK):
            block = flat[start : start + _HASH_BLOCK]
            widened = buffer[: len(block)]
            widened[...] = block
            digest.update(widened)
    return f"sha256:{digest.hexdigest()}"


def packed_argsort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted keys, np.argsort(keys, kind="stable"))`` from one value sort.

    ``keys`` must be a writable int64 array; it is consumed.  Shifting
    each key left and ORing its index into the low bits makes every
    value unique and orders equal keys by index, so one in-place
    ``np.sort`` (numpy's SIMD value sort, ~3x faster than ``argsort``
    plus the gather) yields both the sorted keys (``>> bits``) and the
    stable permutation (``& mask``).  Negative keys, or keys too wide to
    share 63 bits with the index, fall back to a stable ``argsort``,
    which gives the same result.
    """
    n = len(keys)
    id_bits = max(n - 1, 0).bit_length()
    if not n or keys.min() < 0 or (
        int(keys.max()).bit_length() + id_bits > _PACK_BITS
    ):
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    keys <<= id_bits
    keys |= np.arange(n, dtype=np.int64)
    keys.sort()
    order = keys & ((1 << id_bits) - 1)
    keys >>= id_bits
    return keys, order


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _as_column(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    out = np.ascontiguousarray(array, dtype=dtype)
    if out is array:
        out = array.copy()
    return _readonly(out)


@runtime_checkable
class GraphStore(Protocol):
    """Backend contract the :class:`MixedSocialNetwork` façade delegates to.

    ``tie_src``/``tie_dst``/``tie_kind``/``reverse_of`` are read-only,
    length-``n_ties`` arrays in the expanded oriented layout
    ``[E_d fwd | E_d rev | E_b both | E_u both]``; the derived accessors
    may be computed lazily or served from disk, but must be
    value-identical across backends for the same graph.
    """

    @property
    def n_nodes(self) -> int: ...

    @property
    def n_directed(self) -> int: ...

    @property
    def n_bidirectional(self) -> int: ...

    @property
    def n_undirected(self) -> int: ...

    @property
    def n_ties(self) -> int: ...

    @property
    def tie_src(self) -> np.ndarray: ...

    @property
    def tie_dst(self) -> np.ndarray: ...

    @property
    def tie_kind(self) -> np.ndarray: ...

    @property
    def reverse_of(self) -> np.ndarray: ...

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]: ...

    def und_csr(self) -> tuple[np.ndarray, np.ndarray]: ...

    def tie_key_index(self) -> tuple[np.ndarray, np.ndarray]: ...

    def key_order(self) -> np.ndarray: ...

    def tie_degrees(self) -> np.ndarray: ...

    def fingerprint(self) -> str: ...


class _TieStoreBase:
    """Shared column/derived-structure plumbing for both backends.

    Subclass ``__init__`` must set ``_n_nodes``, the three class counts,
    and the four column arrays; any derived cache left as ``None`` is
    computed on first use from the columns.
    """

    _n_nodes: int
    _n_directed: int
    _n_bidirectional: int
    _n_undirected: int
    _tie_src: np.ndarray
    _tie_dst: np.ndarray
    _tie_kind: np.ndarray
    _reverse_of: np.ndarray

    def _init_caches(self) -> None:
        self._out_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._und_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._key_order: np.ndarray | None = None
        self._tie_key_index: tuple[np.ndarray, np.ndarray] | None = None
        self._tie_degrees: np.ndarray | None = None
        self._fingerprint: str | None = None

    # -- columns -------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    @property
    def n_directed(self) -> int:
        return self._n_directed

    @property
    def n_bidirectional(self) -> int:
        return self._n_bidirectional

    @property
    def n_undirected(self) -> int:
        return self._n_undirected

    @property
    def n_ties(self) -> int:
        return len(self._tie_src)

    @property
    def tie_src(self) -> np.ndarray:
        return self._tie_src

    @property
    def tie_dst(self) -> np.ndarray:
        return self._tie_dst

    @property
    def tie_kind(self) -> np.ndarray:
        return self._tie_kind

    @property
    def reverse_of(self) -> np.ndarray:
        return self._reverse_of

    # -- derived structures --------------------------------------------

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over nodes -> outgoing oriented tie ids, ascending per row.

        The order is the stable sort of ``tie_src``.
        """
        if self._out_csr is None:
            _, order = packed_argsort(self._tie_src.astype(np.int64))
            counts = np.bincount(self._tie_src, minlength=self._n_nodes)
            offsets = np.zeros(self._n_nodes + 1, dtype=INDPTR_DTYPE)
            np.cumsum(counts, out=offsets[1:])
            self._out_csr = (
                _readonly(offsets),
                _readonly(order.astype(TIE_INDEX_DTYPE)),
            )
        return self._out_csr

    def und_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over nodes -> neighbour node ids, ignoring orientation.

        Shares offsets with :meth:`out_csr` (both group the expanded
        tie set by ``tie_src``); targets are sorted within each row.
        ``src * n + dst`` key order *is* (src, dst) order, so the
        targets are ``tie_dst`` read in key order.
        """
        if self._und_csr is None:
            offsets, _ = self.out_csr()
            self._und_csr = (
                offsets,
                _readonly(
                    self._tie_dst[self.key_order()].astype(TIE_INDEX_DTYPE)
                ),
            )
        return self._und_csr

    def tie_key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``src * n + dst`` int64 keys + matching tie ids.

        Keys are unique in every store that exists (construction fails
        on a repeated oriented tie), so there is one and only one
        sorting permutation.
        """
        if self._tie_key_index is None:
            keys = self._tie_src.astype(np.int64) * np.int64(
                self._n_nodes
            ) + self._tie_dst
            if self._key_order is None:
                keys, order = packed_argsort(keys)
                self._key_order = _readonly(order.astype(TIE_INDEX_DTYPE))
            else:
                order = self._key_order.astype(np.int64)
                keys = keys[order]
            self._tie_key_index = (_readonly(keys), _readonly(order))
        return self._tie_key_index

    def key_order(self) -> np.ndarray:
        """Tie ids in ascending ``src * n + dst`` key order (int32).

        The bare permutation behind :meth:`tie_key_index`; on a
        :class:`MmapStore` it is the on-disk array, with no sorted-key
        copy built.
        """
        if self._key_order is None:
            self.tie_key_index()
        return self._key_order

    def tie_degrees(self) -> np.ndarray:
        """``deg_tie(e) = |c(e)|``: out-tie count of dst(e) minus the back-tie.

        Held at the tie-index dtype: a tie degree is below ``n_ties``.
        Consumers that sum it (``connected_pair_count``) accumulate in
        int64, and the samplers scale it as float.
        """
        if self._tie_degrees is None:
            offsets, _ = self.out_csr()
            out_counts = np.diff(offsets)
            deg = out_counts[self._tie_dst].astype(TIE_INDEX_DTYPE)
            # The reverse orientation is materialised for every tie
            # kind, so the back-tie (dst, src) always exists.
            deg -= 1
            self._tie_degrees = _readonly(deg)
        return self._tie_degrees

    def fingerprint(self) -> str:
        """Canonical content digest (see :func:`tie_fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = tie_fingerprint(
                self._n_nodes, self._tie_src, self._tie_dst, self._tie_kind
            )
        return self._fingerprint


class InMemoryStore(_TieStoreBase):
    """Expanded tie set held as dtype-tight arrays in RAM.

    Columns are normalised to the canonical dtypes and frozen
    (read-only) so accidental mutation fails the same way it does on a
    memory-mapped store.
    """

    def __init__(
        self,
        n_nodes: int,
        tie_src: np.ndarray,
        tie_dst: np.ndarray,
        tie_kind: np.ndarray,
        reverse_of: np.ndarray,
        n_directed: int,
        n_bidirectional: int,
        n_undirected: int,
    ) -> None:
        _check_node_range(n_nodes)
        self._n_nodes = int(n_nodes)
        self._n_directed = int(n_directed)
        self._n_bidirectional = int(n_bidirectional)
        self._n_undirected = int(n_undirected)
        self._tie_src = _as_column(tie_src, TIE_INDEX_DTYPE)
        self._tie_dst = _as_column(tie_dst, TIE_INDEX_DTYPE)
        self._tie_kind = _as_column(tie_kind, TIE_KIND_DTYPE)
        self._reverse_of = _as_column(reverse_of, TIE_INDEX_DTYPE)
        n_ties = len(self._tie_src)
        expected = 2 * (
            self._n_directed + self._n_bidirectional + self._n_undirected
        )
        if not (
            len(self._tie_dst)
            == len(self._tie_kind)
            == len(self._reverse_of)
            == n_ties
        ) or n_ties != expected:
            raise GraphValidationError(
                "tie columns disagree with the declared class counts"
            )
        self._init_caches()
        # Building the key index sorts the packed (src, dst) keys, which
        # doubles as the one duplicate check of the whole build.
        sorted_keys, order = self.tie_key_index()
        if np.any(sorted_keys[1:] == sorted_keys[:-1]):
            raise GraphValidationError(
                _duplicate_message(sorted_keys, self._tie_kind[order])
            )

    @classmethod
    def from_social_ties(
        cls,
        n_nodes: int,
        e_d: np.ndarray,
        e_b: np.ndarray,
        e_u: np.ndarray,
    ) -> "InMemoryStore":
        """Expand canonical per-class ``(k, 2)`` pair arrays.

        Layout: ``[E_d forward | E_d reverse | E_b both | E_u both]``;
        reverse orientations sit at a fixed offset from their partner,
        which makes ``reverse_of`` cheap to build.
        """
        _check_node_range(n_nodes)
        e_d = np.ascontiguousarray(e_d, dtype=TIE_INDEX_DTYPE).reshape(-1, 2)
        e_b = np.ascontiguousarray(e_b, dtype=TIE_INDEX_DTYPE).reshape(-1, 2)
        e_u = np.ascontiguousarray(e_u, dtype=TIE_INDEX_DTYPE).reshape(-1, 2)
        nd, nb, nu = len(e_d), len(e_b), len(e_u)
        n_ties = 2 * (nd + nb + nu)

        tie_src = np.empty(n_ties, dtype=TIE_INDEX_DTYPE)
        tie_dst = np.empty(n_ties, dtype=TIE_INDEX_DTYPE)
        tie_kind = np.empty(n_ties, dtype=TIE_KIND_DTYPE)
        cursor = 0
        from .mixed_graph import TieKind

        for pairs, kind in (
            (e_d, TieKind.DIRECTED),
            (e_d[:, ::-1], TieKind.DIRECTED_REVERSE),
            (e_b, TieKind.BIDIRECTIONAL),
            (e_b[:, ::-1], TieKind.BIDIRECTIONAL),
            (e_u, TieKind.UNDIRECTED),
            (e_u[:, ::-1], TieKind.UNDIRECTED),
        ):
            stop = cursor + len(pairs)
            tie_src[cursor:stop] = pairs[:, 0]
            tie_dst[cursor:stop] = pairs[:, 1]
            tie_kind[cursor:stop] = int(kind)
            cursor = stop

        rev = np.empty(n_ties, dtype=TIE_INDEX_DTYPE)
        rev[:nd] = np.arange(nd) + nd
        rev[nd : 2 * nd] = np.arange(nd)
        base = 2 * nd
        rev[base : base + nb] = np.arange(nb) + base + nb
        rev[base + nb : base + 2 * nb] = np.arange(nb) + base
        base = 2 * nd + 2 * nb
        rev[base : base + nu] = np.arange(nu) + base + nu
        rev[base + nu : base + 2 * nu] = np.arange(nu) + base

        return cls(n_nodes, tie_src, tie_dst, tie_kind, rev, nd, nb, nu)


class MmapStore(_TieStoreBase):
    """Read-only store backed by ``.npy`` files on disk.

    Opened with ``np.load(..., mmap_mode="r")``: every array is a
    zero-copy, read-only view of the file's pages.  A forked HOGWILD
    worker inherits the mapping for free; a spawned one re-opens the
    same files instead of pickling array copies.
    """

    def __init__(self, path: Path, meta: dict, arrays: dict[str, np.ndarray]):
        self.path = Path(path)
        self.meta = meta
        self._n_nodes = int(meta["n_nodes"])
        self._n_directed = int(meta["n_directed"])
        self._n_bidirectional = int(meta["n_bidirectional"])
        self._n_undirected = int(meta["n_undirected"])
        self._tie_src = arrays["tie_src"]
        self._tie_dst = arrays["tie_dst"]
        self._tie_kind = arrays["tie_kind"]
        self._reverse_of = arrays["reverse_of"]
        self._init_caches()
        self._out_csr = (arrays["out_indptr"], arrays["out_order"])
        self._und_csr = (arrays["out_indptr"], arrays["und_targets"])
        self._key_order = arrays["key_order"]
        self._fingerprint = str(meta["fingerprint"])

    @classmethod
    def open(
        cls, path: str | os.PathLike, *, mmap: bool = True, verify: bool = True
    ) -> "MmapStore":
        """Open a store directory written by :func:`write_store`.

        Structural problems — missing files, dtype/shape drift from the
        manifest, inconsistent counts — always raise
        :class:`GraphValidationError`.  ``verify=True`` (default)
        additionally re-hashes every array file against the manifest's
        SHA-256, so bit-level tampering or truncation cannot slip
        through; pass ``verify=False`` to skip the full read when the
        store is trusted and larger than you want to touch at open time.
        """
        root = Path(path)
        meta_path = root / STORE_META
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except FileNotFoundError:
            raise GraphValidationError(
                f"not a graph store: missing {meta_path}"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise GraphValidationError(
                f"unreadable graph-store manifest {meta_path}: {exc}"
            ) from exc
        if meta.get("schema") != STORE_SCHEMA:
            raise GraphValidationError(
                f"unsupported graph-store schema {meta.get('schema')!r} "
                f"(expected {STORE_SCHEMA!r}) in {meta_path}"
            )
        manifest = meta.get("arrays", {})
        arrays: dict[str, np.ndarray] = {}
        for name in _STORE_ARRAYS:
            spec = manifest.get(name)
            if spec is None:
                raise GraphValidationError(
                    f"graph-store manifest {meta_path} lacks array {name!r}"
                )
            file_path = root / f"{name}.npy"
            if verify:
                _verify_sha256(file_path, spec.get("sha256"))
            try:
                array = np.load(
                    file_path, mmap_mode="r" if mmap else None
                )
            except FileNotFoundError:
                raise GraphValidationError(
                    f"graph store {root} is missing {file_path.name}"
                ) from None
            except (OSError, ValueError) as exc:
                raise GraphValidationError(
                    f"corrupt graph-store array {file_path}: {exc}"
                ) from exc
            if str(array.dtype) != spec["dtype"] or list(
                array.shape
            ) != list(spec["shape"]):
                raise GraphValidationError(
                    f"graph-store array {file_path.name} is "
                    f"{array.dtype}{array.shape}, manifest says "
                    f"{spec['dtype']}{tuple(spec['shape'])} — "
                    "truncated or tampered store"
                )
            if not mmap:
                array = _readonly(array)
            arrays[name] = array
        _check_store_shape(meta, arrays, root)
        return cls(root, meta, arrays)


#: Social-tie class of each tie kind: E_d (both orientations), E_b, E_u.
_KIND_CLASS = np.array([0, 0, 1, 2], dtype=np.int8)


def _duplicate_message(sorted_keys: np.ndarray, kinds: np.ndarray) -> str:
    """Name the fault behind the first repeated key (``kinds`` in key order).

    Every oriented tie's reverse is materialised, so two social ties
    share an unordered pair exactly when two oriented ties share a key;
    the classes of the two ties tell which rule of Definition 1 broke.
    """
    at = int(np.argmax(sorted_keys[1:] == sorted_keys[:-1]))
    first, second = _KIND_CLASS[kinds[at : at + 2]]
    if first != second:
        return "tie classes E_d, E_b, E_u must be disjoint"
    if first == 0:
        return (
            "E_d contains both orientations (or duplicates) of a tie; "
            "a reciprocated pair belongs in E_b"
        )
    return "E_b or E_u contains duplicate ties"


def _check_node_range(n_nodes: int) -> None:
    if n_nodes <= 0:
        raise GraphValidationError("n_nodes must be positive")
    if int(n_nodes) > np.iinfo(TIE_INDEX_DTYPE).max:
        raise GraphValidationError(
            f"n_nodes={n_nodes} exceeds the int32 node-id range of the "
            "graph store layout"
        )


def _verify_sha256(file_path: Path, expected: str | None) -> None:
    digest = hashlib.sha256()
    try:
        with open(file_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except FileNotFoundError:
        raise GraphValidationError(
            f"graph store is missing {file_path.name}"
        ) from None
    if expected is not None and digest.hexdigest() != expected:
        raise GraphValidationError(
            f"graph-store array {file_path.name} fails its manifest "
            "SHA-256 — truncated or tampered store"
        )


def _check_store_shape(
    meta: dict, arrays: dict[str, np.ndarray], root: Path
) -> None:
    n_nodes = int(meta["n_nodes"])
    n_ties = 2 * (
        int(meta["n_directed"])
        + int(meta["n_bidirectional"])
        + int(meta["n_undirected"])
    )
    problems = []
    if int(meta.get("n_ties", n_ties)) != n_ties:
        problems.append("n_ties disagrees with the per-class counts")
    for name in (
        "tie_src", "tie_dst", "tie_kind", "reverse_of",
        "out_order", "und_targets", "key_order",
    ):
        if len(arrays[name]) != n_ties:
            problems.append(f"{name} has {len(arrays[name])} rows, "
                            f"expected {n_ties}")
    indptr = arrays["out_indptr"]
    if len(indptr) != n_nodes + 1:
        problems.append(
            f"out_indptr has {len(indptr)} rows, expected {n_nodes + 1}"
        )
    elif len(indptr) and (indptr[0] != 0 or indptr[-1] != n_ties):
        problems.append("out_indptr does not span 0..n_ties")
    if problems:
        raise GraphValidationError(
            f"inconsistent graph store {root}: " + "; ".join(problems)
        )


def write_store(store: GraphStore, path: str | os.PathLike) -> Path:
    """Persist ``store`` as a :data:`STORE_SCHEMA` directory; returns it.

    Derived arrays (CSRs, key order) are computed once here so opening
    the result never re-sorts anything.  Existing files at ``path`` are
    overwritten.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    offsets, out_order = store.out_csr()
    _, und_targets = store.und_csr()
    payload: dict[str, np.ndarray] = {
        "tie_src": np.ascontiguousarray(store.tie_src, dtype=TIE_INDEX_DTYPE),
        "tie_dst": np.ascontiguousarray(store.tie_dst, dtype=TIE_INDEX_DTYPE),
        "tie_kind": np.ascontiguousarray(store.tie_kind, dtype=TIE_KIND_DTYPE),
        "reverse_of": np.ascontiguousarray(
            store.reverse_of, dtype=TIE_INDEX_DTYPE
        ),
        "out_indptr": np.ascontiguousarray(offsets, dtype=INDPTR_DTYPE),
        "out_order": np.ascontiguousarray(out_order, dtype=TIE_INDEX_DTYPE),
        "und_targets": np.ascontiguousarray(
            und_targets, dtype=TIE_INDEX_DTYPE
        ),
        "key_order": np.ascontiguousarray(
            store.key_order(), dtype=TIE_INDEX_DTYPE
        ),
    }
    manifest: dict[str, dict] = {}
    for name in _STORE_ARRAYS:
        array = payload[name]
        file_path = root / f"{name}.npy"
        np.save(file_path, array)
        # The file is the .npy header followed by the array's own bytes,
        # so only the header is read back.
        digest = hashlib.sha256()
        with open(file_path, "rb") as fh:
            digest.update(fh.read(os.path.getsize(file_path) - array.nbytes))
        digest.update(array)
        manifest[name] = {
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "sha256": digest.hexdigest(),
        }
    meta = {
        "schema": STORE_SCHEMA,
        "n_nodes": int(store.n_nodes),
        "n_directed": int(store.n_directed),
        "n_bidirectional": int(store.n_bidirectional),
        "n_undirected": int(store.n_undirected),
        "n_ties": int(store.n_ties),
        "fingerprint": store.fingerprint(),
        "arrays": manifest,
    }
    tmp_fd, tmp_name = tempfile.mkstemp(
        dir=root, prefix=STORE_META, suffix=".tmp"
    )
    with os.fdopen(tmp_fd, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp_name, root / STORE_META)
    return root


def open_store(
    path: str | os.PathLike, *, mmap: bool = True, verify: bool = True
) -> MmapStore:
    """Open a graph-store directory (see :meth:`MmapStore.open`)."""
    return MmapStore.open(path, mmap=mmap, verify=verify)


class PairChunkBuffer:
    """Append-only ``(n, 2)`` int32 pair builder with bounded RAM.

    Streaming graph builds (synthetic generators, BFS sub-sampling)
    push pairs here instead of into Python lists of tuples.  Pairs
    accumulate in fixed-size int32 chunks; once the in-memory total
    passes ``spill_rows`` the full chunks are flushed to an anonymous
    temp file, so the Python-side footprint stays at
    ``O(chunk_rows)`` regardless of graph size.  ``finalize`` returns a
    single ``(n, 2)`` array — a read-only ``np.memmap`` when the buffer
    spilled, an ordinary array otherwise.
    """

    def __init__(
        self,
        chunk_rows: int = 1 << 17,
        *,
        spill_rows: int = 1 << 22,
        spill_dir: str | os.PathLike | None = None,
    ) -> None:
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self._chunk_rows = int(chunk_rows)
        self._spill_rows = int(spill_rows)
        self._spill_dir = spill_dir
        self._chunk = np.empty((self._chunk_rows, 2), dtype=TIE_INDEX_DTYPE)
        self._fill = 0
        self._done: list[np.ndarray] = []
        self._done_rows = 0
        self._spill_file = None
        self._spilled_rows = 0
        self._finalized: np.ndarray | None = None

    def __len__(self) -> int:
        return self._spilled_rows + self._done_rows + self._fill

    def append(self, u: int, v: int) -> None:
        """Append one pair (scalar hot path for incremental generators)."""
        chunk = self._chunk
        fill = self._fill
        chunk[fill, 0] = u
        chunk[fill, 1] = v
        self._fill = fill + 1
        if self._fill == self._chunk_rows:
            self._rotate()

    def extend(self, pairs: np.ndarray) -> None:
        """Append a ``(k, 2)`` block of pairs."""
        pairs = np.asarray(pairs)
        if pairs.size == 0:
            return
        pairs = pairs.reshape(-1, 2)
        start = 0
        while start < len(pairs):
            take = min(self._chunk_rows - self._fill, len(pairs) - start)
            self._chunk[self._fill : self._fill + take] = pairs[
                start : start + take
            ]
            self._fill += take
            start += take
            if self._fill == self._chunk_rows:
                self._rotate()

    def _rotate(self) -> None:
        self._done.append(self._chunk[: self._fill].copy())
        self._done_rows += self._fill
        self._chunk = np.empty((self._chunk_rows, 2), dtype=TIE_INDEX_DTYPE)
        self._fill = 0
        if self._done_rows >= self._spill_rows:
            self._flush_to_spill()

    def _flush_to_spill(self) -> None:
        if self._spill_file is None:
            fd, name = tempfile.mkstemp(
                prefix="repro-pairs-", suffix=".bin", dir=self._spill_dir
            )
            self._spill_file = os.fdopen(fd, "wb")
            self._spill_name = name
        for block in self._done:
            self._spill_file.write(np.ascontiguousarray(block).tobytes())
            self._spilled_rows += len(block)
        self._done = []
        self._done_rows = 0

    def finalize(self) -> np.ndarray:
        """Concatenate everything appended so far into one array."""
        if self._finalized is not None:
            return self._finalized
        if self._spill_file is not None:
            self._flush_to_spill()
            if self._fill:
                self._spill_file.write(
                    np.ascontiguousarray(self._chunk[: self._fill]).tobytes()
                )
                self._spilled_rows += self._fill
                self._fill = 0
            self._spill_file.flush()
            self._spill_file.close()
            out = np.memmap(
                self._spill_name,
                dtype=TIE_INDEX_DTYPE,
                mode="r",
                shape=(self._spilled_rows, 2),
            )
            # The mapping keeps the pages alive; unlink so the spill
            # file disappears with the last reference.
            os.unlink(self._spill_name)
            self._spill_file = None
        else:
            parts = self._done + (
                [self._chunk[: self._fill]] if self._fill else []
            )
            if parts:
                out = np.concatenate(parts, axis=0)
            else:
                out = np.empty((0, 2), dtype=TIE_INDEX_DTYPE)
            out = _readonly(np.ascontiguousarray(out))
        self._done = []
        self._done_rows = 0
        self._finalized = out
        return out
