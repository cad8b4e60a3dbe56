"""Mixed social network: the substrate every other subsystem builds on.

A *mixed social network* (paper, Definition 1) is a graph
``G = (V, E_d ∪ E_b ∪ E_u)`` whose tie set is partitioned into

* **directed ties** ``E_d`` — orientation is known (these are the labels),
* **bidirectional ties** ``E_b`` — both orientations exist and are known,
* **undirected ties** ``E_u`` — the tie exists but its orientation is unknown.

Internally the network stores the *expanded oriented tie set* produced by
the preprocessing step of Algorithm 1 in the paper: every directed tie
``(u, v)`` is accompanied by its reverse ``(v, u)`` (label 0), and every
bidirectional or undirected tie is stored in both orientations.  Each
oriented tie gets a dense integer id ``0..n_ties-1``; ``reverse_of[e]``
links the two orientations of the same social tie.

Since the storage-backend split, :class:`MixedSocialNetwork` is a thin
façade over a :class:`~repro.graph.store.GraphStore`: the tie columns
and every derived structure (CSRs, key index, tie degrees) live in the
backend — :class:`~repro.graph.store.InMemoryStore` for networks built
from pair lists, :class:`~repro.graph.store.MmapStore` for networks
opened from an on-disk store directory via :meth:`MixedSocialNetwork.
from_store`.  All accessors delegate, so downstream code is oblivious
to where the arrays actually live.
"""

from __future__ import annotations

import os
import warnings
from enum import IntEnum
from pathlib import Path
from typing import Iterable

import numpy as np

from .store import (
    GraphStore,
    GraphValidationError,
    InMemoryStore,
    MmapStore,
    write_store,
)

__all__ = [
    "GraphValidationError",
    "MixedSocialNetwork",
    "TieKind",
]


class TieKind(IntEnum):
    """Kind of an oriented tie in the expanded tie set."""

    #: A directed tie in its true orientation (label 1).
    DIRECTED = 0
    #: The materialised reverse of a directed tie (label 0).
    DIRECTED_REVERSE = 1
    #: One orientation of a bidirectional tie.
    BIDIRECTIONAL = 2
    #: One orientation of an undirected (direction-unknown) tie.
    UNDIRECTED = 3


#: Above this many pairs, feeding plain Python iterables through the
#: constructor earns a DeprecationWarning: the list round-trip holds
#: every tie as a tuple of boxed ints, exactly what the store API is
#: designed to avoid.  Arrays of any size stay silent.
_LARGE_ITERABLE_WARN = 250_000


def _as_pair_array(ties: Iterable[tuple[int, int]]) -> np.ndarray:
    """Normalise an iterable of (u, v) pairs into an ``(n, 2)`` int array."""
    if isinstance(ties, np.ndarray):
        arr = np.ascontiguousarray(ties, dtype=np.int64)
    else:
        arr = np.asarray(list(ties), dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphValidationError(
            f"tie list must be pairs (u, v); got array of shape {arr.shape}"
        )
    return arr


class MixedSocialNetwork:
    """A mixed social network with directed, bidirectional and undirected ties.

    Parameters
    ----------
    n_nodes:
        Number of nodes; node ids are ``0..n_nodes-1``.
    directed_ties:
        Iterable of ``(u, v)`` pairs, one per directed tie, in the true
        orientation.  The reverse orientation is materialised automatically.
    bidirectional_ties:
        Iterable of ``(u, v)`` pairs, **one canonical pair per tie** (either
        orientation); both orientations are materialised.
    undirected_ties:
        Iterable of ``(u, v)`` pairs, one canonical pair per tie; both
        orientations are materialised.
    validate:
        When true (default), enforce Definition 1: node ids in range, no
        self loops, and ``|E_d| > 0``.  Duplicate ties and overlapping
        tie classes are rejected whatever ``validate`` says: the backing
        store refuses a repeated oriented tie.

    For large graphs prefer the array-native constructors: build
    ``(k, 2)`` arrays and call :meth:`from_arrays`, or open a persisted
    store directory with :meth:`from_store`.  The positional-iterable
    constructor remains supported as a validated shim, but warns once
    the input is a non-array iterable past ~250k pairs.

    Examples
    --------
    >>> net = MixedSocialNetwork(3, directed_ties=[(0, 1)],
    ...                          undirected_ties=[(1, 2)])
    >>> net.n_social_ties
    2
    >>> net.n_ties  # oriented: (0,1), (1,0), (1,2), (2,1)
    4
    """

    def __init__(
        self,
        n_nodes: int,
        directed_ties: Iterable[tuple[int, int]],
        bidirectional_ties: Iterable[tuple[int, int]] = (),
        undirected_ties: Iterable[tuple[int, int]] = (),
        validate: bool = True,
    ) -> None:
        listy = sum(
            len(ties) if hasattr(ties, "__len__") else 0
            for ties in (directed_ties, bidirectional_ties, undirected_ties)
            if not isinstance(ties, np.ndarray)
        )
        if listy > _LARGE_ITERABLE_WARN:
            warnings.warn(
                f"building a MixedSocialNetwork from {listy} Python pairs; "
                "for graphs this size use MixedSocialNetwork.from_arrays "
                "(numpy (k, 2) arrays) or from_store (on-disk store) — "
                "see docs/graph_storage.md",
                DeprecationWarning,
                stacklevel=2,
            )
        e_d = _as_pair_array(directed_ties)
        e_b = _as_pair_array(bidirectional_ties)
        e_u = _as_pair_array(undirected_ties)
        self._init_from_pairs(n_nodes, e_d, e_b, e_u, validate)

    def _init_from_pairs(
        self,
        n_nodes: int,
        e_d: np.ndarray,
        e_b: np.ndarray,
        e_u: np.ndarray,
        validate: bool,
    ) -> None:
        if n_nodes <= 0:
            raise GraphValidationError("n_nodes must be positive")
        self._n_nodes = int(n_nodes)
        if validate:
            self._validate(e_d, e_b, e_u)
        self._store: GraphStore = InMemoryStore.from_social_ties(
            self._n_nodes, e_d, e_b, e_u
        )

    # ------------------------------------------------------------------
    # Store-backed construction
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        n_nodes: int,
        directed: np.ndarray | None = None,
        bidirectional: np.ndarray | None = None,
        undirected: np.ndarray | None = None,
        *,
        validate: bool = True,
    ) -> "MixedSocialNetwork":
        """Build from per-class ``(k, 2)`` arrays without a Python round-trip.

        The array-native hot path: inputs go straight into the backing
        :class:`~repro.graph.store.InMemoryStore` with no per-pair
        boxing.  Semantics match the classic constructor exactly
        (``directed`` pairs are true orientations; ``bidirectional`` /
        ``undirected`` take one canonical pair per tie).
        """
        empty = np.empty((0, 2), dtype=np.int64)
        net = cls.__new__(cls)
        net._init_from_pairs(
            n_nodes,
            _as_pair_array(empty if directed is None else directed),
            _as_pair_array(empty if bidirectional is None else bidirectional),
            _as_pair_array(empty if undirected is None else undirected),
            validate,
        )
        return net

    @classmethod
    def from_store(
        cls,
        source: GraphStore | str | os.PathLike,
        *,
        mmap: bool = True,
        verify: bool = True,
    ) -> "MixedSocialNetwork":
        """Wrap an existing store, or open a store directory from disk.

        ``source`` may be a :class:`~repro.graph.store.GraphStore`
        instance or a path written by :meth:`save_store`; paths open as
        a memory-mapped :class:`~repro.graph.store.MmapStore`
        (``mmap=False`` forces an eager read, ``verify=False`` skips
        the SHA-256 content check).
        """
        if isinstance(source, (str, os.PathLike)):
            store: GraphStore = MmapStore.open(
                source, mmap=mmap, verify=verify
            )
        else:
            store = source
        net = cls.__new__(cls)
        net._n_nodes = int(store.n_nodes)
        net._store = store
        return net

    def save_store(self, path: str | os.PathLike) -> Path:
        """Persist the backing store as a ``repro_graphstore/v1`` directory."""
        return write_store(self._store, path)

    @property
    def store(self) -> GraphStore:
        """The storage backend holding this network's tie arrays."""
        return self._store

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self, e_d: np.ndarray, e_b: np.ndarray, e_u: np.ndarray) -> None:
        if len(e_d) == 0:
            raise GraphValidationError(
                "Definition 1 requires |E_d| > 0 (pass validate=False to bypass)"
            )
        for name, pairs in (("E_d", e_d), ("E_b", e_b), ("E_u", e_u)):
            if len(pairs) == 0:
                continue
            if pairs.min() < 0 or pairs.max() >= self._n_nodes:
                raise GraphValidationError(f"{name} refers to nodes outside 0..n-1")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise GraphValidationError(f"{name} contains self loops")
        # Duplicates and class overlaps are caught by the store's sorted
        # key check, which names the offending classes.

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n_nodes

    @property
    def tie_src(self) -> np.ndarray:
        """Source node per oriented tie (read-only, backend-owned)."""
        return self._store.tie_src

    @property
    def tie_dst(self) -> np.ndarray:
        """Destination node per oriented tie (read-only, backend-owned)."""
        return self._store.tie_dst

    @property
    def tie_kind(self) -> np.ndarray:
        """:class:`TieKind` code per oriented tie (read-only)."""
        return self._store.tie_kind

    @property
    def reverse_of(self) -> np.ndarray:
        """Id of the opposite orientation of each oriented tie."""
        return self._store.reverse_of

    @property
    def n_ties(self) -> int:
        """Number of *oriented* ties in the expanded tie set."""
        return self._store.n_ties

    @property
    def n_social_ties(self) -> int:
        """Number of social ties ``|E_d| + |E_b| + |E_u|`` (unoriented)."""
        return (
            self._store.n_directed
            + self._store.n_bidirectional
            + self._store.n_undirected
        )

    @property
    def n_directed(self) -> int:
        """``|E_d|``."""
        return self._store.n_directed

    @property
    def n_bidirectional(self) -> int:
        """``|E_b|``."""
        return self._store.n_bidirectional

    @property
    def n_undirected(self) -> int:
        """``|E_u|``."""
        return self._store.n_undirected

    def _lookup_tie(self, u: int, v: int) -> int:
        """Id of oriented tie ``(u, v)`` via the key index, ``-1`` if absent."""
        u, v = int(u), int(v)
        if not (0 <= u < self._n_nodes and 0 <= v < self._n_nodes):
            return -1
        sorted_keys, order = self._store.tie_key_index()
        if len(sorted_keys) == 0:
            return -1
        key = u * self._n_nodes + v
        pos = int(np.searchsorted(sorted_keys, key))
        if pos < len(sorted_keys) and sorted_keys[pos] == key:
            return int(order[pos])
        return -1

    def tie_id(self, u: int, v: int) -> int:
        """Dense id of the oriented tie ``(u, v)``; raises KeyError if absent."""
        idx = self._lookup_tie(u, v)
        if idx < 0:
            raise KeyError((int(u), int(v)))
        return idx

    def has_tie(self, u: int, v: int) -> bool:
        """Whether the oriented tie ``(u, v)`` exists in the expanded set."""
        return self._lookup_tie(u, v) >= 0

    def _ensure_tie_key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``src * n + dst`` keys + matching tie ids (backend-owned)."""
        return self._store.tie_key_index()

    def tie_ids(
        self, pairs: np.ndarray, missing: str = "raise"
    ) -> np.ndarray:
        """Vectorised :meth:`tie_id` over a ``(k, 2)`` array of pairs.

        Parameters
        ----------
        pairs:
            ``(k, 2)`` integer array of oriented ``(u, v)`` queries.
        missing:
            ``"raise"`` (default) raises :class:`KeyError` naming the
            first absent pair; ``"ignore"`` returns ``-1`` for absent
            pairs instead.

        Returns
        -------
        Length-``k`` ``int64`` array of oriented tie ids, aligned with
        ``pairs``.
        """
        if missing not in ("raise", "ignore"):
            raise ValueError("missing must be 'raise' or 'ignore'")
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return np.zeros(0, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(
                f"pairs must be a (k, 2) array; got shape {pairs.shape}"
            )
        sorted_keys, order = self._ensure_tie_key_index()
        if len(sorted_keys) == 0:
            if missing == "raise":
                u, v = pairs[0]
                raise KeyError(f"no oriented tie ({int(u)}, {int(v)})")
            return np.full(len(pairs), -1, dtype=np.int64)
        in_range = np.all((pairs >= 0) & (pairs < self._n_nodes), axis=1)
        query = pairs[:, 0] * np.int64(self._n_nodes) + pairs[:, 1]
        pos = np.searchsorted(sorted_keys, query)
        pos_safe = np.minimum(pos, len(sorted_keys) - 1)
        found = in_range & (sorted_keys[pos_safe] == query)
        if missing == "raise" and not found.all():
            u, v = pairs[int(np.argmin(found))]
            raise KeyError(f"no oriented tie ({int(u)}, {int(v)})")
        ids = np.where(found, order[pos_safe], np.int64(-1))
        return ids

    def has_oriented_tie(self, u: int, v: int) -> bool:
        """Whether the network truly contains a tie in orientation u → v.

        Unlike :meth:`has_tie`, the materialised reverse of a directed tie
        does *not* count: for ``(u, v) ∈ E_d`` only the true orientation
        answers true; bidirectional and undirected ties answer true both
        ways.
        """
        idx = self._lookup_tie(u, v)
        return idx >= 0 and self.tie_kind[idx] != int(
            TieKind.DIRECTED_REVERSE
        )

    def ties_of_kind(self, *kinds: TieKind) -> np.ndarray:
        """Ids of oriented ties whose kind is one of ``kinds``."""
        mask = np.isin(self.tie_kind, [int(k) for k in kinds])
        return np.flatnonzero(mask)

    @property
    def labeled_tie_ids(self) -> np.ndarray:
        """Oriented ties with direction labels: E_d forward and reverse."""
        return self.ties_of_kind(TieKind.DIRECTED, TieKind.DIRECTED_REVERSE)

    @property
    def undirected_tie_ids(self) -> np.ndarray:
        """Oriented ties belonging to undirected social ties (both ways)."""
        return self.ties_of_kind(TieKind.UNDIRECTED)

    @property
    def bidirectional_tie_ids(self) -> np.ndarray:
        """Oriented ties belonging to bidirectional social ties (both ways)."""
        return self.ties_of_kind(TieKind.BIDIRECTIONAL)

    def tie_labels(self) -> np.ndarray:
        """Per-oriented-tie label: 1.0 / 0.0 for E_d forward/reverse, NaN else."""
        labels = np.full(self.n_ties, np.nan)
        labels[self.tie_kind == int(TieKind.DIRECTED)] = 1.0
        labels[self.tie_kind == int(TieKind.DIRECTED_REVERSE)] = 0.0
        return labels

    # ------------------------------------------------------------------
    # Degrees (paper Eqs. 1-2)
    # ------------------------------------------------------------------

    def out_degrees(self) -> np.ndarray:
        """Mixed out-degrees (Eq. 1): undirected ties count 1/2 each way."""
        deg = np.zeros(self._n_nodes)
        full = np.isin(
            self.tie_kind, [int(TieKind.DIRECTED), int(TieKind.BIDIRECTIONAL)]
        )
        half = self.tie_kind == int(TieKind.UNDIRECTED)
        np.add.at(deg, self.tie_src[full], 1.0)
        np.add.at(deg, self.tie_src[half], 0.5)
        return deg

    def in_degrees(self) -> np.ndarray:
        """Mixed in-degrees (Eq. 2): undirected ties count 1/2 each way."""
        deg = np.zeros(self._n_nodes)
        full = np.isin(
            self.tie_kind, [int(TieKind.DIRECTED), int(TieKind.BIDIRECTIONAL)]
        )
        half = self.tie_kind == int(TieKind.UNDIRECTED)
        np.add.at(deg, self.tie_dst[full], 1.0)
        np.add.at(deg, self.tie_dst[half], 0.5)
        return deg

    def degrees(self) -> np.ndarray:
        """Total mixed degree ``deg(u) = deg_out(u) + deg_in(u)``."""
        return self.out_degrees() + self.in_degrees()

    # ------------------------------------------------------------------
    # Connected ties (paper Definition 4, Eq. 6)
    # ------------------------------------------------------------------

    def _ensure_out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over nodes -> outgoing oriented tie ids (backend-owned)."""
        return self._store.out_csr()

    def out_ties(self, node: int) -> np.ndarray:
        """Ids of oriented ties leaving ``node`` in the expanded tie set."""
        offsets, targets = self._ensure_out_csr()
        return targets[offsets[node] : offsets[node + 1]]

    def connected_ties(self, e: int) -> np.ndarray:
        """``c(e)``: oriented ties ``(v, v')`` continuing ``e = (u, v)``.

        Per Definition 4 the back-tie ``(v, u)`` is excluded.
        """
        u, v = self.tie_src[e], self.tie_dst[e]
        candidates = self.out_ties(int(v))
        return candidates[self.tie_dst[candidates] != u]

    def tie_degrees(self) -> np.ndarray:
        """``deg_tie(e) = |c(e)|`` for every oriented tie (vectorised).

        Equals the out-tie count of ``dst(e)`` minus one if the back-tie
        ``(dst, src)`` exists (Definition 4 excludes it).
        """
        return self._store.tie_degrees()

    def connected_pair_count(self) -> int:
        """``|C(G)|``: total number of connected tie pairs."""
        return int(self.tie_degrees().sum())

    # ------------------------------------------------------------------
    # Undirected neighbourhood view (for centrality, triads, patterns)
    # ------------------------------------------------------------------

    def _ensure_und_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over nodes -> neighbour node ids, ignoring orientation.

        Every social tie contributes each endpoint to the other's
        neighbour list exactly once (backend-owned).
        """
        return self._store.und_csr()

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node``, ignoring tie orientation."""
        offsets, targets = self._ensure_und_csr()
        return targets[offsets[node] : offsets[node + 1]]

    def common_neighbors(self, u: int, v: int) -> np.ndarray:
        """Sorted common neighbours of ``u`` and ``v`` (orientation-blind)."""
        return np.intersect1d(
            self.neighbors(u), self.neighbors(v), assume_unique=True
        )

    # ------------------------------------------------------------------
    # Export / conversion
    # ------------------------------------------------------------------

    def social_ties(self, kind: TieKind) -> np.ndarray:
        """Canonical ``(n, 2)`` pairs of the requested social-tie class.

        For DIRECTED, pairs are in the true orientation; for BIDIRECTIONAL
        and UNDIRECTED one canonical orientation per tie is returned.
        """
        if kind == TieKind.DIRECTED:
            ids = self.ties_of_kind(TieKind.DIRECTED)
        elif kind == TieKind.DIRECTED_REVERSE:
            ids = self.ties_of_kind(TieKind.DIRECTED_REVERSE)
        else:
            ids = self.ties_of_kind(kind)
            ids = ids[self.tie_src[ids] < self.tie_dst[ids]]
        return np.column_stack([self.tie_src[ids], self.tie_dst[ids]])

    def adjacency_matrix(self, directionality: np.ndarray | None = None):
        """Adjacency matrix of the network as scipy CSR.

        Directed ties contribute only their true orientation; bidirectional
        and undirected ties contribute both orientations.  When
        ``directionality`` (per-oriented-tie values, e.g. ``d(e)``) is
        given, bidirectional cells take those values instead of 1 —
        this is the *directionality adjacency matrix* of Sec. 5.2.
        """
        from scipy import sparse

        keep = self.tie_kind != int(TieKind.DIRECTED_REVERSE)
        ids = np.flatnonzero(keep)
        values = np.ones(len(ids))
        if directionality is not None:
            is_bi = self.tie_kind[ids] == int(TieKind.BIDIRECTIONAL)
            values[is_bi] = directionality[ids[is_bi]]
        return sparse.csr_matrix(
            (values, (self.tie_src[ids], self.tie_dst[ids])),
            shape=(self._n_nodes, self._n_nodes),
        )

    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` with a ``kind`` edge attr."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self._n_nodes))
        for e in range(self.n_ties):
            kind = TieKind(self.tie_kind[e])
            if kind == TieKind.DIRECTED_REVERSE:
                continue
            g.add_edge(
                int(self.tie_src[e]), int(self.tie_dst[e]), kind=kind.name.lower()
            )
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MixedSocialNetwork(n_nodes={self._n_nodes}, "
            f"|E_d|={self.n_directed}, |E_b|={self.n_bidirectional}, "
            f"|E_u|={self.n_undirected})"
        )
