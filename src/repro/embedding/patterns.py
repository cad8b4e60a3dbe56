"""Directionality-pattern pseudo-labels (paper Sec. 4.4, Eqs. 14-15).

Two of ReDirect's four directionality patterns supply latent supervision
for undirected ties:

* **Degree Consistency Pattern** (Definition 5): directed ties usually
  point from low-degree to high-degree nodes.  The pseudo-label for the
  orientation ``(u, v)`` is the share of degree mass at the *target*:
  ``y^d_uv = deg(v) / (deg(u) + deg(v))``.

  .. note::
     Eq. 14 as printed puts ``deg(u)`` in the numerator, which would make
     the pseudo-label *contradict* Definition 5 (it would mark high-degree
     proposers as likely sources).  We implement the orientation that is
     consistent with the pattern's definition and with the paper's own
     observation that ``L_pattern`` always helps; the printed equation is
     a typo.  See DESIGN.md.

* **Triad Status Consistency Pattern** (Definition 6): directed ties
  avoid loops.  For a common neighbour ``w`` of ``(u, v)``, the current
  classifier's scores on ``(u, w)`` and ``(v, w)`` vote on the likely
  orientation of ``(u, v)`` (Eq. 15).  These pseudo-labels are *dynamic*:
  they are recomputed from the live model during training, with no
  gradient flowing through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import MixedSocialNetwork, TieKind
from ..graph.store import TIE_INDEX_DTYPE
from ..utils import ensure_rng


def degree_pseudo_labels(network: MixedSocialNetwork) -> np.ndarray:
    """``y^d_e`` for every oriented tie (meaningful only on ``E_u``).

    Returns an array over all oriented tie ids; entries for ties whose
    endpoints both have zero degree default to 0.5.
    """
    degrees = network.degrees()
    src_deg = degrees[network.tie_src]
    dst_deg = degrees[network.tie_dst]
    total = src_deg + dst_deg
    with np.errstate(invalid="ignore", divide="ignore"):
        labels = np.where(total > 0, dst_deg / np.maximum(total, 1e-12), 0.5)
    return labels


@dataclass(frozen=True)
class TriadNeighborhood:
    """Pre-sampled ``t(u, v)`` ties for the triad pseudo-labels.

    The table has one row per tie of one contiguous tie-id block: row
    ``r`` belongs to oriented tie ``first + r``.  The block is the
    smallest one holding the requested ties and their reverses.  In the
    store layout ``[E_d forward | E_d reverse | E_b | E_u]`` the
    default request, every undirected tie, is exactly the ``E_u``
    block, so directed and bidirectional ties, which never read a
    witness, take no rows; ReDirect's all-ties request is the
    ``first = 0`` case.

    For the tie ``e = (u, v)`` of a row, ``uw_ids`` and ``vw_ids`` hold
    the oriented tie ids (not rows) of ``(u, w)`` and ``(v, w)`` for
    each sampled common neighbour ``w``, padded with ``-1`` to width
    ``gamma``.  ``counts`` is ``|t(u, v)|``; zero means the triad term
    is skipped for that tie.  :meth:`witnesses` looks rows up by tie id.
    """

    uw_ids: np.ndarray
    vw_ids: np.ndarray
    counts: np.ndarray
    first: int = 0

    @property
    def gamma(self) -> int:
        """Padding width (maximum common neighbours per tie)."""
        return self.uw_ids.shape[1]

    def witnesses(self, tie_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(uw, vw)`` witness rows of ``tie_ids``.

        A tie outside the table's block gets an all ``-1`` row: it has
        no sampled witnesses.
        """
        rows = np.asarray(tie_ids, dtype=np.int64) - self.first
        inside = (rows >= 0) & (rows < len(self.counts))
        uw = np.full((len(rows), self.gamma), -1, dtype=self.uw_ids.dtype)
        vw = uw.copy()
        uw[inside] = self.uw_ids[rows[inside]]
        vw[inside] = self.vw_ids[rows[inside]]
        return uw, vw


def _ragged_csr_rows(
    offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR positions of every entry in ``rows``, plus row-of-entry.

    Returns ``(positions, row_index)``: ``positions`` indexes into the
    CSR data array; ``row_index[j]`` tells which element of ``rows`` the
    ``j``-th position belongs to.
    """
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    ends = np.cumsum(counts)
    positions = np.arange(total) + np.repeat(starts - (ends - counts), counts)
    return positions, np.repeat(np.arange(len(rows)), counts)


#: Entry budget per chunk of the triad-neighbourhood build.  One chunk
#: materialises ~10 temporaries of this many int64s (the tagged
#: neighbour lists plus their sort keys and permutations), so the
#: transient footprint is bounded at roughly ``10 * 8 * budget`` bytes
#: regardless of graph size — a paper-scale hub-heavy graph no longer
#: allocates a multi-GB intersection in one shot.
TRIAD_CHUNK_ENTRIES = 4_000_000


def build_triad_neighborhoods(
    network: MixedSocialNetwork,
    gamma: int,
    seed: int | np.random.Generator = 0,
    tie_ids: np.ndarray | None = None,
    chunk_entries: int = TRIAD_CHUNK_ENTRIES,
) -> TriadNeighborhood:
    """Sample ``t(u, v)`` for the requested ties (default: all of ``E_u``).

    This is the preprocessing of Algorithm 1 lines 6-9; sampling happens
    once, the classifier scores are read live during training.

    The build is fully vectorised: one canonical orientation per tie is
    selected with ``np.unique`` over ``min(e, reverse_of[e])`` keys, the
    common-neighbour intersection happens in a sort over the
    concatenated (tagged) neighbour lists, and the per-pair
    down-sampling to ``gamma`` witnesses uses random sort keys
    (equivalent to a uniform draw without replacement).

    The intersection streams over the canonical pairs in chunks of at
    most ``chunk_entries`` neighbour-list entries (never splitting a
    pair), so peak transient memory is bounded by the budget, not by
    ``sum(deg)`` of the whole graph.  Chunking is *exact*: hits keep
    their global order and numpy ``Generator`` draws are stream-stable
    under splitting, so the result is bit-identical for any
    ``chunk_entries``.

    The table holds rows for the requested ties' id block only: the
    default build has ``2·|E_u|`` rows (both orientations of each
    undirected tie), not ``n_ties``.
    """
    rng = ensure_rng(seed)
    if tie_ids is None:
        tie_ids = network.ties_of_kind(TieKind.UNDIRECTED)
    tie_ids = np.asarray(tie_ids, dtype=np.int64)
    # The table spans the id block of the requested ties and their
    # reverses (see TriadNeighborhood), not every tie of the network.
    reverse = network.reverse_of[tie_ids]
    first = rows = 0
    if tie_ids.size:
        first = int(min(tie_ids.min(), reverse.min()))
        rows = int(max(tie_ids.max(), reverse.max())) + 1 - first

    # Tie ids (and counts <= gamma) fit the store's index width.
    uw = np.full((rows, gamma), -1, dtype=TIE_INDEX_DTYPE)
    vw = np.full((rows, gamma), -1, dtype=TIE_INDEX_DTYPE)
    counts = np.zeros(rows, dtype=TIE_INDEX_DTYPE)
    table = TriadNeighborhood(uw_ids=uw, vw_ids=vw, counts=counts, first=first)
    if tie_ids.size == 0:
        return table

    # One canonical tie per {e, reverse_of[e]} orbit, keeping the first
    # orientation encountered (matching the sequential done-set walk).
    orbit = np.minimum(tie_ids, reverse)
    _, first_seen = np.unique(orbit, return_index=True)
    canon = tie_ids[np.sort(first_seen)]
    rev = network.reverse_of[canon]
    u_all = network.tie_src[canon]
    v_all = network.tie_dst[canon]

    # The undirected CSR stores neighbours in (src, dst) key order, so
    # CSR position p *is* oriented tie key_order[p]: recovering the
    # (u, w) and (v, w) tie ids needs no hash lookups, and on a
    # MmapStore the key order is already on disk.
    offsets, targets = network._ensure_und_csr()  # noqa: SLF001
    csr_tie_ids = network.store.key_order()

    degree = np.asarray(offsets[1:]) - np.asarray(offsets[:-1])
    entries = np.cumsum(degree[u_all] + degree[v_all])
    start = 0
    while start < len(canon):
        consumed = int(entries[start - 1]) if start else 0
        stop = int(
            np.searchsorted(entries, consumed + chunk_entries, side="right")
        )
        stop = min(max(stop, start + 1), len(canon))
        _intersect_chunk(
            network, rng, table,
            canon[start:stop], rev[start:stop],
            u_all[start:stop], v_all[start:stop],
            offsets, targets, csr_tie_ids,
        )
        start = stop
    return table


def _intersect_chunk(
    network: MixedSocialNetwork,
    rng: np.random.Generator,
    table: TriadNeighborhood,
    canon: np.ndarray,
    rev: np.ndarray,
    u_nodes: np.ndarray,
    v_nodes: np.ndarray,
    offsets: np.ndarray,
    targets: np.ndarray,
    csr_tie_ids: np.ndarray,
) -> None:
    """Intersect one chunk of canonical pairs into ``table``'s rows."""
    pos_u, grp_u = _ragged_csr_rows(offsets, u_nodes)
    pos_v, grp_v = _ragged_csr_rows(offsets, v_nodes)
    grp = np.concatenate([grp_u, grp_v])
    nbr = np.concatenate([targets[pos_u], targets[pos_v]])
    side = np.concatenate(
        [np.zeros(len(pos_u), dtype=np.int8), np.ones(len(pos_v), dtype=np.int8)]
    )
    tids = csr_tie_ids[np.concatenate([pos_u, pos_v])]

    # Neighbour lists are per-node unique, so within one pair a node
    # appears at most once per side; after sorting by (pair, neighbour,
    # side), every common neighbour is exactly one adjacent (u-side,
    # v-side) duo.  The three keys pack injectively into one int64
    # (side is a bit, nbr < n_nodes), and a single stable argsort of
    # that composite is ~10x faster than the three-pass ``np.lexsort``;
    # the permutation is identical.  The u-side and v-side halves are
    # each already sorted, so the stable sort (timsort) is one linear
    # merge; the store's ``packed_argsort``, whose value sort ignores
    # existing order, is ~2x slower here.  Fall back for absurdly large
    # graphs where the packing could overflow.
    nbr_span = np.int64(network.n_nodes) + 1
    if len(canon) < np.iinfo(np.int64).max // (2 * nbr_span):
        key = (grp * nbr_span + nbr) * 2 + side
        order = np.argsort(key, kind="stable")
    else:  # pragma: no cover - > 2^31-node scale
        order = np.lexsort((side, nbr, grp))
    grp_s, nbr_s, side_s = grp[order], nbr[order], side[order]
    tids_s = tids[order]
    is_pair = (
        (grp_s[:-1] == grp_s[1:])
        & (nbr_s[:-1] == nbr_s[1:])
        & (side_s[:-1] == 0)
        & (side_s[1:] == 1)
    )
    hit = np.flatnonzero(is_pair)
    if hit.size:
        m_grp = grp_s[hit]
        m_uw = tids_s[hit]
        m_vw = tids_s[hit + 1]
        # Uniform sample without replacement: keep the gamma smallest
        # random keys within each pair's witness group.
        keys = rng.random(hit.size)
        order2 = np.lexsort((keys, m_grp))
        g = m_grp[order2]
        group_start = np.flatnonzero(
            np.concatenate([[True], g[1:] != g[:-1]])
        )
        group_len = np.diff(np.concatenate([group_start, [len(g)]]))
        slot = np.arange(len(g)) - np.repeat(group_start, group_len)
        keep = slot < table.gamma
        pair_k, slot_k = g[keep], slot[keep]
        uw_k, vw_k = m_uw[order2][keep], m_vw[order2][keep]

        uw, vw, counts = table.uw_ids, table.vw_ids, table.counts
        e_k, r_k = canon[pair_k] - table.first, rev[pair_k] - table.first
        uw[e_k, slot_k] = uw_k
        vw[e_k, slot_k] = vw_k
        # The reverse orientation (v, u) swaps the roles of u and v.
        uw[r_k, slot_k] = vw_k
        vw[r_k, slot_k] = uw_k
        kept_counts = np.bincount(pair_k, minlength=len(canon))
        counts[canon - table.first] = kept_counts
        counts[rev - table.first] = kept_counts


def triad_pseudo_labels(
    neighborhood: TriadNeighborhood,
    tie_ids: np.ndarray,
    predictions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``y^t_e`` (Eq. 15) for ``tie_ids`` from live classifier predictions.

    Parameters
    ----------
    neighborhood:
        Pre-sampled witnesses from :func:`build_triad_neighborhoods`.
    tie_ids:
        Oriented ties to label (typically the undirected ties of a batch).
    predictions:
        Current classifier score ``ȳ`` for *every* oriented tie
        (length ``n_ties``).

    Returns
    -------
    ``(labels, valid)`` — the pseudo-labels (0.5 placeholder where
    invalid) and a boolean mask marking ties with at least one witness.
    """
    uw, vw = neighborhood.witnesses(tie_ids)
    mask = uw >= 0
    y_uw = np.where(mask, predictions[np.maximum(uw, 0)], 0.0)
    y_vw = np.where(mask, predictions[np.maximum(vw, 0)], 0.0)
    denom = y_uw + y_vw
    votes = np.where(mask & (denom > 1e-12), y_uw / np.maximum(denom, 1e-12), 0.0)
    counts = mask.sum(axis=1)
    valid = counts > 0
    labels = np.where(
        valid, votes.sum(axis=1) / np.maximum(counts, 1), 0.5
    )
    return labels, valid
