"""Unit tests for the directionality-pattern pseudo-labels (Eqs. 14-15)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import (
    build_triad_neighborhoods,
    degree_pseudo_labels,
    triad_pseudo_labels,
)
from repro.graph import MixedSocialNetwork, TieKind
from repro.graph.store import TIE_INDEX_DTYPE

from .test_properties_graph import mixed_networks


class TestDegreePseudoLabels:
    def test_points_at_higher_degree(self):
        """Definition 5: the pseudo-label favours the high-degree target."""
        # hub 2 with three ties; leaf 0 with one
        net = MixedSocialNetwork(
            4, [(2, 3), (2, 1)], undirected_ties=[(0, 2)]
        )
        labels = degree_pseudo_labels(net)
        forward = labels[net.tie_id(0, 2)]  # toward the hub
        backward = labels[net.tie_id(2, 0)]
        assert forward > 0.5 > backward
        assert forward + backward == pytest.approx(1.0)

    def test_antisymmetric(self, small_dataset):
        labels = degree_pseudo_labels(small_dataset)
        rev = small_dataset.reverse_of
        assert np.allclose(labels + labels[rev], 1.0)

    def test_range(self, small_dataset):
        labels = degree_pseudo_labels(small_dataset)
        assert np.all(labels >= 0) and np.all(labels <= 1)


class TestTriadNeighborhoods:
    def test_witness_ties_exist(self, discovery_task):
        net = discovery_task.network
        triads = build_triad_neighborhoods(net, gamma=4, seed=0)
        mask = triads.uw_ids >= 0
        assert np.array_equal(mask, triads.vw_ids >= 0)
        assert triads.gamma == 4
        # counts agree with padding
        assert np.array_equal(triads.counts, mask.sum(axis=1))

    def test_witnesses_are_common_neighbors(self, discovery_task):
        net = discovery_task.network
        triads = build_triad_neighborhoods(net, gamma=4, seed=0)
        undirected = net.ties_of_kind(TieKind.UNDIRECTED)[:20]
        for e in undirected:
            u, v = int(net.tie_src[e]), int(net.tie_dst[e])
            common = set(net.common_neighbors(u, v))
            row = e - triads.first
            for slot in range(triads.gamma):
                uw = triads.uw_ids[row, slot]
                if uw < 0:
                    continue
                w = int(net.tie_dst[uw])
                assert int(net.tie_src[uw]) == u
                assert w in common
                vw = triads.vw_ids[row, slot]
                assert int(net.tie_src[vw]) == v
                assert int(net.tie_dst[vw]) == w

    def test_reverse_orientation_swaps_roles(self, discovery_task):
        net = discovery_task.network
        triads = build_triad_neighborhoods(net, gamma=4, seed=0)
        undirected = net.ties_of_kind(TieKind.UNDIRECTED)
        for e in undirected[:10]:
            r = int(net.reverse_of[e])
            e_row, r_row = e - triads.first, r - triads.first
            assert np.array_equal(triads.uw_ids[e_row], triads.vw_ids[r_row])
            assert np.array_equal(triads.vw_ids[e_row], triads.uw_ids[r_row])

    def test_gamma_respected(self, discovery_task):
        net = discovery_task.network
        triads = build_triad_neighborhoods(net, gamma=2, seed=0)
        assert triads.counts.max() <= 2

    @pytest.mark.parametrize("budget", [1, 7, 100])
    def test_chunked_build_is_bit_identical(self, discovery_task, budget):
        """Bounding the intersection's memory must not change the draw.

        Chunking splits the ``rng.random`` witness keys across chunks;
        numpy ``Generator`` streams are stable under splitting and hits
        keep their global order, so every budget — down to one entry
        per chunk — reproduces the monolithic build exactly.
        """
        net = discovery_task.network
        ref = build_triad_neighborhoods(
            net, gamma=3, seed=np.random.default_rng(5)
        )
        out = build_triad_neighborhoods(
            net, gamma=3, seed=np.random.default_rng(5),
            chunk_entries=budget,
        )
        assert np.array_equal(ref.uw_ids, out.uw_ids)
        assert np.array_equal(ref.vw_ids, out.vw_ids)
        assert np.array_equal(ref.counts, out.counts)


def _reference_witnesses(net, tie_ids) -> dict[int, set[tuple[int, int]]]:
    """Full-width reference: every ``(uw, vw)`` witness duo of each
    requested tie and its reverse, keyed by tie id."""
    ref = {}
    for e in np.concatenate([tie_ids, net.reverse_of[tie_ids]]):
        u, v = int(net.tie_src[e]), int(net.tie_dst[e])
        ref[int(e)] = {
            (net.tie_id(u, w), net.tie_id(v, w))
            for w in net.common_neighbors(u, v)
        }
    return ref


def _full_width(table, n_ties: int) -> tuple[np.ndarray, np.ndarray]:
    """The compact table's rows placed at their tie ids."""
    uw = np.full((n_ties, table.gamma), -1, dtype=table.uw_ids.dtype)
    vw = uw.copy()
    rows = slice(table.first, table.first + len(table.counts))
    uw[rows], vw[rows] = table.uw_ids, table.vw_ids
    return uw, vw


def _old_triad_labels(uw, vw, tie_ids, predictions):
    """Eq. 15 on a full-width table indexed by tie id (the layout the
    compact table replaced)."""
    uw, vw = uw[tie_ids], vw[tie_ids]
    mask = uw >= 0
    y_uw = np.where(mask, predictions[np.maximum(uw, 0)], 0.0)
    y_vw = np.where(mask, predictions[np.maximum(vw, 0)], 0.0)
    denom = y_uw + y_vw
    votes = np.where(
        mask & (denom > 1e-12), y_uw / np.maximum(denom, 1e-12), 0.0
    )
    counts = mask.sum(axis=1)
    valid = counts > 0
    labels = np.where(valid, votes.sum(axis=1) / np.maximum(counts, 1), 0.5)
    return labels, valid


class TestCompactTriadTable:
    """Rows for the requested ties' id block only, looked up by tie id."""

    @staticmethod
    def _requests(net):
        return {
            "undirected": None,
            "all_ties": np.arange(net.n_ties),  # ReDirect's request
        }

    @given(
        net=mixed_networks(), gamma=st.integers(1, 4), seed=st.integers(0, 9)
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_width_reference(self, net, gamma, seed):
        for name, request in self._requests(net).items():
            table = build_triad_neighborhoods(
                net, gamma=gamma, seed=seed, tie_ids=request
            )
            ids = (net.ties_of_kind(TieKind.UNDIRECTED)
                   if request is None else request)
            if name == "all_ties":
                assert table.first == 0 and len(table.counts) == net.n_ties
            elif ids.size:
                # E_u is one contiguous id block of the store layout.
                assert table.first == ids.min()
                assert len(table.counts) == ids.size
            rows = len(table.counts)
            for arr in (table.uw_ids, table.vw_ids):
                assert arr.dtype == TIE_INDEX_DTYPE
                assert arr.nbytes == rows * gamma * 4

            reference = _reference_witnesses(net, ids)
            uw, vw = table.witnesses(np.arange(net.n_ties))
            for e in range(net.n_ties):
                got = {
                    (int(a), int(b)) for a, b in zip(uw[e], vw[e]) if a >= 0
                }
                assert len(got) == int((uw[e] >= 0).sum())
                want = reference.get(e, set())
                assert got <= want
                assert len(got) == min(len(want), gamma)
                if e - table.first in range(rows):
                    assert table.counts[e - table.first] == len(got)

    @given(net=mixed_networks(), seed=st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_pseudo_labels_match_full_width_layout(self, net, seed):
        predictions = np.random.default_rng(seed).random(net.n_ties)
        every_tie = np.arange(net.n_ties)
        for request in self._requests(net).values():
            table = build_triad_neighborhoods(
                net, gamma=3, seed=seed, tie_ids=request
            )
            uw, vw = _full_width(table, net.n_ties)
            labels, valid = triad_pseudo_labels(table, every_tie, predictions)
            want_labels, want_valid = _old_triad_labels(
                uw, vw, every_tie, predictions
            )
            assert np.array_equal(valid, want_valid)
            assert np.array_equal(labels, want_labels)

    def test_default_table_holds_undirected_rows_only(self, discovery_task):
        net = discovery_task.network
        table = build_triad_neighborhoods(net, gamma=5, seed=0)
        rows = len(net.ties_of_kind(TieKind.UNDIRECTED))
        assert rows < net.n_ties
        assert table.uw_ids.nbytes == rows * 5 * 4
        assert table.vw_ids.nbytes == rows * 5 * 4
        # Directed ties sit outside the block: no witnesses.
        directed = net.ties_of_kind(TieKind.DIRECTED)
        uw, vw = table.witnesses(directed)
        assert np.all(uw == -1) and np.all(vw == -1)


class TestTriadPseudoLabels:
    def test_eq15_single_witness(self):
        """Hand-computed Eq. 15 on a 3-node triangle with one witness."""
        net = MixedSocialNetwork(
            3, [(0, 2)], bidirectional_ties=[(1, 2)], undirected_ties=[(0, 1)]
        )
        triads = build_triad_neighborhoods(net, gamma=3, seed=0)
        predictions = np.zeros(net.n_ties)
        predictions[net.tie_id(0, 2)] = 0.9   # ȳ_uw with w = 2
        predictions[net.tie_id(1, 2)] = 0.3   # ȳ_vw
        e = np.array([net.tie_id(0, 1)])
        labels, valid = triad_pseudo_labels(triads, e, predictions)
        assert valid[0]
        assert labels[0] == pytest.approx(0.9 / (0.9 + 0.3))

    def test_no_witnesses_invalid(self):
        net = MixedSocialNetwork(4, [(0, 1)], undirected_ties=[(2, 3)])
        triads = build_triad_neighborhoods(net, gamma=3, seed=0)
        e = np.array([net.tie_id(2, 3)])
        labels, valid = triad_pseudo_labels(triads, e, np.zeros(net.n_ties))
        assert not valid[0]
        assert labels[0] == pytest.approx(0.5)

    def test_antisymmetric_votes(self, discovery_task, rng):
        net = discovery_task.network
        triads = build_triad_neighborhoods(net, gamma=5, seed=0)
        predictions = rng.random(net.n_ties)
        undirected = net.ties_of_kind(TieKind.UNDIRECTED)
        reverse = net.reverse_of[undirected]
        fwd, valid_f = triad_pseudo_labels(triads, undirected, predictions)
        bwd, valid_b = triad_pseudo_labels(triads, reverse, predictions)
        assert np.array_equal(valid_f, valid_b)
        mask = valid_f
        assert np.allclose(fwd[mask] + bwd[mask], 1.0)
