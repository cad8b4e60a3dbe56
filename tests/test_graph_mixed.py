"""Unit tests for the mixed social network substrate (Definition 1)."""

import numpy as np
import pytest

from repro.graph import GraphValidationError, MixedSocialNetwork, TieKind


class TestConstruction:
    def test_fig1_example_shapes(self, tiny_network):
        assert tiny_network.n_nodes == 10
        assert tiny_network.n_directed == 7
        assert tiny_network.n_bidirectional == 4
        assert tiny_network.n_undirected == 3
        assert tiny_network.n_social_ties == 14
        # oriented: every social tie contributes both orientations
        assert tiny_network.n_ties == 28

    def test_empty_directed_rejected(self):
        with pytest.raises(GraphValidationError, match="requires"):
            MixedSocialNetwork(3, [], bidirectional_ties=[(0, 1)])

    def test_empty_directed_allowed_without_validate(self):
        net = MixedSocialNetwork(
            3, [], bidirectional_ties=[(0, 1)], validate=False
        )
        assert net.n_directed == 0
        assert net.n_ties == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError, match="self loops"):
            MixedSocialNetwork(3, [(0, 0)])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(GraphValidationError, match="outside"):
            MixedSocialNetwork(3, [(0, 5)])

    def test_overlapping_classes_rejected(self):
        with pytest.raises(GraphValidationError, match="disjoint"):
            MixedSocialNetwork(3, [(0, 1)], undirected_ties=[(1, 0)])

    def test_reciprocated_directed_pair_rejected(self):
        with pytest.raises(GraphValidationError, match="orientations"):
            MixedSocialNetwork(3, [(0, 1), (1, 0)])

    def test_duplicate_bidirectional_rejected(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            MixedSocialNetwork(3, [(0, 2)], bidirectional_ties=[(0, 1), (1, 0)])

    def test_nonpositive_nodes_rejected(self):
        with pytest.raises(GraphValidationError):
            MixedSocialNetwork(0, [(0, 1)])


_ORIENTATIONS = "E_d contains both orientations"
_DUPLICATES = "E_b or E_u contains duplicate ties"
_DISJOINT = "tie classes E_d, E_b, E_u must be disjoint"

#: Single-fault inputs ``(E_d, E_b, E_u)`` and the message each must
#: raise.  The store's one sorted-key check picks the message from the
#: colliding ties' classes.
_DUPLICATE_CASES = [
    (([(0, 1), (0, 1)], [], []), _ORIENTATIONS),
    (([(0, 1), (1, 0)], [], []), _ORIENTATIONS),
    (([(0, 2)], [(0, 1), (0, 1)], []), _DUPLICATES),
    (([(0, 2)], [(0, 1), (1, 0)], []), _DUPLICATES),
    (([(0, 2)], [], [(1, 3), (3, 1)]), _DUPLICATES),
    (([(0, 1)], [(1, 0)], []), _DISJOINT),
    (([(0, 1)], [], [(0, 1)]), _DISJOINT),
    (([(0, 2)], [(1, 3)], [(3, 1)]), _DISJOINT),
]


def _expanded(e_d, e_b, e_u):
    """The oriented ``[E_d fwd | E_d rev | E_b both | E_u both]`` columns."""
    blocks = []
    for pairs, kinds in (
        (e_d, (TieKind.DIRECTED, TieKind.DIRECTED_REVERSE)),
        (e_b, (TieKind.BIDIRECTIONAL, TieKind.BIDIRECTIONAL)),
        (e_u, (TieKind.UNDIRECTED, TieKind.UNDIRECTED)),
    ):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        for oriented, kind in ((pairs, kinds[0]), (pairs[:, ::-1], kinds[1])):
            blocks.append(
                np.column_stack([oriented, np.full(len(oriented), int(kind))])
            )
    table = np.concatenate(blocks)
    return table[:, 0], table[:, 1], table[:, 2]


class TestDuplicateMessages:
    @pytest.mark.parametrize("ties, message", _DUPLICATE_CASES)
    def test_constructor(self, ties, message):
        with pytest.raises(GraphValidationError, match=message):
            MixedSocialNetwork(4, *ties)

    @pytest.mark.parametrize("ties, message", _DUPLICATE_CASES)
    def test_from_arrays_without_validation(self, ties, message):
        arrays = [np.asarray(t, dtype=np.int64).reshape(-1, 2) for t in ties]
        with pytest.raises(GraphValidationError, match=message):
            MixedSocialNetwork.from_arrays(4, *arrays, validate=False)

    @pytest.mark.parametrize("ties, message", _DUPLICATE_CASES)
    def test_network_from_arrays(self, ties, message):
        from repro.serve import ArtifactError, network_from_arrays

        tie_src, tie_dst, tie_kind = _expanded(*ties)
        with pytest.raises(ArtifactError, match=message):
            network_from_arrays(tie_src, tie_dst, tie_kind, n_nodes=4)


class TestTieIndexing:
    def test_directed_reverse_materialised(self, triangle_network):
        net = triangle_network
        assert net.has_tie(0, 1) and net.has_tie(1, 0)
        assert net.tie_kind[net.tie_id(0, 1)] == int(TieKind.DIRECTED)
        assert net.tie_kind[net.tie_id(1, 0)] == int(TieKind.DIRECTED_REVERSE)

    def test_reverse_of_is_involution(self, tiny_network):
        rev = tiny_network.reverse_of
        assert np.array_equal(rev[rev], np.arange(tiny_network.n_ties))

    def test_reverse_of_swaps_endpoints(self, tiny_network):
        net = tiny_network
        for e in range(net.n_ties):
            r = net.reverse_of[e]
            assert net.tie_src[e] == net.tie_dst[r]
            assert net.tie_dst[e] == net.tie_src[r]

    def test_tie_id_roundtrip(self, tiny_network):
        net = tiny_network
        for e in range(net.n_ties):
            assert net.tie_id(net.tie_src[e], net.tie_dst[e]) == e

    def test_missing_tie_raises(self):
        net = MixedSocialNetwork(4, [(0, 1)])
        with pytest.raises(KeyError):
            net.tie_id(2, 3)

    def test_has_oriented_tie_excludes_directed_reverse(self, triangle_network):
        net = triangle_network
        assert net.has_oriented_tie(0, 1)
        assert not net.has_oriented_tie(1, 0)
        assert not net.has_oriented_tie(2, 0) or True  # (2,0) is a reverse
        assert net.has_tie(1, 0)  # but the expanded set has it

    def test_labels(self, triangle_network):
        labels = triangle_network.tie_labels()
        net = triangle_network
        assert labels[net.tie_id(0, 1)] == 1.0
        assert labels[net.tie_id(1, 0)] == 0.0

    def test_labels_nan_for_unlabeled(self, tiny_network):
        net = tiny_network
        labels = net.tie_labels()
        for u, v in net.social_ties(TieKind.UNDIRECTED):
            assert np.isnan(labels[net.tie_id(u, v)])
        for u, v in net.social_ties(TieKind.BIDIRECTIONAL):
            assert np.isnan(labels[net.tie_id(u, v)])

    def test_tie_ids_matches_scalar_lookup(self, tiny_network):
        net = tiny_network
        pairs = np.column_stack([net.tie_src, net.tie_dst])
        assert np.array_equal(net.tie_ids(pairs), np.arange(net.n_ties))

    def test_tie_ids_empty(self, tiny_network):
        ids = tiny_network.tie_ids(np.zeros((0, 2), dtype=np.int64))
        assert ids.shape == (0,)

    def test_tie_ids_bad_shape(self, tiny_network):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            tiny_network.tie_ids([[0, 1, 2]])

    def test_tie_ids_missing_raises_with_pair(self, tiny_network):
        with pytest.raises(KeyError, match=r"\(0, 9\)"):
            tiny_network.tie_ids([[0, 9]])

    def test_tie_ids_missing_ignore(self, tiny_network):
        net = tiny_network
        pairs = [[net.tie_src[3], net.tie_dst[3]], [0, 9]]
        ids = net.tie_ids(pairs, missing="ignore")
        assert ids[0] == 3
        assert ids[1] == -1

    def test_tie_ids_out_of_range_node(self, tiny_network):
        with pytest.raises(KeyError):
            tiny_network.tie_ids([[0, 99]])
        ids = tiny_network.tie_ids([[-1, 5]], missing="ignore")
        assert ids[0] == -1


class TestDegrees:
    def test_mixed_degree_halves(self):
        # (0,1) directed, (1,2) undirected: node 1 has out = 1/2, in = 1 + 1/2
        net = MixedSocialNetwork(3, [(0, 1)], undirected_ties=[(1, 2)])
        out_deg, in_deg = net.out_degrees(), net.in_degrees()
        assert out_deg[1] == pytest.approx(0.5)
        assert in_deg[1] == pytest.approx(1.5)
        assert out_deg[0] == pytest.approx(1.0)
        assert in_deg[0] == pytest.approx(0.0)

    def test_bidirectional_counts_full(self):
        net = MixedSocialNetwork(3, [(0, 2)], bidirectional_ties=[(0, 1)])
        assert net.out_degrees()[0] == pytest.approx(2.0)
        assert net.in_degrees()[0] == pytest.approx(1.0)

    def test_total_degree_sum(self, tiny_network):
        # Directed and undirected ties contribute 2 to the summed total
        # degree; bidirectional ties (two orientations at full weight)
        # contribute 4.
        expected = 2 * (
            tiny_network.n_directed + tiny_network.n_undirected
        ) + 4 * tiny_network.n_bidirectional
        assert tiny_network.degrees().sum() == pytest.approx(expected)


class TestConnectedTies:
    def test_definition4_excludes_back_tie(self, triangle_network):
        net = triangle_network
        e01 = net.tie_id(0, 1)
        successors = net.connected_ties(e01)
        # out-ties of 1 are (1,2) and (1,0); (1,0) is the back-tie
        assert set(successors) == {net.tie_id(1, 2), net.tie_id(1, 0)} - {
            net.tie_id(1, 0)
        }

    def test_tie_degree_matches_connected_count(self, tiny_network):
        net = tiny_network
        degrees = net.tie_degrees()
        for e in range(net.n_ties):
            assert degrees[e] == len(net.connected_ties(e))

    def test_connected_pair_count(self, tiny_network):
        net = tiny_network
        assert net.connected_pair_count() == sum(
            len(net.connected_ties(e)) for e in range(net.n_ties)
        )


class TestNeighbors:
    def test_neighbors_orientation_blind(self, triangle_network):
        assert set(triangle_network.neighbors(1)) == {0, 2}

    def test_common_neighbors(self, triangle_network):
        assert list(triangle_network.common_neighbors(0, 2)) == [1]

    def test_common_neighbors_fig1(self, tiny_network):
        # b(1) and d(3): common neighbour is f(5)
        assert list(tiny_network.common_neighbors(1, 3)) == [5]


class TestExport:
    def test_social_ties_roundtrip(self, tiny_network):
        net = tiny_network
        assert len(net.social_ties(TieKind.DIRECTED)) == 7
        assert len(net.social_ties(TieKind.BIDIRECTIONAL)) == 4
        assert len(net.social_ties(TieKind.UNDIRECTED)) == 3

    def test_adjacency_matrix_unweighted(self, triangle_network):
        dense = triangle_network.adjacency_matrix().toarray()
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 2] = expected[0, 2] = 1
        assert np.array_equal(dense, expected)

    def test_adjacency_matrix_directionality(self):
        net = MixedSocialNetwork(3, [(0, 2)], bidirectional_ties=[(0, 1)])
        scores = np.zeros(net.n_ties)
        scores[net.tie_id(0, 1)] = 0.7
        scores[net.tie_id(1, 0)] = 0.3
        dense = net.adjacency_matrix(directionality=scores).toarray()
        assert dense[0, 1] == pytest.approx(0.7)
        assert dense[1, 0] == pytest.approx(0.3)
        assert dense[0, 2] == pytest.approx(1.0)  # directed ties keep 1

    def test_to_networkx(self, tiny_network):
        g = tiny_network.to_networkx()
        assert g.number_of_nodes() == 10
        # directed ties appear once; bidirectional and undirected twice
        assert g.number_of_edges() == 7 + 2 * 4 + 2 * 3
        assert g[3][0]["kind"] == "directed"  # the (d, a) tie
