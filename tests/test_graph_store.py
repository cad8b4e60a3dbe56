"""Unit and property tests for the graph storage backends.

The `GraphStore` contract promises that `InMemoryStore` and
`MmapStore` are value-identical for the same graph: every column,
every derived structure, and the content fingerprint.  These tests
round-trip hypothesis-generated mixed networks through the on-disk
store and compare all accessors, check that memory-mapped slices are
immutable, that truncated or tampered store files raise clear
`GraphValidationError`s, and that training trajectories are
bit-identical whichever backend the network sits on.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import DeepDirectConfig, DeepDirectEmbedding
from repro.graph import (
    GraphValidationError,
    InMemoryStore,
    MixedSocialNetwork,
    MmapStore,
    PairChunkBuffer,
    open_store,
    tie_fingerprint,
    write_store,
)
from repro.graph.store import STORE_META, STORE_SCHEMA, _STORE_ARRAYS
from repro.obs import network_fingerprint


@st.composite
def mixed_networks(draw):
    """Random valid mixed social networks (up to 12 nodes)."""
    n_nodes = draw(st.integers(min_value=3, max_value=12))
    pairs = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs), min_size=1, max_size=len(pairs),
            unique=True,
        )
    )
    kinds = draw(
        st.lists(
            st.sampled_from(["d", "d_rev", "b", "u"]),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    directed, bidirectional, undirected = [], [], []
    for (u, v), kind in zip(chosen, kinds):
        if kind == "d":
            directed.append((u, v))
        elif kind == "d_rev":
            directed.append((v, u))
        elif kind == "b":
            bidirectional.append((u, v))
        else:
            undirected.append((u, v))
    if not directed:
        directed.append(
            bidirectional.pop() if bidirectional else undirected.pop()
        )
    return MixedSocialNetwork(n_nodes, directed, bidirectional, undirected)


def _assert_stores_equal(mem, mmap):
    assert mem.n_nodes == mmap.n_nodes
    assert mem.n_directed == mmap.n_directed
    assert mem.n_bidirectional == mmap.n_bidirectional
    assert mem.n_undirected == mmap.n_undirected
    assert mem.n_ties == mmap.n_ties
    assert np.array_equal(mem.tie_src, mmap.tie_src)
    assert np.array_equal(mem.tie_dst, mmap.tie_dst)
    assert np.array_equal(mem.tie_kind, mmap.tie_kind)
    assert np.array_equal(mem.reverse_of, mmap.reverse_of)
    for a, b in zip(mem.out_csr(), mmap.out_csr()):
        assert np.array_equal(a, b)
    for a, b in zip(mem.und_csr(), mmap.und_csr()):
        assert np.array_equal(a, b)
    for a, b in zip(mem.tie_key_index(), mmap.tie_key_index()):
        assert np.array_equal(a, b)
    assert np.array_equal(mem.key_order(), mmap.key_order())
    assert np.array_equal(mem.tie_degrees(), mmap.tie_degrees())
    assert mem.fingerprint() == mmap.fingerprint()


@given(mixed_networks())
@settings(max_examples=25, deadline=None)
def test_mmap_store_matches_in_memory_on_all_accessors(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_store(net.store, Path(tmp) / "graph.store")
        _assert_stores_equal(net.store, open_store(path))


@given(mixed_networks())
@settings(max_examples=25, deadline=None)
def test_network_facade_is_backend_agnostic(net):
    with tempfile.TemporaryDirectory() as tmp:
        restored = MixedSocialNetwork.from_store(
            net.save_store(Path(tmp) / "graph.store")
        )
        assert restored.n_ties == net.n_ties
        assert np.array_equal(restored.tie_src, net.tie_src)
        assert np.array_equal(restored.reverse_of, net.reverse_of)
        assert np.array_equal(restored.tie_degrees(), net.tie_degrees())
        assert np.array_equal(restored.degrees(), net.degrees())
        pairs = np.column_stack([net.tie_src, net.tie_dst])
        assert np.array_equal(restored.tie_ids(pairs), net.tie_ids(pairs))
        for node in range(net.n_nodes):
            assert np.array_equal(
                np.sort(restored.neighbors(node)),
                np.sort(net.neighbors(node)),
            )


@pytest.fixture
def store_dir(tiny_network, tmp_path):
    return tiny_network.save_store(tmp_path / "graph.store")


def test_mmap_arrays_are_immutable(store_dir):
    store = open_store(store_dir)
    for array in (store.tie_src, store.tie_dst, store.tie_kind,
                  store.reverse_of, store.out_csr()[1], store.und_csr()[1]):
        assert not array.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            array[0] = 99


def test_in_memory_arrays_are_immutable(tiny_network):
    store = tiny_network.store
    assert isinstance(store, InMemoryStore)
    for array in (store.tie_src, store.tie_dst, store.tie_kind,
                  store.reverse_of):
        with pytest.raises((ValueError, RuntimeError)):
            array[0] = 99


def test_store_fingerprint_is_dtype_independent(tiny_network):
    src64 = tiny_network.tie_src.astype(np.int64)
    dst64 = tiny_network.tie_dst.astype(np.int64)
    kind64 = tiny_network.tie_kind.astype(np.int64)
    assert tie_fingerprint(
        tiny_network.n_nodes, src64, dst64, kind64
    ) == tiny_network.store.fingerprint()


def test_store_fingerprint_matches_manifest_fingerprint(tiny_network):
    assert (
        network_fingerprint(tiny_network)["fingerprint"]
        == tiny_network.store.fingerprint()
    )


# -- corruption ---------------------------------------------------------


def test_missing_meta_is_not_a_store(tmp_path):
    with pytest.raises(GraphValidationError, match="not a graph store"):
        open_store(tmp_path / "nowhere")


def test_wrong_schema_rejected(store_dir):
    meta_path = store_dir / STORE_META
    meta = json.loads(meta_path.read_text())
    meta["schema"] = "repro_graphstore/v999"
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(GraphValidationError, match="unsupported"):
        open_store(store_dir)


def test_missing_array_file_rejected(store_dir):
    (store_dir / "reverse_of.npy").unlink()
    with pytest.raises(GraphValidationError, match="reverse_of"):
        open_store(store_dir)


def test_truncated_array_rejected(store_dir):
    target = store_dir / "tie_src.npy"
    target.write_bytes(target.read_bytes()[:-16])
    with pytest.raises(
        GraphValidationError, match="truncated or tampered"
    ):
        open_store(store_dir)


def test_tampered_bytes_rejected(store_dir):
    target = store_dir / "tie_dst.npy"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0xFF
    target.write_bytes(raw)
    with pytest.raises(GraphValidationError, match="SHA-256"):
        open_store(store_dir)


def test_tampered_bytes_pass_without_verify(store_dir):
    # verify=False documents the trade-off: bit flips that keep
    # dtype/shape intact are NOT caught.
    target = store_dir / "tie_dst.npy"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0x01
    target.write_bytes(raw)
    open_store(store_dir, verify=False)


def test_inconsistent_counts_rejected(store_dir):
    meta_path = store_dir / STORE_META
    meta = json.loads(meta_path.read_text())
    meta["n_directed"] += 1
    for spec in meta["arrays"].values():
        spec.pop("sha256", None)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(GraphValidationError, match="inconsistent"):
        open_store(store_dir)


def test_manifest_lists_every_array(store_dir):
    meta = json.loads((store_dir / STORE_META).read_text())
    assert meta["schema"] == STORE_SCHEMA
    assert set(meta["arrays"]) == set(_STORE_ARRAYS)
    assert meta["fingerprint"].startswith("sha256:")


def test_eager_open_still_validates(store_dir):
    store = open_store(store_dir, mmap=False)
    assert isinstance(store, MmapStore)
    assert not store.tie_src.flags.writeable


# -- constructor surface ------------------------------------------------


def _legacy_derived(store) -> dict[str, np.ndarray]:
    """The formulas the store used before deriving from the key order."""
    src, dst = np.asarray(store.tie_src), np.asarray(store.tie_dst)
    keys = src.astype(np.int64) * store.n_nodes + dst
    return {
        "out_order": np.argsort(src, kind="stable"),
        "und_targets": dst[np.lexsort((dst, src))],
        "key_order": np.argsort(keys, kind="stable"),
    }


def _assert_derived_match_legacy(store):
    legacy = _legacy_derived(store)
    assert np.array_equal(store.out_csr()[1], legacy["out_order"])
    assert np.array_equal(store.und_csr()[1], legacy["und_targets"])
    assert np.array_equal(store.tie_key_index()[1], legacy["key_order"])
    assert np.array_equal(store.key_order(), legacy["key_order"])


@given(mixed_networks())
@settings(max_examples=25, deadline=None)
def test_derived_arrays_match_legacy_sorts(net):
    _assert_derived_match_legacy(net.store)


def test_derived_arrays_match_legacy_sorts_at_scale():
    # Large enough that numpy's unstable sorts leave their insertion-sort
    # base case: uniqueness of the keys, not luck, must make them exact.
    rng = np.random.default_rng(7)
    n = 4000
    u, v = rng.integers(0, n, size=(2, 150_000))
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    pairs = np.column_stack([keys // n, keys % n])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs[::2] = pairs[::2, ::-1]  # mix directed orientations
    third = len(pairs) // 3
    net = MixedSocialNetwork.from_arrays(
        n, pairs[:third], pairs[third : 2 * third], pairs[2 * third :]
    )
    _assert_derived_match_legacy(net.store)


def test_from_arrays_equals_tuple_constructor(tiny_network):
    from repro.graph import TieKind

    rebuilt = MixedSocialNetwork.from_arrays(
        tiny_network.n_nodes,
        directed=tiny_network.social_ties(TieKind.DIRECTED),
        bidirectional=tiny_network.social_ties(TieKind.BIDIRECTIONAL),
        undirected=tiny_network.social_ties(TieKind.UNDIRECTED),
    )
    assert np.array_equal(rebuilt.tie_src, tiny_network.tie_src)
    assert np.array_equal(rebuilt.tie_kind, tiny_network.tie_kind)


def test_large_tuple_iterables_warn(monkeypatch):
    from repro.graph import mixed_graph

    monkeypatch.setattr(mixed_graph, "_LARGE_ITERABLE_WARN", 2)
    with pytest.warns(DeprecationWarning, match="from_arrays"):
        MixedSocialNetwork(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def test_small_tuple_iterables_do_not_warn(recwarn):
    MixedSocialNetwork(3, [(0, 1)], [(1, 2)])
    assert not [
        w for w in recwarn if issubclass(w.category, DeprecationWarning)
    ]


# -- PairChunkBuffer ----------------------------------------------------


def test_pair_chunk_buffer_roundtrip(rng):
    pairs = rng.integers(0, 1000, size=(5000, 2))
    buf = PairChunkBuffer(chunk_rows=64)
    for u, v in pairs[:100]:
        buf.append(int(u), int(v))
    buf.extend(pairs[100:])
    assert len(buf) == len(pairs)
    out = buf.finalize()
    assert out.dtype == np.int32
    assert np.array_equal(out, pairs)
    assert not out.flags.writeable


def test_pair_chunk_buffer_spills_to_disk(rng):
    pairs = rng.integers(0, 100, size=(2000, 2))
    buf = PairChunkBuffer(chunk_rows=128, spill_rows=256)
    buf.extend(pairs)
    out = buf.finalize()
    assert isinstance(out, np.memmap)
    assert np.array_equal(np.asarray(out), pairs)


def test_pair_chunk_buffer_empty():
    out = PairChunkBuffer().finalize()
    assert out.shape == (0, 2)
    assert out.dtype == np.int32


# -- training equivalence -----------------------------------------------


def test_training_trajectory_identical_across_backends(tmp_path):
    from repro.datasets import GeneratorConfig, generate_social_network

    net = generate_social_network(
        GeneratorConfig(n_nodes=120, ties_per_node=5), seed=11
    )
    stored = MixedSocialNetwork.from_store(
        net.save_store(tmp_path / "graph.store")
    )
    config = DeepDirectConfig(
        dimensions=8, epochs=1.0, alpha=5.0, beta=0.1, max_pairs=20_000
    )
    mem = DeepDirectEmbedding(config).fit(net, seed=42)
    mmap = DeepDirectEmbedding(config).fit(stored, seed=42)
    assert np.array_equal(mem.embeddings, mmap.embeddings)
    assert np.array_equal(mem.contexts, mmap.contexts)
    assert np.array_equal(mem.classifier_weights, mmap.classifier_weights)
    assert mem.classifier_bias == mmap.classifier_bias
    assert mem.loss_history == mmap.loss_history
