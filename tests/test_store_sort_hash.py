"""Packed sorts and copy-free fingerprints of the graph store.

The store sorts tie keys by packing each tie id into the low bits of
its key and value-sorting the result, and fingerprints its columns by
widening fixed blocks into one reused buffer.  Both must reproduce the
plain formulas they replace bit for bit: the reference formulas
(``np.argsort`` and the one-shot ``ascontiguousarray(int64).tobytes()``
digest) are written out in these tests, and the golden store's
per-array SHA-256s are pinned as literals.  The serving path must hash
each loaded graph exactly once and still refuse tampered tie arrays.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    InMemoryStore,
    MixedSocialNetwork,
    read_tie_list,
    tie_fingerprint,
)
from repro.graph import store as store_module
from repro.graph.store import packed_argsort
from repro.models import HFModel
from repro.serve import (
    ArtifactError,
    ScoringEngine,
    load_model_artifact,
    save_model_artifact,
)

from .test_graph_io import GOLDEN
from .test_graph_store import mixed_networks

BLOCK = store_module._HASH_BLOCK


def _one_shot_fingerprint(n_nodes, *columns) -> str:
    """The digest formula the block-wise hash must reproduce."""
    digest = hashlib.sha256()
    digest.update(str(int(n_nodes)).encode("utf-8"))
    for array in columns:
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return f"sha256:{digest.hexdigest()}"


def _fresh_store(net: MixedSocialNetwork) -> InMemoryStore:
    """A store rebuilt from ``net``'s columns (derived caches empty)."""
    store = net.store
    return InMemoryStore(
        store.n_nodes, store.tie_src, store.tie_dst, store.tie_kind,
        store.reverse_of, store.n_directed, store.n_bidirectional,
        store.n_undirected,
    )


# -- packed sort ----------------------------------------------------------


@given(
    st.lists(st.integers(min_value=-5, max_value=2**40), max_size=200),
)
@settings(max_examples=100, deadline=None)
def test_packed_argsort_is_stable_argsort(values):
    keys = np.array(values, dtype=np.int64)
    expected = np.argsort(keys, kind="stable")
    sorted_keys, order = packed_argsort(keys.copy())
    assert order.dtype == np.int64
    assert np.array_equal(order, expected)
    assert np.array_equal(sorted_keys, keys[expected])


@pytest.mark.parametrize("wide", [2**60, -(2**62)])
def test_packed_argsort_wide_keys_fall_back(wide):
    # |wide| needs 61+ bits; 16 ids need 4 more, past the 63-bit budget.
    keys = np.array([wide, 3, wide, 0] * 4, dtype=np.int64)
    sorted_keys, order = packed_argsort(keys.copy())
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert np.array_equal(sorted_keys, np.sort(keys))


@pytest.mark.parametrize("pack_bits", [store_module._PACK_BITS, 0])
@given(net=mixed_networks())
@settings(max_examples=25, deadline=None)
def test_store_sorts_equal_argsort(net, pack_bits):
    with pytest.MonkeyPatch.context() as patch:
        # 0 bits forces the argsort fallback on every multi-tie graph.
        patch.setattr(store_module, "_PACK_BITS", pack_bits)
        store = _fresh_store(net)
        sorted_keys, order = store.tie_key_index()
        out_order = store.out_csr()[1]
    src = np.asarray(store.tie_src).astype(np.int64)
    keys = src * store.n_nodes + np.asarray(store.tie_dst)
    key_order = np.argsort(keys)
    assert np.array_equal(order, key_order)
    assert np.array_equal(sorted_keys, keys[key_order])
    assert np.array_equal(store.key_order(), key_order)
    composite = src * store.n_ties + np.arange(store.n_ties)
    assert np.array_equal(out_order, np.argsort(composite))


# -- fingerprint ----------------------------------------------------------


@pytest.mark.parametrize("length", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("dtype", [np.int32, np.int64, "memmap"])
def test_block_fingerprint_equals_one_shot(length, dtype, tmp_path):
    rng = np.random.default_rng(length)
    columns = [
        rng.integers(0, 2**31 - 1, size=length),
        rng.integers(0, 2**31 - 1, size=length),
        rng.integers(0, 4, size=length),
    ]
    if dtype == "memmap":
        mapped = []
        for i, column in enumerate(columns):
            np.save(tmp_path / f"c{i}.npy", column.astype(np.int32))
            mapped.append(np.load(tmp_path / f"c{i}.npy", mmap_mode="r"))
        columns = mapped
    else:
        columns = [column.astype(dtype) for column in columns]
    assert tie_fingerprint(77, *columns) == _one_shot_fingerprint(
        77, *columns
    )


def test_fingerprint_golden_literal():
    assert tie_fingerprint(
        3, np.arange(5), np.arange(5)[::-1], np.zeros(5, np.int8)
    ) == (
        "sha256:033a40ca43223e4ea4b67c5dcac9714363b764da1a7d8da1c346e8c3ba2b5187"
    )


def test_golden_store_is_byte_identical(tmp_path):
    net = read_tie_list(GOLDEN)
    net.save_store(tmp_path / "store")
    meta = json.loads((tmp_path / "store" / "store.json").read_text())
    assert meta["fingerprint"] == (
        "sha256:9c0fde9552fc4a35d5cf4a256677851cdeecf323f5b6892147d540efa31b90d0"
    )
    assert {name: spec["sha256"] for name, spec in meta["arrays"].items()} == {
        "key_order": "ffbc3aa5fa0daf0e613914f966d4a2ac9b30674c4943b92c7d677e497deff06c",
        "out_indptr": "f5597f7e1f7a6c8e87f59d123bb1823f2dac1d9ad63caf125bf6cf515508dcbb",
        "out_order": "15142c9faa0cd57abd9dd73801ba2f607f1796e52529e4b063cdaaab4179d743",
        "reverse_of": "4b1dd3ebda932d56fdbb058b0a4a31086d6a5221d0576a29703acee7324de53e",
        "tie_dst": "17b3c0064a9620a09689e9b1c2367cb4dfabccd7d5e81f97366df0aa54388877",
        "tie_kind": "235c72994b3eacf56fe495c7ff767fe417a798d1135c6c7ab9dc43b8863ba5c6",
        "tie_src": "2d4ae3376b9f46d2f6a5932ec89f33b41f57a6473bb880d295c67ed41ff88983",
        "und_targets": "afbabe37770259d91ee873c334a3ce128f359ff922bc6fdabe24c24519337d80",
    }
    # Each per-array digest is the SHA-256 of the whole file on disk.
    for name, spec in meta["arrays"].items():
        data = (tmp_path / "store" / f"{name}.npy").read_bytes()
        assert hashlib.sha256(data).hexdigest() == spec["sha256"], name


# -- serving cold start ---------------------------------------------------


@pytest.fixture
def hf_bundle(discovery_task, tmp_path):
    bundle = tmp_path / "bundle"
    save_model_artifact(HFModel().fit(discovery_task.network, seed=0), bundle)
    return bundle


def test_load_and_engine_hash_once(hf_bundle, monkeypatch):
    calls = []
    original = store_module.tie_fingerprint

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(store_module, "tie_fingerprint", counting)
    engine = ScoringEngine(load_model_artifact(hf_bundle))
    assert len(calls) == 1
    meta = json.loads((hf_bundle / "artifact.json").read_text())
    assert engine.fingerprint == meta["dataset"]["fingerprint"]


def test_tampered_tie_dst_entry_rejected(hf_bundle):
    path = hf_bundle / "weights" / "network_tie_dst.npy"
    dst = np.load(path)
    n_nodes = json.loads((hf_bundle / "artifact.json").read_text())[
        "dataset"
    ]["n_nodes"]
    dst[0] = (dst[0] + 1) % n_nodes
    np.save(path, dst)
    with pytest.raises(ArtifactError):
        load_model_artifact(hf_bundle)


def test_consistently_rewired_tie_fails_the_fingerprint(hf_bundle):
    """A tie moved in both orientations still forms a valid network, so
    only the fingerprint comparison can catch it."""
    weights = hf_bundle / "weights"
    src = np.load(weights / "network_tie_src.npy")
    dst = np.load(weights / "network_tie_dst.npy")
    kind = np.load(weights / "network_tie_kind.npy")
    nd = int(np.count_nonzero(kind == 0))
    n_nodes = json.loads((hf_bundle / "artifact.json").read_text())[
        "dataset"
    ]["n_nodes"]
    u, v = int(src[0]), int(dst[0])
    taken = set(zip(src.tolist(), dst.tolist()))
    w = next(
        w for w in range(n_nodes)
        if w != u and (u, w) not in taken and (w, u) not in taken
    )
    assert dst[nd] == u and src[nd] == v  # the reverse of tie 0
    dst[0], src[nd] = w, w
    np.save(weights / "network_tie_src.npy", src)
    np.save(weights / "network_tie_dst.npy", dst)
    with pytest.raises(ArtifactError, match="fingerprint mismatch"):
        load_model_artifact(hf_bundle)
