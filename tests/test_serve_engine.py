"""ScoringEngine: vectorized batch scoring, LRU cache, coalescing."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.models import HFModel
from repro.serve import ScoringEngine


@pytest.fixture(scope="module")
def model(discovery_task):
    return HFModel().fit(discovery_task.network, seed=0)


@pytest.fixture
def engine(model):
    return ScoringEngine(model)


@pytest.fixture(scope="module")
def tie_pairs(model):
    net = model.network
    return np.column_stack([net.tie_src, net.tie_dst])


def test_matches_per_pair_loop(engine, model, tie_pairs):
    pairs = tie_pairs[:50]
    scores = engine.score_pairs(pairs)
    expected = [model.directionality(int(u), int(v)) for u, v in pairs]
    assert np.array_equal(scores, np.asarray(expected))


def test_empty_batch(engine):
    assert engine.score_pairs([]).shape == (0,)


def test_bad_shape_rejected(engine):
    with pytest.raises(ValueError, match=r"\(k, 2\)"):
        engine.score_pairs([[1, 2, 3]])


def test_unknown_pair_rejected(engine, model):
    n = model.network.n_nodes
    missing = None
    present = {
        (int(u), int(v))
        for u, v in zip(model.network.tie_src, model.network.tie_dst)
    }
    for u in range(n):
        for v in range(n):
            if u != v and (u, v) not in present:
                missing = (u, v)
                break
        if missing:
            break
    with pytest.raises(KeyError, match="no oriented tie"):
        engine.score_pairs([missing])


def test_cache_hits_on_repeat(engine, tie_pairs):
    pairs = tie_pairs[:40]
    first = engine.score_pairs(pairs)
    info = engine.cache_info()
    assert info["cache_hits"] == 0 and info["cache_misses"] == 40
    second = engine.score_pairs(pairs)
    info = engine.cache_info()
    assert info["cache_hits"] == 40 and info["cache_misses"] == 40
    assert info["cache_hit_rate"] == 0.5
    assert np.array_equal(first, second)


def test_cache_partial_overlap(engine, tie_pairs):
    engine.score_pairs(tie_pairs[:30])
    engine.score_pairs(tie_pairs[10:40])  # 20 cached, 10 fresh
    info = engine.cache_info()
    assert info["cache_hits"] == 20
    assert info["cache_misses"] == 40


def test_cache_eviction_is_lru(model, tie_pairs):
    engine = ScoringEngine(model, cache_size=10)
    engine.score_pairs(tie_pairs[:10])
    engine.score_pairs(tie_pairs[:5])  # refresh the first five
    engine.score_pairs(tie_pairs[10:15])  # evicts pairs 5..9, not 0..4
    assert engine.cache_info()["cache_entries"] == 10
    engine.score_pairs(tie_pairs[:5])
    assert engine.cache_info()["cache_hits"] == 5 + 5


def test_cache_disabled(model, tie_pairs):
    engine = ScoringEngine(model, cache_size=0)
    engine.score_pairs(tie_pairs[:10])
    engine.score_pairs(tie_pairs[:10])
    info = engine.cache_info()
    assert info["cache_hits"] == 0
    assert info["cache_entries"] == 0


def test_use_cache_false_bypasses(engine, tie_pairs):
    engine.score_pairs(tie_pairs[:10], use_cache=False)
    engine.score_pairs(tie_pairs[:10], use_cache=False)
    assert engine.cache_info()["cache_hits"] == 0


def test_invalid_knobs_rejected(model):
    with pytest.raises(ValueError, match="cache_size"):
        ScoringEngine(model, cache_size=-1)
    with pytest.raises(ValueError, match="batch_window_s"):
        ScoringEngine(model, batch_window_s=-0.1)
    with pytest.raises(ValueError, match="max_coalesced_pairs"):
        ScoringEngine(model, max_coalesced_pairs=0)


def test_discover_pairs_matches_app(engine, model):
    from repro.apps import predict_directions
    from repro.graph import TieKind

    net = model.network
    undirected = net.social_ties(TieKind.UNDIRECTED)
    if len(undirected) == 0:
        pytest.skip("no undirected ties in fixture network")
    # Feed reversed orientations: the canonical tie-break must not care.
    flipped = undirected[:, ::-1]
    assert np.array_equal(
        engine.discover_pairs(flipped),
        predict_directions(model, undirected),
    )


def test_coalesced_single_caller(engine, tie_pairs):
    pairs = tie_pairs[:25]
    assert np.array_equal(
        engine.score_pairs_coalesced(pairs), engine.score_pairs(pairs)
    )
    assert engine.metrics.counter("serve.rounds").value >= 1


def test_coalesced_concurrent_callers(model, tie_pairs):
    engine = ScoringEngine(model, batch_window_s=0.05)
    n_threads = 8
    chunk = 10
    results: list[np.ndarray | None] = [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def worker(i: int) -> None:
        barrier.wait()
        results[i] = engine.score_pairs_coalesced(
            tie_pairs[i * chunk : (i + 1) * chunk]
        )

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    for i in range(n_threads):
        expected = engine.score_pairs(tie_pairs[i * chunk : (i + 1) * chunk])
        assert np.array_equal(results[i], expected)
    # The window must have coalesced at least two callers into a round.
    rounds = engine.metrics.counter("serve.rounds").value
    assert rounds < n_threads


def test_coalesced_error_isolated(model, tie_pairs):
    """A bad pair only fails its own caller, not the whole round."""
    engine = ScoringEngine(model, batch_window_s=0.05)
    good = tie_pairs[:10]
    bad = np.asarray([[0, 0]])  # self-loop: never an oriented tie
    outcome: dict[str, object] = {}
    barrier = threading.Barrier(2)

    def good_worker() -> None:
        barrier.wait()
        outcome["good"] = engine.score_pairs_coalesced(good)

    def bad_worker() -> None:
        barrier.wait()
        try:
            engine.score_pairs_coalesced(bad)
        except KeyError as exc:
            outcome["bad"] = exc

    threads = [
        threading.Thread(target=good_worker),
        threading.Thread(target=bad_worker),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert isinstance(outcome.get("bad"), KeyError)
    assert np.array_equal(outcome["good"], engine.score_pairs(good))


def test_snapshot_is_flat_and_json_ready(engine, tie_pairs):
    import json

    engine.score_pairs(tie_pairs[:5])
    snap = engine.snapshot()
    json.dumps(snap)  # must not raise
    assert snap["serve.requests"] == 1
    assert snap["serve.pairs"] == 5
    assert snap["uptime_s"] >= 0


def test_engine_fingerprint_matches_network_store(engine, model):
    assert engine.fingerprint == model.network.store.fingerprint()


def test_fingerprint_mismatch_raises_before_lookup(engine, tie_pairs):
    from repro.serve import GraphMismatchError

    with pytest.raises(GraphMismatchError, match="fingerprint mismatch"):
        engine.score_pairs(tie_pairs[:2], fingerprint="sha256:wrong")
    with pytest.raises(GraphMismatchError):
        engine.discover_pairs(tie_pairs[:2], fingerprint="sha256:wrong")
    with pytest.raises(GraphMismatchError):
        engine.score_pairs_coalesced(
            tie_pairs[:2], fingerprint="sha256:wrong"
        )


def test_matching_fingerprint_scores(engine, tie_pairs):
    scores = engine.score_pairs(
        tie_pairs[:5], fingerprint=engine.fingerprint
    )
    assert len(scores) == 5


# -- the leader waits only when company is likely ----------------------


def _wait_for_leader(engine, timeout_s=5.0):
    """Block until a coalescing leader has a request pending."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with engine._mb_lock:
            if engine._leader_active and engine._pending:
                return
        time.sleep(0.001)
    raise AssertionError("no leader started waiting")


def _lead_in_thread(engine, pairs):
    """Start a coalesced call on a thread; returns (thread, outcome)."""
    outcome: dict = {"info": {}}

    def run() -> None:
        start = time.perf_counter()
        outcome["scores"] = engine.score_pairs_coalesced(
            pairs, info=outcome["info"]
        )
        outcome["elapsed_s"] = time.perf_counter() - start

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def test_lone_calls_do_not_wait_out_the_window(model, tie_pairs):
    engine = ScoringEngine(model, batch_window_s=0.5)
    for i, pairs in enumerate((tie_pairs[:10], tie_pairs[10:20])):
        if i:
            time.sleep(0.55)  # the previous caller is a window away
        info: dict = {}
        start = time.perf_counter()
        scores = engine.score_pairs_coalesced(pairs, info=info)
        assert time.perf_counter() - start < 0.25
        assert info["round_requests"] == 1
        assert np.array_equal(scores, engine.score_pairs(pairs))
    assert engine.metrics.counter("serve.rounds").value == 2


def test_follower_inside_the_window_joins_the_round(model, tie_pairs):
    engine = ScoringEngine(model, batch_window_s=0.5)
    engine.score_pairs_coalesced(tie_pairs[:5])  # lone: scores at once
    # Arriving right after it, this caller is busy and waits as leader.
    thread, leader = _lead_in_thread(engine, tie_pairs[5:15])
    _wait_for_leader(engine)
    info: dict = {}
    follower = engine.score_pairs_coalesced(tie_pairs[15:25], info=info)
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert info["round_requests"] == 2
    assert leader["info"]["round_requests"] == 2
    positions = [info["round_position"], leader["info"]["round_position"]]
    assert sorted(positions) == [0, 1]
    assert np.array_equal(follower, engine.score_pairs(tie_pairs[15:25]))
    assert np.array_equal(
        leader["scores"], engine.score_pairs(tie_pairs[5:15])
    )
    assert engine.metrics.counter("serve.rounds").value == 2


def test_max_coalesced_pairs_closes_a_busy_window_early(model, tie_pairs):
    engine = ScoringEngine(
        model, batch_window_s=4.0, max_coalesced_pairs=20
    )
    engine.score_pairs_coalesced(tie_pairs[:5])
    thread, leader = _lead_in_thread(engine, tie_pairs[5:15])
    _wait_for_leader(engine)
    info: dict = {}
    start = time.perf_counter()
    engine.score_pairs_coalesced(tie_pairs[15:25], info=info)
    thread.join(timeout=10)
    assert not thread.is_alive()
    # The 20-pair budget is met: the round closes at the leader's next
    # nap (window / 8), not at the 4 s deadline.
    assert time.perf_counter() - start < 2.0
    assert leader["elapsed_s"] < 2.0
    assert info["round_requests"] == 2
    assert info["round_pairs"] == 20


def test_a_wait_that_finds_nobody_stops_the_next_waits(model, tie_pairs):
    """One client sending back to back: every call arrives inside the
    window, but after one empty wait the calls score at once."""
    engine = ScoringEngine(model, batch_window_s=0.5)
    elapsed = []
    for i in range(4):
        start = time.perf_counter()
        engine.score_pairs_coalesced(tie_pairs[i * 5 : (i + 1) * 5])
        elapsed.append(time.perf_counter() - start)
    assert elapsed[0] < 0.25  # first ever: alone
    assert elapsed[1] >= 0.4  # busy: waited out the window for company
    assert max(elapsed[2:]) < 0.25  # that wait found nobody


class _GatedScores:
    """``inner``'s scores, held back while ``gate`` is closed."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.network = inner.network
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def _check_fitted(self):
        return self.inner._check_fitted()

    def directionality_batch(self, pairs):
        self.entered.set()
        assert self.gate.wait(timeout=10)
        return self.inner.directionality_batch(pairs)


def test_overlapping_callers_rearm_the_wait(model, tie_pairs):
    gated = _GatedScores(model)
    engine = ScoringEngine(gated, cache_size=0, batch_window_s=0.5)
    engine.score_pairs_coalesced(tie_pairs[:5])
    engine.score_pairs_coalesced(tie_pairs[5:10])  # an empty wait
    gated.gate.clear()
    gated.entered.clear()
    # A scores at once and is held inside the model: still in flight.
    first, _ = _lead_in_thread(engine, tie_pairs[10:15])
    assert gated.entered.wait(timeout=5)
    # B arrives while A is in flight, so it waits for company again.
    second, leader = _lead_in_thread(engine, tie_pairs[15:25])
    _wait_for_leader(engine)
    gated.gate.set()
    info: dict = {}
    engine.score_pairs_coalesced(tie_pairs[25:35], info=info)
    for thread in (first, second):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert info["round_requests"] == 2
    assert leader["info"]["round_requests"] == 2


def test_coalescing_stress_keeps_every_caller_and_slice(model, tie_pairs):
    """Many threads, fast switching: every caller is in exactly one
    round and gets its own pairs' scores back."""
    engine = ScoringEngine(model, batch_window_s=0.001)
    n_threads, n_calls = 8, 25
    leaders: list[dict] = []
    failures: list[str] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def worker(t: int) -> None:
        for call in range(n_calls):
            start = (t * n_calls + call) % (len(tie_pairs) - 3)
            pairs = tie_pairs[start : start + 3]
            info: dict = {}
            got = engine.score_pairs_coalesced(pairs, info=info)
            if not np.array_equal(got, engine.score_pairs(pairs)):
                failures.append(f"thread {t} call {call}")
            if info["round_position"] == 0:
                leaders.append(info)

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert sum(i["round_requests"] for i in leaders) == n_threads * n_calls
    assert engine.metrics.counter("serve.rounds").value == len(leaders)


# -- the LRU against a reference model ----------------------------------


def test_lru_matches_a_reference_ordered_dict(model, tie_pairs):
    """Hits, values, recency order and eviction agree with a plain
    OrderedDict LRU over 300 mixed calls (repeats inside one call,
    uncached calls and coalesced calls included)."""
    from collections import OrderedDict

    cache_size = 300
    engine = ScoringEngine(model, cache_size=cache_size, batch_window_s=0)
    ref: OrderedDict[tuple[int, int], float] = OrderedDict()
    counts = {"hits": 0, "misses": 0}

    def reference(pairs: np.ndarray, use_cache: bool) -> np.ndarray:
        keys = [tuple(p) for p in pairs.tolist()]
        fresh = [float(model.directionality(u, v)) for u, v in keys]
        if not use_cache:
            counts["misses"] += len(keys)
            return np.asarray(fresh)
        # Every lookup happens before the misses are stored, so a pair
        # repeated inside one call misses (and is stored) twice.
        cached = [ref.get(key) for key in keys]
        out = []
        for key, hit, value in zip(keys, cached, fresh):
            if hit is None:
                out.append(value)
            else:
                ref.move_to_end(key)
                out.append(hit)
        for key, hit, value in zip(keys, cached, fresh):
            if hit is None:
                ref[key] = value
                ref.move_to_end(key)
        while len(ref) > cache_size:
            ref.popitem(last=False)
        n_hits = sum(hit is not None for hit in cached)
        counts["hits"] += n_hits
        counts["misses"] += len(keys) - n_hits
        return np.asarray(out)

    pool = tie_pairs[:450]
    rng = np.random.default_rng(7)
    weights = 1.0 / np.arange(1, len(pool) + 1)
    weights /= weights.sum()
    for call in range(300):
        pairs = pool[rng.choice(len(pool), size=rng.integers(1, 41),
                                p=weights)]
        kind = call % 5
        if kind == 3:
            got = engine.score_pairs(pairs, use_cache=False)
        elif kind == 4:
            got = engine.score_pairs_coalesced(pairs)
        else:
            got = engine.score_pairs(pairs)
        assert np.array_equal(got, reference(pairs, use_cache=kind != 3))
        assert list(engine._cache.items()) == list(ref.items())
    info = engine.cache_info()
    assert counts["hits"] > 0 and len(ref) == cache_size
    assert info["cache_hits"] == counts["hits"]
    assert info["cache_misses"] == counts["misses"]
    assert info["cache_hit_rate"] == counts["hits"] / (
        counts["hits"] + counts["misses"]
    )
