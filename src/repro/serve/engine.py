"""Batch scoring engine: the query-time core of :mod:`repro.serve`.

A :class:`ScoringEngine` wraps one fitted model (usually reloaded from
an artifact) and answers directionality queries as *batches*:

* :meth:`ScoringEngine.score_pairs` — one vectorised ``d(u, v)`` lookup
  per ``(k, 2)`` request, through
  :meth:`~repro.models.TieDirectionModel.directionality_batch`.
* An **LRU cache** over individual ``(u, v)`` queries, so hot pairs in
  repeated traffic (the millions-of-users north star) skip even the
  vectorised path.
* **Micro-batching** (:meth:`ScoringEngine.score_pairs_coalesced`):
  concurrent requests arriving within a small window are coalesced into
  one vectorised scoring call — the server threads pay one lookup for
  the whole window instead of one each.  A request that arrives alone
  (the previous one came more than a window earlier) does not wait.
* :meth:`ScoringEngine.discover_pairs` — Eq. 28 direction discovery for
  undirected pairs, batched.

Every call updates a :class:`repro.obs.MetricsRegistry` (request/pair
counters, cache hits, latency EMA) and opens ``serve.*`` spans on the
active tracer, so served traffic lands in the same manifests and traces
as training runs.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from itertools import compress

import numpy as np

from ..obs import MetricsRegistry, linear_buckets, log_buckets, span
from .errors import GraphMismatchError

#: Bucket bounds for the batch-size histogram (pairs per request).
BATCH_PAIRS_BUCKETS = log_buckets(1.0, 1e6, per_decade=3)

#: Bucket bounds for the per-request cache-hit-fraction histogram.
HIT_FRACTION_BUCKETS = linear_buckets(0.05, 1.0, 20)


class _Request:
    """One caller's pairs awaiting a coalesced scoring round."""

    __slots__ = ("pairs", "done", "result", "error", "info")

    def __init__(self, pairs: np.ndarray) -> None:
        self.pairs = pairs
        self.done = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self.info: dict[str, int | None] = {}


class ScoringEngine:
    """Vectorised, cached, micro-batched scoring over one fitted model.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.TieDirectionModel` (freshly
        trained or restored via
        :func:`repro.serve.load_model_artifact`).
    cache_size:
        Maximum ``(u, v)`` entries in the per-pair LRU cache; ``0``
        disables caching.
    batch_window_s:
        The longest the leader of a coalescing round waits for
        concurrent requests to pile up before scoring them together.
        It waits only when the previous request arrived within the
        window (see :meth:`score_pairs_coalesced`); ``0`` never waits.
    max_coalesced_pairs:
        Pair budget of one coalescing round; a round closes early once
        the pending requests reach it.
    metrics:
        Optional shared :class:`~repro.obs.MetricsRegistry`; a private
        one is created by default.  All metric names are prefixed
        ``serve.``.
    """

    def __init__(
        self,
        model,
        *,
        cache_size: int = 4096,
        batch_window_s: float = 0.002,
        max_coalesced_pairs: int = 65536,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        if max_coalesced_pairs < 1:
            raise ValueError("max_coalesced_pairs must be positive")
        self.model = model
        self.network = model._check_fitted()  # noqa: SLF001
        #: Fingerprint of the served graph (see
        #: :func:`repro.graph.store.tie_fingerprint`); requests may pin
        #: the fingerprint their tie ids refer to and are refused with
        #: :class:`GraphMismatchError` when it differs.
        self.fingerprint: str = self.network.store.fingerprint()
        self.cache_size = cache_size
        self.batch_window_s = batch_window_s
        self.max_coalesced_pairs = max_coalesced_pairs
        self.metrics = metrics or MetricsRegistry()
        self._cache: OrderedDict[tuple[int, int], float] = OrderedDict()
        self._cache_lock = threading.Lock()
        self._mb_lock = threading.Lock()
        self._pending: list[_Request] = []
        self._pending_pairs = 0
        self._leader_active = False
        # Whether a leader waits for company (see score_pairs_coalesced):
        # the latest caller's arrival, the callers now inside it, and
        # whether the last wait found nobody.
        self._last_arrival = -math.inf
        self._in_flight = 0
        self._lonely = False
        self.started_at = time.time()

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _as_pairs(pairs) -> np.ndarray:
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.size == 0:
            return arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(
                f"pairs must be a (k, 2) array; got shape {arr.shape}"
            )
        return arr

    def check_fingerprint(self, fingerprint: str | None) -> None:
        """Refuse a request pinned to a graph this engine does not serve.

        ``None`` (the caller did not pin a graph) always passes; a
        non-matching digest raises :class:`GraphMismatchError` *before*
        any ``tie_ids`` searchsorted lookup happens, because ids
        resolved against the wrong graph score the wrong ties without
        any other symptom.
        """
        if fingerprint is not None and fingerprint != self.fingerprint:
            raise GraphMismatchError(self.fingerprint, str(fingerprint))

    def _cache_get_many(
        self, keys: list[tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached values (NaN where absent) and the boolean hit mask."""
        hit_at: list[int] = []
        hit_values: list[float] = []
        cache = self._cache
        with span("serve.cache", op="get", pairs=len(keys)), self._cache_lock:
            for i, key in enumerate(keys):
                cached = cache.get(key)
                if cached is not None:
                    cache.move_to_end(key)
                    hit_at.append(i)
                    hit_values.append(cached)
        at = np.asarray(hit_at, dtype=np.intp)
        values = np.full(len(keys), np.nan)
        values[at] = hit_values
        hits = np.zeros(len(keys), dtype=bool)
        hits[at] = True
        return values, hits

    def _cache_put_many(
        self, keys: list[tuple[int, int]], scores: np.ndarray
    ) -> None:
        cache = self._cache
        with span("serve.cache", op="put", pairs=len(keys)), self._cache_lock:
            for key, score in zip(keys, scores.tolist()):
                # A new key lands at the end already; one scored twice
                # (a repeated pair, or two rounds racing) moves there.
                if key in cache:
                    cache.move_to_end(key)
                cache[key] = score
            while len(cache) > self.cache_size:
                cache.popitem(last=False)

    # -- scoring --------------------------------------------------------

    def score_pairs(
        self,
        pairs,
        use_cache: bool = True,
        info: dict | None = None,
        fingerprint: str | None = None,
    ) -> np.ndarray:
        """``d(u, v)`` for a ``(k, 2)`` batch of oriented-tie pairs.

        Cached pairs are answered from the LRU; the misses go through
        one vectorised ``directionality_batch`` call.  Raises
        :class:`KeyError` when a pair is not an oriented tie, and
        :class:`GraphMismatchError` when ``fingerprint`` (the graph the
        caller's tie ids refer to) differs from the served one.  When
        the caller passes an ``info`` dict it is filled with this
        request's ``cache_hits``/``cache_misses`` (the access log
        consumes this).
        """
        self.check_fingerprint(fingerprint)
        pairs = self._as_pairs(pairs)
        start = time.perf_counter()
        # No Timer here: one Timer instance accumulates globally; the
        # request counter, latency EMA and histograms carry the
        # per-request signal (all thread-safe primitives).
        with span("serve.score", pairs=int(len(pairs))):
            if not use_cache or self.cache_size == 0:
                scores = self.model.directionality_batch(pairs)
                hits = np.zeros(len(pairs), dtype=bool)
                self.metrics.counter("serve.cache_misses").inc(len(pairs))
            else:
                keys = list(map(tuple, pairs.tolist()))
                scores, hits = self._cache_get_many(keys)
                miss = ~hits
                n_miss = int(miss.sum())
                self.metrics.counter("serve.cache_hits").inc(
                    len(pairs) - n_miss
                )
                self.metrics.counter("serve.cache_misses").inc(n_miss)
                if n_miss:
                    fresh = self.model.directionality_batch(pairs[miss])
                    scores[miss] = fresh
                    self._cache_put_many(
                        list(compress(keys, miss.tolist())), fresh
                    )
            n_hits = int(hits.sum())
            self.metrics.counter("serve.requests").inc()
            self.metrics.counter("serve.pairs").inc(len(pairs))
            self.metrics.ema("serve.batch_pairs").update(len(pairs))
            self.metrics.ema("serve.latency_ms").update(
                (time.perf_counter() - start) * 1e3
            )
            self.metrics.histogram("serve.hist.latency_ms").observe(
                (time.perf_counter() - start) * 1e3
            )
            self.metrics.histogram(
                "serve.hist.batch_pairs", BATCH_PAIRS_BUCKETS
            ).observe(len(pairs))
            if len(pairs):
                self.metrics.histogram(
                    "serve.hist.cache_hit_fraction", HIT_FRACTION_BUCKETS
                ).observe(n_hits / len(pairs))
            if info is not None:
                info["cache_hits"] = n_hits
                info["cache_misses"] = len(pairs) - n_hits
                info["_hit_mask"] = hits
        return scores

    def score_pairs_coalesced(
        self,
        pairs,
        info: dict | None = None,
        fingerprint: str | None = None,
    ) -> np.ndarray:
        """Like :meth:`score_pairs`, coalescing concurrent callers.

        The first caller of a round becomes the *leader*.  It waits up
        to ``batch_window_s`` for other threads to enqueue their pairs,
        and only when the previous caller arrived within that window:
        a lone request scores at once, while under load (arrival gaps
        shorter than the window) rounds coalesce.  A wait that collects
        nobody (one client sending requests back to back) also stops
        the waits after it, until a caller arrives while another is
        still in flight.  The wait ends early once
        ``max_coalesced_pairs`` are pending.  The leader then scores
        everything pending in one vectorised call and distributes the
        slices; later callers just wait on their slice.  An ``info``
        dict, when given, receives this
        caller's position in its round (``round_requests``,
        ``round_position``, ``round_pairs``) and its own
        ``cache_hits`` — the request-correlated detail the access log
        records per entry.
        """
        self.check_fingerprint(fingerprint)
        request = _Request(self._as_pairs(pairs))
        with self._mb_lock:
            now = time.perf_counter()
            if self._in_flight:
                self._lonely = False
            busy = (
                now - self._last_arrival < self.batch_window_s
                and not self._lonely
            )
            self._last_arrival = now
            self._in_flight += 1
            self._pending.append(request)
            self._pending_pairs += len(request.pairs)
            leader = not self._leader_active
            if leader:
                self._leader_active = True
        if leader:
            if busy:
                deadline = now + self.batch_window_s
                while time.perf_counter() < deadline:
                    with self._mb_lock:
                        if self._pending_pairs >= self.max_coalesced_pairs:
                            break
                    time.sleep(self.batch_window_s / 8)
            with self._mb_lock:
                batch = self._pending
                self._pending = []
                self._pending_pairs = 0
                self._leader_active = False
                if busy:
                    self._lonely = len(batch) == 1
            self._score_round(batch)
        request.done.wait()
        with self._mb_lock:
            self._in_flight -= 1
        if info is not None:
            info.update(request.info)
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result

    def _score_round(self, batch: list[_Request]) -> None:
        """Score one coalesced round, isolating per-request failures."""
        self.metrics.counter("serve.rounds").inc()
        self.metrics.ema("serve.coalesced_requests").update(len(batch))
        round_pairs = int(sum(len(r.pairs) for r in batch))
        for position, request in enumerate(batch):
            request.info = {
                "round_requests": len(batch),
                "round_position": position,
                "round_pairs": round_pairs,
            }
        try:
            stacked = np.concatenate([r.pairs for r in batch])
            round_info: dict = {}
            scores = self.score_pairs(stacked, info=round_info)
            hit_mask = round_info.get("_hit_mask")
            offset = 0
            for request in batch:
                request.result = scores[offset : offset + len(request.pairs)]
                if hit_mask is not None:
                    request.info["cache_hits"] = int(
                        hit_mask[offset : offset + len(request.pairs)].sum()
                    )
                offset += len(request.pairs)
        except Exception:
            # One bad pair poisons the stacked call; rescore per request
            # so only the offending caller sees the error.
            for request in batch:
                try:
                    request_info: dict = {}
                    request.result = self.score_pairs(
                        request.pairs, info=request_info
                    )
                    request.info["cache_hits"] = request_info["cache_hits"]
                except Exception as exc:  # noqa: BLE001 - handed to caller
                    request.error = exc
        finally:
            for request in batch:
                request.done.set()

    def discover_pairs(
        self, pairs, fingerprint: str | None = None
    ) -> np.ndarray:
        """Predicted ``(source, target)`` per pair (Eq. 28), batched.

        Each row may arrive in either orientation; scoring happens in
        canonical order so the ``>=`` tie-break is orientation-stable
        (mirrors :func:`repro.apps.predict_directions`).
        """
        self.check_fingerprint(fingerprint)
        pairs = self._as_pairs(pairs)
        if len(pairs) == 0:
            return pairs.copy()
        with span("serve.discover", pairs=int(len(pairs))):
            a = np.minimum(pairs[:, 0], pairs[:, 1])
            b = np.maximum(pairs[:, 0], pairs[:, 1])
            forward = self.score_pairs(np.column_stack([a, b]))
            backward = self.score_pairs(np.column_stack([b, a]))
            keep = (forward >= backward)[:, None]
            self.metrics.counter("serve.discovered").inc(len(pairs))
            return np.where(
                keep, np.column_stack([a, b]), np.column_stack([b, a])
            )

    # -- introspection --------------------------------------------------

    def cache_info(self) -> dict[str, float | int]:
        """Cache occupancy and hit-rate snapshot."""
        hits = self.metrics.counter("serve.cache_hits").value
        misses = self.metrics.counter("serve.cache_misses").value
        total = hits + misses
        with self._cache_lock:
            size = len(self._cache)
        return {
            "cache_size": self.cache_size,
            "cache_entries": size,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / total if total else 0.0,
        }

    def snapshot(self) -> dict[str, float | int | None]:
        """All serving metrics as one flat, JSON-ready dict."""
        out = self.metrics.snapshot()
        out.update(self.cache_info())
        out["uptime_s"] = time.time() - self.started_at
        return out
