"""Telemetry primitives: counters, gauges, EMAs, timers and histograms.

A :class:`MetricsRegistry` is a flat, name-addressed collection of the
five primitive kinds.  Trainers create (or receive) one registry per
``fit`` call and update it from the hot loop; sinks and reports read a
:meth:`MetricsRegistry.snapshot` — a plain ``dict`` safe to serialise.

All mutating primitives are **thread-safe**: the serving tier updates
one shared registry from every ``ThreadingHTTPServer`` handler thread,
so ``inc``/``set``/``update``/``observe`` take a per-instance lock
(uncontended CPython locks cost ~100 ns, far below any instrumented
operation here).

Naming convention: every wall-clock-derived field ends in ``_s`` (total
seconds) or ``_per_sec`` (rates).  :func:`repro.obs.strip_volatile`
relies on this to compare telemetry streams across runs.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from typing import Iterator, Sequence


class Counter:
    """A monotonically increasing integer count (thread-safe)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        # ``self.value += n`` is a read-modify-write; under concurrent
        # server threads the unlocked form loses increments.
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time value (last write wins, thread-safe)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class EMATracker:
    """Exponential moving average ``v ← (1-α)·v + α·x`` (thread-safe).

    The first update seeds the average with the raw sample, so the
    tracker is unbiased from the start (no zero-initialisation warm-up).
    """

    __slots__ = ("alpha", "value", "n_updates", "_lock")

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha = alpha
        self.value: float | None = None
        self.n_updates = 0
        self._lock = threading.Lock()

    def update(self, sample: float) -> float:
        sample = float(sample)
        with self._lock:
            if self.value is None:
                self.value = sample
            else:
                self.value = (
                    1.0 - self.alpha
                ) * self.value + self.alpha * sample
            self.n_updates += 1
            return self.value


def log_buckets(
    lo: float, hi: float, per_decade: int = 4
) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds from ``lo`` to at least ``hi``.

    ``per_decade`` bounds per power of ten; the returned tuple always
    starts at ``lo`` and ends at or above ``hi``.

    >>> log_buckets(1.0, 100.0, per_decade=1)
    (1.0, 10.0, 100.0)
    """
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be positive")
    step = 10.0 ** (1.0 / per_decade)
    bounds = [lo]
    while bounds[-1] < hi * (1.0 - 1e-12):
        bounds.append(bounds[-1] * step)
    return tuple(bounds)


def linear_buckets(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """``n`` evenly spaced bucket upper bounds from ``lo`` to ``hi``.

    >>> linear_buckets(0.25, 1.0, 4)
    (0.25, 0.5, 0.75, 1.0)
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not lo < hi:
        raise ValueError("need lo < hi")
    width = (hi - lo) / (n - 1) if n > 1 else 0.0
    return tuple(lo + i * width for i in range(n))


#: Default latency bucket bounds (milliseconds): log-spaced from 10 µs
#: to 100 s, four per decade — wide enough for loopback micro-batches
#: and pathological tail requests alike.
DEFAULT_LATENCY_BUCKETS_MS = log_buckets(0.01, 1e5, per_decade=4)


class Histogram:
    """Fixed-bucket histogram with exact counts (thread-safe).

    Samples land in the first bucket whose upper *bound* is ``>=`` the
    sample; values beyond the last bound go to an implicit overflow
    (``+Inf``) bucket.  Alongside the per-bucket counts the histogram
    keeps the exact ``count``/``sum``/``min``/``max``, so means and
    totals are exact while quantiles are estimated by linear
    interpolation inside the containing bucket (clamped to the observed
    ``[min, max]``; with the default log-spaced latency buckets the
    relative error is bounded by the bucket ratio, ~78 %-wide decades/4).

    Histograms with identical bounds **merge** exactly
    (:meth:`merge` adds counts bucket-wise), so per-snapshot or
    per-process histograms fold into one without losing tail fidelity —
    the property Prometheus relies on for scrape-side aggregation.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max", "_lock")

    def __init__(self, buckets: Sequence[float] | None = None) -> None:
        bounds = tuple(
            float(b)
            for b in (
                DEFAULT_LATENCY_BUCKETS_MS if buckets is None else buckets
            )
        )
        if not bounds:
            raise ValueError("at least one bucket bound is required")
        if any(b != b or math.isinf(b) for b in bounds):
            raise ValueError("bucket bounds must be finite")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow (+Inf)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s counts into this histogram (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        with other._lock:
            counts = list(other.counts)
            count, total = other.count, other.sum
            lo, hi = other.min, other.max
        with self._lock:
            for i, n in enumerate(counts):
                self.counts[i] += n
            self.count += count
            self.sum += total
            self.min = min(self.min, lo)
            self.max = max(self.max, hi)
        return self

    def cumulative(self) -> list[int]:
        """Cumulative counts per bound plus the ``+Inf`` total.

        ``cumulative()[i]`` is the exact number of samples ``<=
        bounds[i]``; the final entry equals :attr:`count`.  This is the
        Prometheus ``_bucket`` series and is monotone by construction.
        """
        with self._lock:
            out = []
            running = 0
            for n in self.counts:
                running += n
                out.append(running)
            return out

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile; ``None`` on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        with self._lock:
            if self.count == 0:
                return None
            rank = q * self.count
            running = 0.0
            for i, n in enumerate(self.counts):
                if n == 0:
                    continue
                if running + n >= rank:
                    lower = self.bounds[i - 1] if i > 0 else min(
                        self.min, self.bounds[0]
                    )
                    upper = (
                        self.bounds[i] if i < len(self.bounds) else self.max
                    )
                    fraction = (rank - running) / n
                    value = lower + (upper - lower) * max(fraction, 0.0)
                    return min(max(value, self.min), self.max)
                running += n
            return self.max  # pragma: no cover - defensive (q == 1 path)

    def summary(self) -> dict[str, float | int | None]:
        """Exact count/sum/min/max plus p50/p95/p99 estimates."""
        with self._lock:
            empty = self.count == 0
            out: dict[str, float | int | None] = {
                "count": self.count,
                "sum": self.sum,
                "min": None if empty else self.min,
                "max": None if empty else self.max,
            }
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            out[name] = self.quantile(q)
        return out


class Timer:
    """Accumulating wall-clock timer, usable as a context manager.

    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.n_calls
    1
    """

    __slots__ = ("total_seconds", "last_seconds", "n_calls", "_start")

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.last_seconds = 0.0
        self.n_calls = 0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None
        self.last_seconds = time.perf_counter() - self._start
        self.total_seconds += self.last_seconds
        self.n_calls += 1
        self._start = None


def hogwild_aggregates(
    worker_stats: "list[dict[str, float]]",
) -> "dict[str, float | int]":
    """Fleet-level health numbers derived from per-worker stats.

    * ``hogwild.straggler_lag_pairs`` — pairs the slowest worker trails
      the fastest by (0 on a perfectly balanced run),
    * ``hogwild.parallel_efficiency`` — total pairs done divided by
      ``workers x max(pairs)``: 1.0 means every worker kept pace with
      the fastest, approaching ``1/workers`` means one worker did all
      the work,
    * ``hogwild.stalled_workers`` — workers flagged stalled by the
      parent's heartbeat watchdog (``stalled`` key, when present).
    """
    pairs = [float(stats.get("pairs", 0.0)) for stats in worker_stats]
    out: dict[str, float | int] = {}
    if pairs:
        top = max(pairs)
        out["hogwild.straggler_lag_pairs"] = top - min(pairs)
        out["hogwild.parallel_efficiency"] = (
            sum(pairs) / (len(pairs) * top) if top > 0 else 1.0
        )
    out["hogwild.stalled_workers"] = sum(
        1 for stats in worker_stats if stats.get("stalled")
    )
    return out


#: Per-worker stat keys re-published as ``hogwild.worker.<i>.<key>``
#: gauges (heartbeat ages are volatile, hence the ``_s`` suffix).
_WORKER_GAUGE_KEYS = ("pairs", "batches", "pairs_per_sec", "heartbeat_age_s")


def record_worker_stats(
    metrics: "MetricsRegistry",
    worker_stats: "list[dict[str, float]]",
) -> "dict[str, float | int]":
    """Fold per-worker HOGWILD stats into ``metrics``.

    Every worker contributes a legacy ``worker<i>_pairs_per_sec`` gauge
    plus the structured ``hogwild.worker.<i>.*`` gauges (pairs,
    batches, throughput, heartbeat age), and the fleet-level
    :func:`hogwild_aggregates` gauges.  Returns everything as one flat
    dict, ready to splat into an ``on_fit_end`` log payload.
    """
    merged: dict[str, float | int] = {}
    for i, stats in enumerate(worker_stats):
        gauge = metrics.gauge(f"worker{i}_pairs_per_sec")
        gauge.set(stats.get("pairs_per_sec", 0.0))
        merged[f"worker{i}_pairs_per_sec"] = gauge.value
        for key in _WORKER_GAUGE_KEYS:
            if key in stats:
                name = f"hogwild.worker.{i}.{key}"
                metrics.gauge(name).set(float(stats[key]))
                merged[name] = float(stats[key])
    for name, value in hogwild_aggregates(worker_stats).items():
        metrics.gauge(name).set(float(value))
        merged[name] = value
    return merged


class MetricsRegistry:
    """Flat get-or-create registry of telemetry primitives.

    Each name maps to exactly one primitive; asking for an existing name
    with a different kind is an error (it would silently fork state).
    """

    def __init__(self) -> None:
        self._metrics: dict[
            str, Counter | Gauge | EMATracker | Timer | Histogram
        ] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def ema(self, name: str, alpha: float = 0.05) -> EMATracker:
        return self._get_or_create(name, EMATracker, lambda: EMATracker(alpha))

    def timer(self, name: str) -> Timer:
        return self._get_or_create(name, Timer, Timer)

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:
        """Get-or-create a histogram; ``buckets`` only applies on create
        (like :meth:`ema`'s ``alpha``)."""
        return self._get_or_create(
            name, Histogram, lambda: Histogram(buckets)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def items(
        self,
    ) -> Iterator[tuple[str, "Counter | Gauge | EMATracker | Timer | Histogram"]]:
        """``(name, primitive)`` pairs, in registration order."""
        with self._lock:
            pairs = list(self._metrics.items())
        return iter(pairs)

    def snapshot(self) -> dict[str, float | int | None]:
        """All current values as one flat, JSON-ready dict.

        Timers expand into ``<name>_s`` (total seconds, volatile) and
        ``<name>_calls``; histograms expand into ``<name>_count``,
        ``<name>_sum``, ``<name>_min``/``_max`` and the ``_p50``/
        ``_p95``/``_p99`` quantile estimates; the other kinds contribute
        their value under their own name.
        """
        out: dict[str, float | int | None] = {}
        for name, metric in self.items():
            if isinstance(metric, Timer):
                out[f"{name}_s"] = metric.total_seconds
                out[f"{name}_calls"] = metric.n_calls
            elif isinstance(metric, Histogram):
                for key, value in metric.summary().items():
                    out[f"{name}_{key}"] = value
            else:
                out[name] = metric.value
        return out
