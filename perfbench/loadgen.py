"""Open-loop load over persistent HTTP/1.1 keep-alive connections.

Requests follow a seeded Poisson schedule and are sent when due,
whatever the server is doing; each of ``connections`` threads owns one
keep-alive connection and takes the next due request as soon as its
previous one completed.  Latency is timed from the request's *due*
time, so a stall on one request delays, and is charged to, the ones
queued behind it.  Generator lateness is send time minus the moment
the request could have gone out (its due time, or its thread's pick-up
time when the thread was busy): the generator's own scheduling error,
not the server's queue.

The rate ladder (:func:`rate_ladder`) walks geometric steps from a
probe rate until the first step that misses the latency limit or builds
a backlog; it is a pure function of a step-measuring callback, so the
self-tests drive it against a fake server of known capacity.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from common import percentile

#: A request later than this (from due time to response) is a miss.
DEADLINE_MS = 1000.0


@dataclass
class Request:
    due_s: float  # offset from the schedule's start
    path: str
    body: bytes
    check: Callable[[bytes], bool]  # True when the response is correct


@dataclass
class Outcome:
    latency_ms: float
    late_ms: float
    correct: bool  # HTTP 200 with the expected answer
    path: str
    done_s: float  # completion, as an offset from the schedule's start

    @property
    def ok(self) -> bool:
        """Answered correctly within the deadline (a late answer misses)."""
        return self.correct and self.latency_ms <= DEADLINE_MS


@dataclass
class StepResult:
    rate: float
    attempted: int
    succeeded: int
    failed: int  # wrong, refused or late
    wrong: int  # answered, but not with the expected answer (or errored)
    limit_ms: float  # the latency quantile the limit applies to
    late_ms: float  # generator lateness, p99
    backlog: bool
    passed: bool = False


def poisson_offsets(
    rng: np.random.Generator, rate: float, n: int
) -> np.ndarray:
    """Offsets (s) of the first ``n`` arrivals of a Poisson process."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def run_open_loop(
    host: str, port: int, requests: Sequence[Request], connections: int = 2,
    lead_s: float = 0.05,
) -> list[Outcome]:
    """Send ``requests`` on their schedule; return one outcome each.

    Answers are checked after the last one arrived, so checking takes
    no processor time from the server while it is measured.
    """
    # Per request: (due, picked, sent, done, status, payload).
    raw: list[tuple | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + lead_s

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    return
                req = requests[i]
                due = t0 + req.due_s
                picked = time.perf_counter()
                if picked < due:
                    time.sleep(due - picked)
                sent = time.perf_counter()
                status, payload = None, b""
                try:
                    conn.request("POST", req.path, req.body,
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()  # reconnects on the next request
                done = time.perf_counter()
                raw[i] = (due, picked, sent, done, status, payload)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcomes = []
    for req, result in zip(requests, raw):
        if result is None:
            continue
        due, picked, sent, done, status, payload = result
        try:
            correct = status == 200 and req.check(payload)
        except (ValueError, KeyError, TypeError):
            correct = False
        outcomes.append(Outcome(
            latency_ms=(done - due) * 1e3,
            late_ms=(sent - max(due, picked)) * 1e3,
            correct=correct,
            path=req.path,
            done_s=done - t0,
        ))
    return outcomes


def judge_step(
    rate: float, outcomes: Sequence[Outcome], duration_s: float,
    q: float, limit_ms: float, min_tail: int = 10, drain_s: float = 1.0,
) -> StepResult:
    """Judge one step of the ladder (or the probe).

    It meets the limit when every request succeeded, the latency
    ``q``-quantile (which needs ``min_tail`` samples beyond it) is at
    most ``limit_ms``, and the step drained within ``drain_s`` of its
    schedule's end (no backlog).
    """
    failed = sum(not o.ok for o in outcomes)
    backlog = bool(outcomes) and max(o.done_s for o in outcomes) > (
        duration_s + drain_s
    )
    step = StepResult(
        rate=rate,
        attempted=len(outcomes),
        succeeded=len(outcomes) - failed,
        failed=failed,
        wrong=sum(not o.correct for o in outcomes),
        limit_ms=percentile([o.latency_ms for o in outcomes], q, min_tail),
        late_ms=percentile([o.late_ms for o in outcomes], 0.99),
        backlog=backlog,
    )
    step.passed = failed == 0 and not backlog and step.limit_ms <= limit_ms
    return step


def rate_ladder(
    measure: Callable[[float], StepResult], probe_rate: float,
    probe_passed: bool, factor: float = 1.1, max_steps: int = 8,
    min_rate: float = 1.0,
) -> tuple[float, list[StepResult]]:
    """Highest passing rate on the geometric ladder through ``probe_rate``.

    Adjacent steps are ``factor`` apart.  When the probe met the limit,
    climb from ``probe_rate * factor`` until the first failing step; the
    peak is the last passing rate (the probe's, if the first climb step
    fails).  When the probe missed, descend until the first passing
    step, which is the peak.  At most ``max_steps`` steps run; a climb
    that never fails reports its last (capped) step, a descent that
    never passes reports ``nan``.
    """
    steps: list[StepResult] = []
    if probe_passed:
        peak, rate = probe_rate, probe_rate
        for _ in range(max_steps):
            rate *= factor
            step = measure(rate)
            steps.append(step)
            if not step.passed:
                break
            peak = rate
        return peak, steps
    rate = probe_rate
    for _ in range(max_steps):
        rate /= factor
        if rate < min_rate:
            break
        step = measure(rate)
        steps.append(step)
        if step.passed:
            return rate, steps
    return math.nan, steps
