"""Self-tests: percentile rule, rate ladder, span arithmetic, cache."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from common import InputCache, min_samples_for, percentile
from loadgen import (
    Outcome,
    Request,
    StepResult,
    judge_step,
    poisson_offsets,
    rate_ladder,
    run_open_loop,
)

import numpy as np

BENCH = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# percentile rule: >= 10 samples beyond the reported percentile
# ----------------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert min_samples_for(0.99, 10) == 1000
    values = list(range(1, 1001))
    assert percentile(values, 0.99, min_tail=10) == 990
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(values[:999], 0.99, min_tail=10)


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.2) == 1.0
    assert percentile(values, 1.0) == 5.0
    assert percentile([7.0] * 3, 0.99) == 7.0
    assert min_samples_for(0.5, 10) == 20
    with pytest.raises(ValueError):
        percentile([], 0.5)


# ----------------------------------------------------------------------
# rate ladder
# ----------------------------------------------------------------------


def fake_capacity(capacity: float, calls: list[float]):
    """A step measurer for a server that meets the limit up to
    ``capacity`` req/s and misses it above."""

    def measure(rate: float) -> StepResult:
        calls.append(rate)
        ok = rate <= capacity
        return StepResult(rate, 10, 10, 0, 0, 50.0 if ok else 500.0, 0.0,
                          False, passed=ok)

    return measure


@pytest.mark.parametrize("capacity", [5.0, 13.0, 19.9, 20.0, 27.0, 31.0])
def test_ladder_finds_the_highest_rung_under_capacity(capacity):
    calls: list[float] = []
    probe_passed = 20.0 <= capacity
    peak, steps = rate_ladder(fake_capacity(capacity, calls), 20.0,
                              probe_passed, factor=1.1, max_steps=20)
    rungs = [20.0 * 1.1 ** k for k in range(-20, 21)]
    assert peak == pytest.approx(max(r for r in rungs if r <= capacity))
    # Adjacent steps at most 10 % apart, and it stops at the first
    # step that changes the verdict.
    assert all(s.passed == (s.rate <= capacity) for s in steps)
    assert sum(s.passed != probe_passed for s in steps) == 1


def test_ladder_reports_a_capped_climb_and_a_failed_descent():
    peak, steps = rate_ladder(fake_capacity(1e9, []), 20.0, True,
                              factor=1.2, max_steps=3)
    assert len(steps) == 3 and peak == pytest.approx(20.0 * 1.2 ** 3)
    peak, steps = rate_ladder(fake_capacity(0.0, []), 20.0, False,
                              factor=2.0, max_steps=8, min_rate=1.0)
    assert math.isnan(peak) and [s.rate for s in steps] == [10, 5, 2.5, 1.25]


def test_judge_step_counts_late_and_wrong_answers_and_backlog():
    fast = [Outcome(10.0, 0.1, True, "/score", 0.5) for _ in range(99)]
    step = judge_step(20.0, fast, 5.0, 0.9, 100.0, min_tail=9)
    assert step.passed and step.failed == 0
    late = fast + [Outcome(1500.0, 0.1, True, "/score", 1.0)]
    step = judge_step(20.0, late, 5.0, 0.9, 100.0)
    assert not step.passed and step.failed == 1 and step.wrong == 0
    wrong = fast + [Outcome(10.0, 0.1, False, "/score", 1.0)]
    step = judge_step(20.0, wrong, 5.0, 0.9, 100.0)
    assert not step.passed and step.wrong == 1
    backlog = fast + [Outcome(90.0, 0.1, True, "/score", 7.0)]
    assert judge_step(20.0, backlog, 5.0, 0.9, 100.0).backlog


class _FakeHandler(BaseHTTPRequestHandler):
    """One request at a time (a server-wide lock), fixed service time."""

    protocol_version = "HTTP/1.1"
    wbufsize = -1  # headers and body leave in one write

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        with server.lock:
            server.connections.add(self.client_address)
            delay = server.first_delay if not server.served else server.service
            server.served += 1
            time.sleep(delay)
        payload = json.dumps({"echo": json.loads(body)["i"]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def fake_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.connections = set()
    server.served = 0
    server.service = 0.02  # capacity: 50 req/s
    server.first_delay = 0.02
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _requests(offsets):
    return [
        Request(float(due), "/x", json.dumps({"i": i}).encode(),
                (lambda i: lambda body: json.loads(body)["echo"] == i)(i))
        for i, due in enumerate(offsets)
    ]


def test_open_loop_times_from_due_time_over_keepalive(fake_server):
    # The first request stalls 300 ms; the two due behind it on the
    # single connection are charged the wait.
    fake_server.first_delay = 0.3
    outcomes = run_open_loop("127.0.0.1", fake_server.server_address[1],
                             _requests([0.0, 0.01, 0.02]), connections=1)
    assert [o.correct for o in outcomes] == [True] * 3
    assert all(o.latency_ms >= 250.0 for o in outcomes)
    assert len(fake_server.connections) == 1


def test_ladder_against_a_fake_server_of_known_capacity(fake_server):
    port = fake_server.server_address[1]
    rng = np.random.default_rng(3)

    def measure(rate):
        offsets = poisson_offsets(rng, rate, int(rate * 1.5))
        outcomes = run_open_loop("127.0.0.1", port, _requests(offsets), 2)
        return judge_step(rate, outcomes, offsets[-1], 0.9, 100.0,
                          min_tail=0)

    assert measure(10.0).passed
    overloaded = measure(100.0)  # twice the capacity
    assert not overloaded.passed and overloaded.wrong == 0
    peak, steps = rate_ladder(measure, 10.0, True, factor=1.5, max_steps=6)
    assert 10.0 <= peak <= 50.0
    assert not steps[-1].passed
    # Keep-alive: the two generator threads reuse their connections.
    assert len(fake_server.connections) <= 2 * (len(steps) + 2)


# ----------------------------------------------------------------------
# span self-time arithmetic
# ----------------------------------------------------------------------


def test_span_self_time_per_pair():
    from pipeline import span_layers

    def rec(i, name, dur, parent=None):
        return {"name": name, "ts": 0.0, "dur": dur, "pid": 1, "tid": 1,
                "id": i, "parent": parent, "attrs": {}}

    records = [
        rec(1, "estep", 10.0),
        rec(2, "estep.L_topo", 4.0, 1),
        rec(3, "estep.L_label", 1.0, 2),
        rec(4, "estep.L_pattern", 0.5, 2),
        rec(5, "estep.update", 3.0, 1),
        rec(6, "estep.update", 1.0, 1),
        rec(7, "dstep.fit", 2.0),
    ]
    layers = span_layers(records, pairs=10**9)  # 1 s self = 1 ns/pair
    assert layers["estep.L_topo_ns_per_pair"] == pytest.approx(2.5)
    assert layers["estep.L_label_ns_per_pair"] == pytest.approx(1.0)
    assert layers["estep.L_pattern_ns_per_pair"] == pytest.approx(0.5)
    assert layers["estep.update_ns_per_pair"] == pytest.approx(4.0)
    assert layers["estep.sample_ns_per_pair"] == 0.0
    assert layers["estep.fit_s"] == pytest.approx(10.0)
    assert layers["dstep.fit_s"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# input cache
# ----------------------------------------------------------------------


def test_cache_rebuilds_on_fingerprint_change(tmp_path):
    builds: list[Path] = []

    def build(out: Path) -> str:
        builds.append(out)
        (out / "graph.tsv").write_text("# nodes=2\n0\t1\td\n")
        return "sha256:aaa"

    cache = InputCache(tmp_path, "src1", {"graph": 2})
    params = {"tier": "xlarge", "seed": 1}
    entry, meta = cache.get_or_build("graph", params, build)
    assert meta["fingerprint"] == "sha256:aaa" and len(builds) == 1
    assert cache.get_or_build("graph", params, build)[0] == entry
    assert len(builds) == 1  # cached
    assert cache.validate("graph", params, "sha256:aaa")
    # A consumer observing another fingerprint drops the entry ...
    assert not cache.validate("graph", params, "sha256:bbb")
    assert not entry.exists()
    # ... and the next use rebuilds it rather than measuring stale input.
    cache.get_or_build("graph", params, build)
    assert len(builds) == 2
    # A source change is a different key; old entries are evicted.
    changed = InputCache(tmp_path, "src2", {"graph": 2})
    assert changed.key("graph", params) != cache.key("graph", params)
    for seed in (2, 3, 4):
        changed.get_or_build("graph", {"tier": "xlarge", "seed": seed}, build)
    assert len(list(tmp_path.glob("graph-*"))) == 2


def test_failed_build_leaves_no_entry(tmp_path):
    def build(out: Path) -> str:
        (out / "partial").write_text("x")
        raise RuntimeError("interrupted")

    cache = InputCache(tmp_path, "src", {"graph": 2})
    with pytest.raises(RuntimeError):
        cache.get_or_build("graph", {"seed": 1}, build)
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# the command itself
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    import re

    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.E2E_UNITS
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.LAYER_UNITS
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")


def test_exits_nonzero_without_a_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "discover-xlarge", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
