"""DeepDirect benchmark: one command, every workload, checked outputs.

    python3 perfbench/run.py --workload discover-xlarge --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout; there is nothing to build (the program
is the pure-Python package under ``src/``).  Inputs are built outside
every timed interval and cached in ``.perfbench_cache/``: the xlarge
social network and the served artifact once per checkout, each seed's
hidden-direction input once per seed; a cached input whose tie
fingerprint does not match is rebuilt, never measured.  Each timed step
runs in a fresh child process, so interpreter start and imports are
never timed and peak memory is the kernel's high-water mark of the
process that did the work.  Self-tests of the benchmark's own logic:
``python3 -m pytest perfbench/tests``.

Workloads (``BENCHMARK.json`` records why each exists).  Both end in a
served DeepDirect artifact, so every end-to-end metric applies to both:

``discover-xlarge``
    The paper-scale out-of-core batch pipeline on the perf harness's
    xlarge graph (62,500 nodes, ~2M oriented ties, 30 % of directed ties
    hidden): TSV ingest -> graph store -> E-Step + D-Step fit -> Eq. 28
    discovery -> artifact export, then one server started on the
    exported artifact and probed.
``serve-xlarge``
    Keep-alive serving of a DeepDirect artifact trained once per
    checkout on that graph: cold starts, the probe, and Eq. 28
    discovery of every hidden tie through ``/discover``.

The probe is open-loop Poisson load at 20 req/s lasting ``--seconds``
over 2 persistent HTTP/1.1 connections (80 % Zipf ``/score``, 20 %
``/discover``, 64 pairs each).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones, which both workloads measure in full: spans around
public calls, the program's own E-Step spans through an active
``repro.obs.Tracer``, standalone timed calls of internal entry points,
the server's ``/metrics`` and a rate ladder.  The last stdout line is
the JSON result; a failed check or request counts in ``failed`` and
makes ``correct`` false.  Without a program to measure (no
``src/repro`` in the working directory) the exit code is 2 and no
result is printed.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    CACHE_DIRNAME,
    ESTEP_SPANS,
    REQUEST_PAIRS,
    BenchError,
    InputCache,
    child_env,
    dir_mb,
    emit,
    log,
    median,
    min_samples_for,
    percentile,
    run_child,
    source_digest,
    stop_process,
    vm_hwm_mb,
)
from loadgen import (
    Request,
    judge_step,
    poisson_offsets,
    rate_ladder,
    run_open_loop,
)

#: Generator seed of the xlarge social network, built once per checkout;
#: ``--seed`` chooses the hidden ties, the training seed and the traffic.
GENERATOR_SEED = 0
#: E-Step pair budget of the discovery pipeline.
XLARGE_PAIRS = 2_000_000
#: Discovery accuracy on the hidden ties below this fails the run.
ACCURACY_FLOOR = 0.58
#: Ingest repetitions per run; discover-xlarge's ``setup_s`` is their
#: median.
INGEST_REPS = 3
#: Pair budget of the large-tier in-cache / HOGWILD probe (traced runs).
LARGE_PROBE_PAIRS = 1_000_000

#: The served artifact is trained once per checkout, on the input of
#: this seed, with the discovery pipeline's settings.
SERVE_SEED = 0
SERVE_PAIRS = XLARGE_PAIRS
#: Cold starts per serve-xlarge run; its ``setup_s`` is their median.
COLD_STARTS = 3
CONNECTIONS = 2
DISCOVER_SHARE = 0.2
ZIPF_EXPONENT = 1.1
PROBE_RATE = 20.0
#: Reported latency quantile of the probe: the highest one that a
#: ``run_seconds`` probe (500 requests) supports with MIN_TAIL samples
#: beyond it.
PROBE_Q = 0.98
MIN_TAIL = 10
WARMUP_REQUESTS = 40
#: Hidden ties per ``/discover`` request of the served-accuracy pass.
BULK_PAIRS = 16_384
#: Rate ladder (traced runs): each step sends STEP_REQUESTS requests, so
#: its p90 has MIN_TAIL samples beyond it; a step meets the limit when
#: that p90 is within LIMIT_MS with no failure and no backlog.  The probe
#: is judged the same way.
LIMIT_Q = 0.90
LIMIT_MS = 100.0
STEP_REQUESTS = 100
LADDER_FACTOR = 1.1
LADDER_MAX_STEPS = 8
#: Arrival times and the /score-/discover mix come from one fixed
#: Poisson draw that the probe and every ladder step replay, scaled to
#: their rate (common random numbers); ``--seed`` picks the ties every
#: request asks about.  Against one server, independent arrival draws
#: moved the probe's p50 by up to 25 % and its p99 by up to 15 %, and the
#: ladder's peak by several steps; replaying one draw, repeated probes
#: agreed within 4 %.
ARRIVALS_SEED = 20190408

#: Cache entries kept per kind (a serving artifact is ~1 GB, a seed's
#: input ~16 MB: enough for every seed of a full benchmark session, so
#: the served artifact's input stays cached for serve-xlarge's traced
#: runs).
CACHE_KEEP = {"base": 1, "graph": 64, "serve": 1}

#: Unit of every end-to-end metric; every workload reports all of them.
E2E_UNITS = {
    "setup_s": "s",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "score_p50_ms": "ms",
    "score_p98_ms": "ms",
}

#: Unit of every per-layer metric; every traced run reports all of them.
LAYER_UNITS = {
    "graph.read_tsv_s": "s",
    "graph.store_write_s": "s",
    "graph.store_open_s": "s",
    "graph.tie_ids_us": "us",
    "samplers.setup_s": "s",
    "samplers.plan_s": "s",
    "samplers.plan_mb": "MB",
    "samplers.redraw_ratio": "ratio",
    "patterns.triads_s": "s",
    "patterns.triads_mb": "MB",
    "pipeline_s": "s",
    "fit_pairs_per_s": "pairs/s",
    "pipeline.rss_mb": "MB",
    "estep.fit_s": "s",
    **{f"{s}_ns_per_pair": "ns" for s in ESTEP_SPANS},
    **{f"large.{s}_ns_per_pair": "ns" for s in ESTEP_SPANS},
    "estep.cliff_ratio": "ratio",
    "hogwild.plan_mb": "MB",
    "hogwild.fit_pairs_per_s": "pairs/s",
    "hogwild.parallel_efficiency": "ratio",
    "hogwild.straggler_lag_pairs": "pairs",
    "hogwild.worker_peak_rss_mb": "MB",
    "dstep.fit_s": "s",
    "dstep.n_iter": "count",
    "discovery.apply_s": "s",
    "artifact.save_s": "s",
    "artifact.load_s": "s",
    "engine.score_us_per_pair": "us",
    "engine.cache_hit_ratio": "ratio",
    "engine.round_requests": "count",
    "server.rss_mb": "MB",
    "server.score_p50_ms": "ms",
    "server.score_mean_ms": "ms",
    "server.transport_gap_ms": "ms",
    "load.client_score_p50_ms": "ms",
    "load.client_score_mean_ms": "ms",
    "load.gen_late_ms": "ms",
    "load.peak_rps": "req/s",
    "trace.overhead_s": "s",
}


@dataclass
class Context:
    root: Path
    cache: InputCache
    work: Path
    seed: int
    seconds: int
    trace: bool


@dataclass
class Result:
    metrics: dict[str, float]
    layers: dict[str, float]
    checks: dict[str, bool]
    attempted: int = 0  # operations beyond the checks (requests sent)
    failed: int = 0
    notes: list[str] = field(default_factory=list)


def graph_input(ctx: Context, seed: int) -> tuple[Path, dict, dict]:
    """A seed's xlarge discovery input (cached): TSV + hidden truth."""
    def build_base(out: Path) -> str:
        log("set-up: generating the xlarge social network")
        return run_child(ctx.root, "inputs.py", [
            "base", "--seed", GENERATOR_SEED, "--out", out,
        ])["fingerprint"]

    base, base_meta = ctx.cache.get_or_build(
        "base", {"tier": "xlarge", "generator_seed": GENERATOR_SEED},
        build_base,
    )
    params = {"tier": "xlarge", "seed": seed,
              "base": base_meta["fingerprint"]}

    def build(out: Path) -> str:
        log(f"set-up: hiding directions for seed {seed}")
        return run_child(ctx.root, "inputs.py", [
            "graph", "--base", base / "base.store", "--seed", seed,
            "--out", out,
        ])["fingerprint"]

    entry, meta = ctx.cache.get_or_build("graph", params, build)
    return entry, meta, params


# ----------------------------------------------------------------------
# The discovery pipeline
# ----------------------------------------------------------------------


@dataclass
class Ingested:
    entry: Path  # the seed's cached input (graph.tsv, truth.npy)
    ingest: dict  # pipeline.py ingest result


def ingest_input(ctx: Context, seed: int, reps: int) -> Ingested:
    """TSV ingest of ``seed``'s input, rebuilding a stale cached input."""
    for _ in range(2):
        entry, _, params = graph_input(ctx, seed)
        ingest = run_child(ctx.root, "pipeline.py", [
            "ingest", "--tsv", entry / "graph.tsv", "--work", ctx.work,
            "--reps", reps,
        ])
        if ctx.cache.validate("graph", params, ingest["fingerprint"]):
            return Ingested(entry, ingest)
        log("set-up: cached input does not match its fingerprint; rebuilding")
    raise BenchError("input fingerprint mismatch after a rebuild")


def run_pipeline(ctx: Context, data: Ingested, seed: int, trace: int) -> dict:
    """One fresh pipeline process: store open through artifact written
    (``ctx.work/artifact``); untraced, also the answers its server must
    give (``ctx.work/answers``)."""
    args = [
        "run", "--store", data.ingest["store"],
        "--truth", data.entry / "truth.npy",
        "--artifact", ctx.work / "artifact",
        "--pairs", XLARGE_PAIRS, "--seed", seed, "--trace", trace,
    ]
    if not trace:
        answers = ctx.work / "answers"
        answers.mkdir(exist_ok=True)
        args += ["--answers", answers]
    return run_child(ctx.root, "pipeline.py", args)


def pipeline_notes(data: Ingested, run: dict) -> list[str]:
    reps = data.ingest["reps"]
    return [
        f"ingest x{len(reps)}: "
        f"{[round(r['total_s'], 3) for r in reps]} s; pipeline "
        f"{run['pipeline_s']:.3f} s; {run['pairs']} pairs; accuracy "
        f"{run['accuracy']:.4f} on {run['n_hidden']} hidden ties "
        f"(floor {ACCURACY_FLOOR})",
        "pipeline stages: fit {fit_s:.2f} s, discovery {apply_s:.2f} s, "
        "export {save_s:.2f} s; cpu user {utime:.2f} s, sys {stime:.2f} "
        "s, {nivcsw} involuntary context switches".format(**run["diag"]),
    ]


def pipeline_checks(run: dict) -> dict[str, bool]:
    return {
        "accuracy_floor": run["accuracy"] >= ACCURACY_FLOOR,
        "artifact_reloads_identical": run["reload_identical"],
        "discovery_applied": run["applied_ok"],
    }


def pipeline_layers(
    ctx: Context, data: Ingested, seed: int, run: dict,
    checks: dict[str, bool],
) -> dict[str, float]:
    """Per-layer numbers of the discovery pipeline whose untraced run is
    ``run``: a traced rerun in a fresh process (so both start equally
    cold), the ingest stages and the large-tier probe."""
    traced = run_pipeline(ctx, data, seed, 1)
    # Tracing is passive: the traced fit must train the same model.
    checks["traced_run_identical"] = traced["accuracy"] == run["accuracy"]
    reps = data.ingest["reps"]
    layers = {
        "graph.read_tsv_s": median([r["read_tsv_s"] for r in reps]),
        "graph.store_write_s": median([r["store_write_s"] for r in reps]),
        "graph.store_open_s": median([r["store_open_s"] for r in reps]),
        "trace.overhead_s": traced["pipeline_s"] - run["pipeline_s"],
        # The untraced pipeline's wall time and fit throughput.  Not
        # end-to-end metrics: both are pure CPU, and on a shared 2-vCPU
        # Xeon VM (2.1 GHz) CPU speed drifted by +-20 % over minutes, so
        # three batches of ten runs of identical code spread pipeline_s
        # by 13, 24 and 26 % and fit_pairs_per_s by up to 32 % (IQR over
        # median), beyond the 25 % a bound may allow.
        "pipeline_s": run["pipeline_s"],
        "fit_pairs_per_s": run["fit_pairs_per_s"],
        "pipeline.rss_mb": run["peak_rss_mb"],
        **traced["layers"],
        **run_child(ctx.root, "pipeline.py", [
            "hogwild", "--pairs", LARGE_PROBE_PAIRS, "--seed", seed,
        ])["layers"],
    }
    layers["estep.cliff_ratio"] = (
        sum(layers[f"{s}_ns_per_pair"] for s in ESTEP_SPANS)
        / sum(layers[f"large.{s}_ns_per_pair"] for s in ESTEP_SPANS)
    )
    return layers


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


class Traffic:
    """Requests over the served graph, with the answers they must get.

    ``answers`` holds what :func:`inputs.write_answers` wrote for the
    served model.  The seed picks the ties: ``/score`` keys are
    Zipf-distributed over a seeded ranking of all oriented ties,
    ``/discover`` pairs uniform over the undirected ties, half of them
    given reversed.
    """

    def __init__(self, answers: Path, seed: int) -> None:
        self.tie_pairs = np.load(answers / "tie_pairs.npy")
        self.tie_scores = np.load(answers / "tie_scores.npy")
        self.und_pairs = np.load(answers / "und_pairs.npy")
        self.und_directions = np.load(answers / "und_directions.npy")
        self.rng = np.random.default_rng([seed, 7])
        n = len(self.tie_pairs)
        # Zipf over a seeded ranking of all oriented ties: the head hits
        # the engine's LRU, the tail misses it.
        self.ranking = self.rng.permutation(n)
        weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(weights) / weights.sum()

    def _score(self, due: float) -> Request:
        ranks = np.searchsorted(self.cdf, self.rng.random(REQUEST_PAIRS))
        ids = self.ranking[np.minimum(ranks, len(self.cdf) - 1)]
        expected = self.tie_scores[ids]

        def check(body: bytes) -> bool:
            got = np.asarray(json.loads(body)["scores"], dtype=np.float64)
            return np.array_equal(got, expected)

        body = json.dumps({"pairs": self.tie_pairs[ids].tolist()}).encode()
        return Request(due, "/score", body, check)

    def _discover(self, due: float) -> Request:
        rows = self.rng.integers(0, len(self.und_pairs), REQUEST_PAIRS)
        pairs = self.und_pairs[rows].copy()
        flip = self.rng.random(REQUEST_PAIRS) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
        expected = self.und_directions[rows]

        def check(body: bytes) -> bool:
            got = np.asarray(json.loads(body)["directions"], dtype=np.int64)
            return np.array_equal(got, expected)

        body = json.dumps({"pairs": pairs.tolist()}).encode()
        return Request(due, "/discover", body, check)

    def schedule(self, rate: float, n: int) -> list[Request]:
        """The first ``n`` arrivals of the shared pattern at ``rate``,
        each asking about this seed's ties."""
        offsets = poisson_offsets(np.random.default_rng(ARRIVALS_SEED), rate, n)
        discover = np.random.default_rng([ARRIVALS_SEED, 1]).random(n) < (
            DISCOVER_SHARE
        )
        return [
            self._discover(float(due)) if d else self._score(float(due))
            for due, d in zip(offsets, discover)
        ]


def serve_artifact(ctx: Context) -> tuple[Path, dict, dict]:
    """The served artifact and its expected answers (cached)."""
    params = {"tier": "xlarge", "seed": SERVE_SEED, "pairs": SERVE_PAIRS,
              "generator_seed": GENERATOR_SEED}

    def build(out: Path) -> str:
        entry, _, _ = graph_input(ctx, SERVE_SEED)
        log("set-up: training the served artifact")
        return run_child(ctx.root, "inputs.py", [
            "serve", "--tsv", entry / "graph.tsv",
            "--truth", entry / "truth.npy", "--seed", SERVE_SEED,
            "--pairs", SERVE_PAIRS, "--out", out,
        ])["fingerprint"]

    sentry, smeta = ctx.cache.get_or_build("serve", params, build)
    return sentry, smeta, params


def launch_server(ctx: Context, artifact: Path):
    """Start a server process; return ``(proc, port, cold_start_s,
    load_s, healthz)``.  The caller owns (and must stop) ``proc``."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).parent / "server.py"),
         "--artifact", str(artifact)],
        cwd=ctx.root, env=child_env(ctx.root), stdout=subprocess.PIPE,
        text=True,
    )
    try:
        load_start = json.loads(proc.stdout.readline())["load_start"]
        ready = json.loads(proc.stdout.readline())
        conn = http.client.HTTPConnection("127.0.0.1", ready["port"],
                                          timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            healthz = json.loads(response.read())
            cold_start_s = time.perf_counter() - load_start
        finally:
            conn.close()
        if response.status != 200:
            raise BenchError(f"/healthz answered {response.status}")
    except (ValueError, KeyError, OSError) as exc:
        stop_process(proc)
        raise BenchError(f"server failed to start: {exc}") from exc
    except BaseException:
        stop_process(proc)
        raise
    return proc, ready["port"], cold_start_s, ready["load_s"], healthz


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def served_discovery(port: int, answers: Path) -> tuple[float, bool]:
    """Eq. 28 discovery of every hidden tie through ``/discover``, every
    other pair reversed: ``(accuracy against the truth, identical to the
    in-process model)``."""
    truth = np.load(answers / "truth.npy")
    expected = np.load(answers / "truth_directions.npy")
    pairs = truth.copy()
    pairs[1::2] = pairs[1::2, ::-1]
    got = []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for start in range(0, len(pairs), BULK_PAIRS):
            body = json.dumps(
                {"pairs": pairs[start:start + BULK_PAIRS].tolist()}
            ).encode()
            conn.request("POST", "/discover", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            if response.status != 200:
                raise BenchError(f"/discover answered {response.status}")
            got.append(np.asarray(json.loads(payload)["directions"],
                                  dtype=np.int64).reshape(-1, 2))
    finally:
        conn.close()
    served = np.concatenate(got)
    accuracy = float(np.all(served == truth, axis=1).mean())
    return accuracy, bool(np.array_equal(served, expected))


@dataclass
class Served:
    """What the probe (and, traced, the ladder) saw of one server."""
    p50_ms: float
    tail_ms: float  # the PROBE_Q quantile
    rss_mb: float
    attempted: int
    failed: int
    notes: list[str]
    layers: dict[str, float]


def drive_server(ctx: Context, port: int, answers: Path) -> Served:
    """Warm-up, then the probe; traced, ``/metrics`` and the rate ladder.

    Every probe request must answer correctly and in time; ladder steps
    are allowed to be late (that is what ends the ladder) but never
    wrong.
    """
    traffic = Traffic(answers, ctx.seed)
    run_open_loop("127.0.0.1", port,
                  traffic.schedule(PROBE_RATE, WARMUP_REQUESTS), CONNECTIONS)
    n_probe = max(min_samples_for(PROBE_Q, MIN_TAIL),
                  int(round(PROBE_RATE * ctx.seconds)))
    requests = traffic.schedule(PROBE_RATE, n_probe)
    probe = run_open_loop("127.0.0.1", port, requests, CONNECTIONS)
    probe_step = judge_step(PROBE_RATE, probe, requests[-1].due_s,
                            LIMIT_Q, LIMIT_MS)
    latencies = [o.latency_ms for o in probe]
    served = Served(
        p50_ms=percentile(latencies, 0.50),
        tail_ms=percentile(latencies, PROBE_Q, min_tail=MIN_TAIL),
        rss_mb=math.nan,
        attempted=len(probe),
        failed=probe_step.failed,
        notes=[],
        layers={},
    )
    served.notes.append(
        f"probe {PROBE_RATE:g} req/s: {len(probe)} samples, p50 "
        f"{served.p50_ms:.2f} ms, p{PROBE_Q * 100:g} {served.tail_ms:.2f} ms "
        f"(nearest rank, at least {MIN_TAIL} samples beyond), mean "
        f"{float(np.mean(latencies)):.2f} ms; attempted "
        f"{probe_step.attempted} succeeded {probe_step.succeeded} failed "
        f"{probe_step.failed}"
    )
    if ctx.trace:
        server_metrics = get_json(port, "/metrics")["metrics"]

        def measure(rate: float):
            step = traffic.schedule(rate, STEP_REQUESTS)
            outcomes = run_open_loop("127.0.0.1", port, step, CONNECTIONS)
            return judge_step(rate, outcomes, step[-1].due_s, LIMIT_Q,
                              LIMIT_MS)

        peak, steps = rate_ladder(measure, PROBE_RATE, probe_step.passed,
                                  LADDER_FACTOR, LADDER_MAX_STEPS)
        if math.isnan(peak):
            raise BenchError("no ladder step met the latency limit")
        served.attempted += sum(s.attempted for s in steps)
        served.failed += sum(s.wrong for s in steps)
        served.notes += [
            f"ladder {s.rate:7.2f} req/s: attempted {s.attempted} succeeded "
            f"{s.succeeded} failed {s.failed} (wrong {s.wrong}) "
            f"p{LIMIT_Q * 100:g} {s.limit_ms:.1f} ms, generator late p99 "
            f"{s.late_ms:.2f} ms, backlog {s.backlog} -> "
            f"{'meets' if s.passed else 'misses'}"
            for s in steps
        ]
        served.notes.append(
            f"peak {peak:.2f} req/s at p{LIMIT_Q * 100:g} <= {LIMIT_MS:g} "
            f"ms (probe p{LIMIT_Q * 100:g} {probe_step.limit_ms:.1f} ms)"
        )
        # /score time inside the handler (server histogram, which covers
        # warm-up and probe) against the client's view of the same
        # requests: the difference is spent outside the engine, in
        # transport and in queueing behind earlier responses.  Means,
        # because the stall hits a minority of requests and a median
        # would not see it.
        score = [o.latency_ms for o in probe if o.path == "/score"]
        hist = "serve.http.score.latency_ms"
        server_mean = server_metrics[f"{hist}_sum"] / server_metrics[
            f"{hist}_count"
        ]
        served.layers = {
            "engine.cache_hit_ratio": server_metrics["cache_hit_rate"],
            "engine.round_requests":
                server_metrics[f"{hist}_count"]
                / server_metrics["serve.rounds"],
            "server.score_p50_ms": server_metrics[f"{hist}_p50"],
            "server.score_mean_ms": server_mean,
            "load.client_score_p50_ms": percentile(score, 0.50),
            "load.client_score_mean_ms": float(np.mean(score)),
            "server.transport_gap_ms": float(np.mean(score)) - server_mean,
            "load.gen_late_ms": probe_step.late_ms,
            "load.peak_rps": peak,
        }
    return served


# ----------------------------------------------------------------------
# discover-xlarge
# ----------------------------------------------------------------------


def discover_xlarge(ctx: Context) -> Result:
    data = ingest_input(ctx, ctx.seed, INGEST_REPS)
    run = run_pipeline(ctx, data, ctx.seed, 0)
    result = Result(
        metrics={},
        layers={},
        checks=pipeline_checks(run),
        notes=pipeline_notes(data, run),
    )
    # The exported artifact, served.
    server, port, *_ = launch_server(ctx, ctx.work / "artifact")
    try:
        served = drive_server(ctx, port, ctx.work / "answers")
        served.rss_mb = vm_hwm_mb(server.pid)
    finally:
        stop_process(server)
    result.metrics = {
        "setup_s": median([r["total_s"] for r in data.ingest["reps"]]),
        "accuracy": run["accuracy"],
        "peak_rss_mb": max(run["peak_rss_mb"], served.rss_mb),
        "artifact_mb": run["artifact_mb"],
        "score_p50_ms": served.p50_ms,
        "score_p98_ms": served.tail_ms,
    }
    result.attempted, result.failed = served.attempted, served.failed
    result.notes += served.notes
    if ctx.trace:
        result.layers = {
            **served.layers,
            "server.rss_mb": served.rss_mb,
            # The pipeline's own layers win where both measure.
            **pipeline_layers(ctx, data, ctx.seed, run, result.checks),
        }
    return result


# ----------------------------------------------------------------------
# serve-xlarge
# ----------------------------------------------------------------------


def serve_xlarge(ctx: Context) -> Result:
    server = None
    try:
        for _ in range(2):
            entry, meta, params = serve_artifact(ctx)
            cold, loads = [], []
            for _ in range(COLD_STARTS):
                if server is not None:
                    stop_process(server)
                server, port, cold_s, load_s, healthz = launch_server(
                    ctx, entry / "artifact"
                )
                cold.append(cold_s)
                loads.append(load_s)
                if healthz.get("fingerprint") != meta["fingerprint"]:
                    break
            if ctx.cache.validate("serve", params, healthz["fingerprint"]):
                break
            log("set-up: cached artifact does not match its fingerprint; "
                "rebuilding")
            stop_process(server)
            server = None
        else:
            raise BenchError("artifact fingerprint mismatch after a rebuild")
        served = drive_server(ctx, port, entry)
        accuracy, discovery_identical = served_discovery(port, entry)
        served.rss_mb = vm_hwm_mb(server.pid)
    finally:
        if server is not None:
            stop_process(server)
    result = Result(
        metrics={
            "setup_s": median(cold),
            "accuracy": accuracy,
            "peak_rss_mb": served.rss_mb,
            "artifact_mb": dir_mb(entry / "artifact"),
            "score_p50_ms": served.p50_ms,
            "score_p98_ms": served.tail_ms,
        },
        layers={},
        checks={
            "accuracy_floor": accuracy >= ACCURACY_FLOOR,
            "served_discovery_identical": discovery_identical,
        },
        attempted=served.attempted,
        failed=served.failed,
        notes=[f"cold starts {[round(c, 3) for c in cold]} s",
               f"served accuracy {accuracy:.4f} over every hidden tie"]
        + served.notes,
    )
    if ctx.trace:
        # The pipeline that trained the served artifact (same input,
        # seed and pair budget), measured layer by layer.
        data = ingest_input(ctx, SERVE_SEED, 1)
        run = run_pipeline(ctx, data, SERVE_SEED, 0)
        result.checks.update(pipeline_checks(run))
        result.layers = {
            **pipeline_layers(ctx, data, SERVE_SEED, run, result.checks),
            # Serving's own layers win where both measure.
            **served.layers,
            "server.rss_mb": served.rss_mb,
            "artifact.load_s": median(loads),
            **run_child(ctx.root, "pipeline.py", [
                "engine", "--artifact", entry / "artifact",
                "--seed", ctx.seed,
            ])["layers"],
        }
    return result


WORKLOADS = {
    "discover-xlarge": discover_xlarge,
    "serve-xlarge": serve_xlarge,
}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {root / 'src' / 'repro'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    cache_root = root / CACHE_DIRNAME
    work = cache_root / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    # Children inherit this: their temporary files stay in the checkout.
    os.environ["TMPDIR"] = str(work)
    # On SIGTERM unwind through the ``finally`` blocks that stop children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ctx = Context(
        root=root,
        cache=InputCache(cache_root, source_digest(root), CACHE_KEEP),
        work=work,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    units = LAYER_UNITS if args.trace else E2E_UNITS
    try:
        result = WORKLOADS[args.workload](ctx)
        values = result.layers if args.trace else result.metrics
        if set(values) != set(units):
            raise BenchError(
                f"measured {sorted(set(values) ^ set(units))} "
                "not as the manifest lists them"
            )
    except BenchError as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in result.notes:
        print(f"{args.workload} seed={args.seed}: {note}")
    failed_checks = [name for name, ok in result.checks.items() if not ok]
    for name in failed_checks:
        print(f"{args.workload} seed={args.seed}: CHECK FAILED {name}")
    failed = result.failed + len(failed_checks)
    emit(
        correct=failed == 0,
        attempted=result.attempted + len(result.checks),
        failed=failed,
        metrics={name: (values[name], unit) for name, unit in units.items()},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
