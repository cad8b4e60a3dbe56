"""Timed child for the discovery workloads: one fresh process per step.

Every timer starts after the imports, around public ``repro`` calls.

``ingest``
    TSV parse -> ``save_store`` -> ``MixedSocialNetwork.from_store``,
    repeated ``--reps`` times (the workload's ``setup_s`` is their
    median).  Reports each rep's stage times and the reopened graph's
    tie fingerprint.
``run``
    The batch pipeline, store open through artifact written:
    ``from_store`` -> ``DeepDirectModel.fit`` -> ``discover_and_apply``
    -> ``to_artifact``.  Then, untimed: Eq. 28 accuracy on the hidden
    ties, the kernel's peak-RSS mark, a reload of the artifact that must
    reproduce the in-process scores bit for bit, and the answers a server
    of the exported artifact must give (into ``--answers``, when given,
    for the workload's serving phase).  With ``--trace 1``
    the pipeline runs under a ``repro.obs.Tracer`` and is followed by
    standalone timed calls of the layers ``fit`` reaches internally.
``hogwild``
    Layer probe for the in-cache regime (traced runs only): on the large
    tier, a sequential traced fit gives the E-Step per-pair costs the
    xlarge ones are compared with, and a ``workers=2`` fit gives the
    HOGWILD worker gauges and the workers' peak RSS.
``engine``
    Layer probe for serving (traced runs only): 64-pair ``tie_ids`` and
    uncached ``ScoringEngine.score_pairs`` timings on a served artifact.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from common import ESTEP_SPANS, REQUEST_PAIRS, dir_mb, vm_hwm_mb
from inputs import (
    KEEP_DIRECTED,
    deepdirect_config,
    social_network,
    write_answers,
)

from repro.apps import discover_and_apply, predict_directions
from repro.embedding.patterns import build_triad_neighborhoods
from repro.embedding.samplers import ConnectedPairSampler, SamplePlanner
from repro.graph import MixedSocialNetwork, read_tie_list
from repro.models import DeepDirectModel
from repro.obs import (
    TrainerCallback,
    Tracer,
    phase_totals,
    span,
    use_tracer,
)
from repro.serve import ScoringEngine, load_model_artifact

#: Oriented ties compared between the model and its reloaded artifact.
RELOAD_SAMPLE = 4096


def plan_mb(plan) -> float:
    """Bytes held by a sample plan's arrays, in MiB (an exact count)."""
    return (plan.e.nbytes + plan.successor.nbytes
            + plan.negatives.nbytes) / 2**20


def span_layers(records: list[dict], pairs: int) -> dict[str, float]:
    """Per-layer numbers from span records of one traced pipeline.

    Self time (duration minus the time covered by child spans, via
    :func:`repro.obs.phase_totals`) of each E-Step span, in ns per
    trained pair; total seconds of the fit-level spans.
    """
    totals = phase_totals(records)

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    out = {
        f"{name}_ns_per_pair":
            totals.get(name, {}).get("self_s", 0.0) * 1e9 / max(pairs, 1)
        for name in ESTEP_SPANS
    }
    out["estep.fit_s"] = total("estep")
    out["dstep.fit_s"] = total("dstep.fit")
    out["discovery.apply_s"] = total("bench.discover_and_apply")
    out["artifact.save_s"] = total("bench.to_artifact")
    return out


def per_call_us(fn, calls: int = 200, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean wall time of ``calls`` calls."""
    fn()
    means = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(means)


def request_pairs(network, rng: np.random.Generator, k: int) -> np.ndarray:
    ids = rng.integers(0, network.n_ties, size=k)
    return np.column_stack([network.tie_src[ids], network.tie_dst[ids]])


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------


def ingest(tsv: Path, work: Path, reps: int) -> dict:
    runs = []
    fingerprint = None
    store = None
    for rep in range(reps):
        store = work / f"graph.store.{rep}"
        shutil.rmtree(store, ignore_errors=True)
        t0 = time.perf_counter()
        network = read_tie_list(tsv)
        t1 = time.perf_counter()
        network.save_store(store)
        t2 = time.perf_counter()
        del network
        reopened = MixedSocialNetwork.from_store(store)
        t3 = time.perf_counter()
        fingerprint = reopened.store.fingerprint()
        del reopened
        runs.append({
            "read_tsv_s": t1 - t0,
            "store_write_s": t2 - t1,
            "store_open_s": t3 - t2,
            "total_s": t3 - t0,
        })
        if rep:
            shutil.rmtree(work / f"graph.store.{rep - 1}")
    return {"reps": runs, "fingerprint": fingerprint, "store": str(store)}


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def pipeline(store: Path, artifact: Path, pairs: int, seed: int):
    """The timed batch pipeline; returns ``(model, seconds, stages)``."""
    shutil.rmtree(artifact, ignore_errors=True)
    t0 = time.perf_counter()
    network = MixedSocialNetwork.from_store(store)
    # DeepDirectModel.fit opens its own "estep" and "dstep.fit" spans.
    model = DeepDirectModel(deepdirect_config(pairs, 1)).fit(
        network, seed=seed
    )
    t1 = time.perf_counter()
    with span("bench.discover_and_apply"):
        applied = discover_and_apply(model)
    t2 = time.perf_counter()
    with span("bench.to_artifact"):
        model.to_artifact(artifact)
    t3 = time.perf_counter()
    stages = {
        "fit_s": t1 - t0,
        "apply_s": t2 - t1,
        "save_s": t3 - t2,
        "applied_ok": bool(
            applied.n_undirected == 0
            and applied.n_directed == network.n_directed + network.n_undirected
        ),
    }
    return model, t3 - t0, stages


def standalone_layers(network, seed: int, pairs: int) -> dict[str, float]:
    """Timed calls of the entry points ``fit`` reaches only internally."""
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    start = time.perf_counter()
    sampler = ConnectedPairSampler(network)
    out["samplers.setup_s"] = time.perf_counter() - start

    # One plan segment of the sequential path: plan_epochs=1.0 epoch of
    # |C(G)| pairs, capped by the run's pair budget.
    plan_pairs = min(pairs, network.connected_pair_count())
    planner = SamplePlanner(sampler, 5, rng)
    start = time.perf_counter()
    plan = planner.plan(plan_pairs, 256)
    out["samplers.plan_s"] = time.perf_counter() - start
    out["samplers.plan_mb"] = plan_mb(plan)
    del plan
    sampler.sample_pairs(100_000, rng)
    stats = sampler.stats()
    out["samplers.redraw_ratio"] = (
        stats["rejection_redraws"] / max(stats["pair_draws"], 1)
    )

    start = time.perf_counter()
    build_triad_neighborhoods(network, 5, seed)
    out["patterns.triads_s"] = time.perf_counter() - start
    tracemalloc.start()
    build_triad_neighborhoods(network, 5, seed)
    out["patterns.triads_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    query = request_pairs(network, rng, REQUEST_PAIRS)
    out["graph.tie_ids_us"] = per_call_us(lambda: network.tie_ids(query))
    return out


def run(args) -> dict:
    store, artifact = Path(args.store), Path(args.artifact)
    truth = np.load(args.truth)
    result: dict = {}
    tracer = Tracer() if args.trace else None
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    with use_tracer(tracer):
        model, seconds, stages = pipeline(
            store, artifact, args.pairs, args.seed
        )
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    # The pipeline's own peak, before the untimed checks below allocate.
    peak_rss_mb = vm_hwm_mb()
    # Where the wall time went: CPU in this process, or preempted.
    result["diag"] = {
        "utime": r1.ru_utime - r0.ru_utime,
        "stime": r1.ru_stime - r0.ru_stime,
        "nivcsw": r1.ru_nivcsw - r0.ru_nivcsw,
        **stages,
    }
    pairs = int(model.embedding_.n_pairs_trained)
    if tracer is not None:
        records = tracer.snapshot()
        result["layers"] = span_layers(records, pairs)
        result["layers"]["dstep.n_iter"] = float(next(
            r["attrs"].get("n_iter", 0) for r in records
            if r["name"] == "dstep.fit"
        ))
    result.update({
        "pipeline_s": seconds,
        "pairs": pairs,
        "fit_pairs_per_s": pairs / stages["fit_s"],
        "peak_rss_mb": peak_rss_mb,
        "artifact_mb": dir_mb(artifact),
        "applied_ok": stages["applied_ok"],
    })

    predicted = predict_directions(model, truth)
    result["accuracy"] = float(np.all(predicted == truth, axis=1).mean())
    result["n_hidden"] = int(len(truth))

    rng = np.random.default_rng(args.seed)
    network = model.network
    sample = request_pairs(network, rng, RELOAD_SAMPLE)
    expected = model.directionality_batch(sample)
    if args.trace:
        engine = ScoringEngine(model, cache_size=0)
        query = sample[:REQUEST_PAIRS]
        result["layers"]["engine.score_us_per_pair"] = per_call_us(
            lambda: engine.score_pairs(query, use_cache=False)
        ) / REQUEST_PAIRS
        del engine
    if args.answers:
        write_answers(model, Path(args.answers))
    del model
    gc.collect()
    start = time.perf_counter()
    reloaded = load_model_artifact(artifact)
    load_s = time.perf_counter() - start
    result["reload_identical"] = bool(
        np.array_equal(reloaded.directionality_batch(sample), expected)
    )
    del reloaded
    gc.collect()
    if args.trace:
        result["layers"]["artifact.load_s"] = load_s
        # A freshly opened store, so the sampler set-up includes the
        # lazily built degree/CSR arrays exactly as inside ``fit``.
        result["layers"].update(
            standalone_layers(
                MixedSocialNetwork.from_store(store), args.seed, args.pairs
            )
        )
    return result


# ----------------------------------------------------------------------
# hogwild / engine probes (traced runs)
# ----------------------------------------------------------------------


class _FitEndLogs(TrainerCallback):
    def __init__(self) -> None:
        self.logs: dict = {}

    def on_fit_end(self, run, logs) -> None:
        self.logs = dict(logs)


def hogwild(args) -> dict:
    from repro.datasets import hide_directions
    from repro.embedding import DeepDirectEmbedding

    network = hide_directions(
        social_network("large", args.seed), KEEP_DIRECTED, seed=args.seed
    ).network

    tracer = Tracer()
    with use_tracer(tracer):
        result = DeepDirectEmbedding(deepdirect_config(args.pairs, 1)).fit(
            network, seed=args.seed
        )
    layers = {
        f"large.{name}": value
        for name, value in span_layers(
            tracer.snapshot(), int(result.n_pairs_trained)
        ).items()
        if name.endswith("_ns_per_pair")
    }

    # The HOGWILD parent plans the whole run before forking workers.
    layers["hogwild.plan_mb"] = plan_mb(
        SamplePlanner(
            ConnectedPairSampler(network), 5,
            np.random.default_rng(args.seed),
        ).plan(args.pairs, 256)
    )

    capture = _FitEndLogs()
    start = time.perf_counter()
    fitted = DeepDirectEmbedding(deepdirect_config(args.pairs, 2)).fit(
        network, seed=args.seed, callbacks=[capture]
    )
    seconds = time.perf_counter() - start
    layers["hogwild.fit_pairs_per_s"] = fitted.n_pairs_trained / seconds
    for name in ("hogwild.parallel_efficiency",
                 "hogwild.straggler_lag_pairs"):
        layers[name] = float(capture.logs[name])
    # Forked workers are this process's only children: the largest
    # child high-water mark is the busiest worker's peak.
    layers["hogwild.worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    return {"layers": layers}


def engine(args) -> dict:
    model = load_model_artifact(args.artifact)
    network = model.network
    query = request_pairs(network, np.random.default_rng(args.seed),
                          REQUEST_PAIRS)
    scorer = ScoringEngine(model, cache_size=0)
    return {"layers": {
        "graph.tie_ids_us": per_call_us(lambda: network.tie_ids(query)),
        "engine.score_us_per_pair": per_call_us(
            lambda: scorer.score_pairs(query, use_cache=False)
        ) / REQUEST_PAIRS,
    }}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("ingest")
    p.add_argument("--tsv", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--reps", type=int, default=3)
    p = sub.add_parser("run")
    p.add_argument("--store", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--artifact", required=True)
    p.add_argument("--answers")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p = sub.add_parser("hogwild")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("engine")
    p.add_argument("--artifact", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.mode == "ingest":
        result = ingest(args.tsv, args.work, args.reps)
    else:
        result = {"run": run, "hogwild": hogwild, "engine": engine}[
            args.mode
        ](args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
