"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print Table-2-style statistics for the named (or all) datasets.
``generate``
    Generate a named dataset and write it as a tie-list TSV.
``discover``
    Learn a directionality function on a tie-list file and either
    evaluate hidden-direction discovery or write the completed network.
``quantify``
    Learn a directionality function and print the bidirectional-tie
    quantification table.
``report``
    Render the phase breakdown of a run artefact (manifest, trace, or
    perf report), diff two runs and flag phase regressions, or render
    run-history trend tables over a directory (``--history``).
``monitor``
    Tail a live run's ``--telemetry`` JSONL: progress, ETA, pairs/sec,
    loss trend, RSS and HOGWILD worker lag (``--once --json`` prints
    one machine-readable snapshot).
``export``
    Learn a directionality function on a tie-list file and freeze it as
    a serving artifact bundle (``docs/serving.md``).
``serve``
    Load an artifact and answer ``/score`` / ``/discover`` /
    ``/healthz`` batch queries over JSON/HTTP (``--smoke N`` runs one
    self-check batch and exits instead of serving forever).

``discover``, ``quantify``, ``export`` and ``serve`` accept
``--trace PATH`` (Chrome-trace or JSONL span timeline, see
``docs/observability.md``) and ``--manifest PATH`` (a
``repro_manifest/v1`` run manifest).

Every command takes ``--seed`` and is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .apps import (
    discover_and_apply,
    discovery_accuracy,
    quantify_bidirectional_ties,
)
from .datasets import (
    DATASET_NAMES,
    dataset_statistics,
    hide_directions,
    load_dataset,
)
from .embedding import DeepDirectConfig, LineConfig, Node2VecConfig
from .eval import format_table
from .graph import read_tie_list, write_tie_list
from .obs import (
    CallbackList,
    ConsoleReporter,
    HEALTH_POLICIES,
    HealthMonitor,
    JsonlSink,
    TrainerCallback,
    Tracer,
    TrainingDivergedError,
    activate,
    build_manifest,
    deactivate,
    history_payload,
    index_history,
    load_run,
    network_fingerprint,
    phase_totals,
    render_diff,
    render_history,
    render_report,
    rss_bytes,
    span,
    write_manifest,
)
from .obs.monitor import watch as monitor_watch
from .models import (
    DeepDirectModel,
    HFModel,
    LineModel,
    Node2VecModel,
    ReDirectNSM,
    ReDirectTSM,
    TieDirectionModel,
)

METHOD_CHOICES = (
    "deepdirect",
    "hf",
    "line",
    "node2vec",
    "redirect-n",
    "redirect-t",
)


def _telemetry_callbacks(args: argparse.Namespace) -> list[TrainerCallback]:
    """Sinks requested on the command line (may be empty).

    ``--telemetry`` streams every training event to a JSONL file and,
    like ``--progress``, also mirrors the trainer's ``log_every``
    checkpoints to the console through a :class:`ConsoleReporter`.
    """
    callbacks: list[TrainerCallback] = []
    if getattr(args, "telemetry", None):
        callbacks.append(
            JsonlSink(
                args.telemetry,
                max_bytes=getattr(args, "telemetry_max_bytes", None),
            )
        )
    if callbacks or getattr(args, "progress", False):
        callbacks.append(ConsoleReporter(every=args.log_every))
    return callbacks


def _build_health(args: argparse.Namespace) -> HealthMonitor | None:
    """The run's :class:`HealthMonitor`, or ``None`` when not requested."""
    policy = getattr(args, "health_policy", None)
    if policy is None:
        return None
    return HealthMonitor(policy=policy, check_every=args.health_every)


#: Model arguments copied into the manifest's ``config`` block.
_CONFIG_KEYS = (
    "method", "dimensions", "alpha", "beta", "pairs_per_tie", "dstep",
    "workers", "min_pairs_per_worker", "dtype", "hide", "artifact",
    "cache_size", "batch_window_ms", "smoke", "access_log",
    "health_policy", "health_every", "telemetry_max_bytes",
    "graph_store",
)


def _load_network(args: argparse.Namespace):
    """The command's input network, optionally via an on-disk store.

    Without ``--graph-store`` the tie-list TSV is parsed into an
    in-memory network.  With it, the network is backed by a
    ``repro_graphstore/v1`` directory instead (see
    ``docs/graph_storage.md``): an existing store at the path is opened
    directly — zero-copy mmap'd columns, no TSV re-parse — while a
    missing one is built from the TSV once and then reopened, so
    repeated runs against the same large graph pay the parse exactly
    once and train against the ``MmapStore``.
    """
    from pathlib import Path

    from .graph import MixedSocialNetwork

    store = getattr(args, "graph_store", None)
    if not store:
        return read_tie_list(args.input)
    path = Path(store)
    if path.exists():
        print(f"opening graph store {path}", file=sys.stderr)
        return MixedSocialNetwork.from_store(path)
    network = read_tie_list(args.input)
    network.save_store(path)
    print(f"wrote graph store {path}", file=sys.stderr)
    return MixedSocialNetwork.from_store(path)


class _ObsSession:
    """Optional tracer + manifest lifecycle for one CLI command.

    Activated when ``--trace`` or ``--manifest`` was requested;
    otherwise every method is a cheap no-op and the command runs on the
    disabled-tracing fast path.  On exit the trace and manifest
    artefacts are written even when the command failed mid-run, so a
    crashed run still leaves its timeline behind.
    """

    def __init__(self, args: argparse.Namespace, command: str) -> None:
        self.args = args
        self.command = command
        trace = getattr(args, "trace", None)
        manifest = getattr(args, "manifest", None)
        self.enabled = bool(trace or manifest)
        self.tracer = Tracer() if self.enabled else None
        self._token = None
        self.dataset: dict = {}
        self.metrics: dict = {}
        self.health: HealthMonitor | None = None

    def __enter__(self) -> "_ObsSession":
        if self.tracer is not None:
            self._token = activate(self.tracer)
        return self

    def set_network(self, network) -> None:
        """Record the dataset fingerprint for the manifest."""
        if self.enabled:
            self.dataset = network_fingerprint(network)

    def add_metrics(self, **metrics) -> None:
        """Merge final run metrics into the manifest."""
        if self.enabled:
            self.metrics.update(metrics)

    def set_health(self, health: HealthMonitor | None) -> None:
        """Attach the run's health monitor; its report lands in the
        manifest even when the run aborts (``__exit__`` runs on the
        :class:`TrainingDivergedError` unwind)."""
        self.health = health

    def __exit__(self, *exc: object) -> bool:
        if self.tracer is None:
            return False
        deactivate(self._token)
        if getattr(self.args, "trace", None):
            self.tracer.write(self.args.trace)
            print(f"wrote trace to {self.args.trace}", file=sys.stderr)
        if getattr(self.args, "manifest", None):
            self.metrics.setdefault(
                "rss_mb", round(rss_bytes() / 2**20, 2)
            )
            config = {
                key: getattr(self.args, key)
                for key in _CONFIG_KEYS
                if getattr(self.args, key, None) is not None
            }
            manifest = build_manifest(
                command=self.command,
                seed=self.args.seed,
                config=config,
                dataset=self.dataset,
                phases=phase_totals(self.tracer.snapshot()),
                metrics=self.metrics,
                health=(
                    self.health.report() if self.health is not None else None
                ),
            )
            write_manifest(manifest, self.args.manifest)
            print(
                f"wrote manifest to {self.args.manifest}", file=sys.stderr
            )
        return False


def _build_model(
    args: argparse.Namespace,
    callbacks: list[TrainerCallback] | None = None,
    health: HealthMonitor | None = None,
) -> TieDirectionModel:
    callbacks = callbacks or []
    if args.method == "deepdirect":
        return DeepDirectModel(
            DeepDirectConfig(
                dimensions=args.dimensions,
                alpha=args.alpha,
                beta=args.beta,
                pairs_per_tie=args.pairs_per_tie,
                workers=args.workers,
                dtype=args.dtype,
                min_pairs_per_worker=args.min_pairs_per_worker,
            ),
            dstep=args.dstep,
            callbacks=callbacks,
            health=health,
        )
    if args.method == "hf":
        return HFModel()
    if args.method == "line":
        return LineModel(
            LineConfig(
                dimensions=max(2, args.dimensions // 2),
                workers=args.workers,
            ),
            callbacks=callbacks,
            health=health,
        )
    if args.method == "node2vec":
        return Node2VecModel(
            Node2VecConfig(
                dimensions=max(2, args.dimensions // 2),
                workers=args.workers,
            ),
            callbacks=callbacks,
            health=health,
        )
    if args.method == "redirect-n":
        return ReDirectNSM()
    if args.method == "redirect-t":
        return ReDirectTSM()
    raise ValueError(f"unknown method {args.method!r}")


def _cmd_datasets(args: argparse.Namespace) -> int:
    names = args.names or list(DATASET_NAMES)
    rows = []
    for name in names:
        stats = dataset_statistics(
            load_dataset(name, scale=args.scale, seed=args.seed)
        )
        rows.append(
            {
                "dataset": name,
                "nodes": stats["nodes"],
                "ties": stats["ties"],
                "reciprocity": f"{stats['reciprocity']:.2f}",
                "mean_degree": f"{stats['mean_degree']:.1f}",
            }
        )
    print(
        format_table(
            rows, ["dataset", "nodes", "ties", "reciprocity", "mean_degree"]
        )
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    network = load_dataset(args.name, scale=args.scale, seed=args.seed)
    write_tie_list(network, args.output)
    print(f"wrote {network} to {args.output}")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    with _ObsSession(args, "discover") as obs:
        network = _load_network(args)
        obs.set_network(network)
        callbacks = _telemetry_callbacks(args)
        health = _build_health(args)
        obs.set_health(health)
        try:
            if args.hide is not None:
                with span("eval.discovery", hide=args.hide) as eval_sp:
                    task = hide_directions(network, args.hide, seed=args.seed)
                    model = _build_model(args, callbacks, health).fit(
                        task.network, seed=args.seed
                    )
                    with span("eval.score", method=args.method):
                        accuracy = discovery_accuracy(model, task)
                    eval_sp.set(accuracy=accuracy)
                obs.add_metrics(
                    accuracy=accuracy, n_hidden=len(task.true_sources)
                )
                print(
                    f"method={args.method} hidden={len(task.true_sources)} "
                    f"accuracy={accuracy:.4f}"
                )
                return 0
            if network.n_undirected == 0:
                print("network has no undirected ties; nothing to discover",
                      file=sys.stderr)
                return 1
            model = _build_model(args, callbacks, health).fit(
                network, seed=args.seed
            )
        finally:
            CallbackList(callbacks).close()
        with span("eval.apply"):
            completed = discover_and_apply(model)
        obs.add_metrics(n_discovered=network.n_undirected)
        if args.output:
            write_tie_list(completed, args.output)
            print(f"wrote completed network to {args.output}")
        else:
            print(f"completed network: {completed}")
        return 0


def _cmd_quantify(args: argparse.Namespace) -> int:
    with _ObsSession(args, "quantify") as obs:
        network = read_tie_list(args.input)
        if network.n_bidirectional == 0:
            print("network has no bidirectional ties", file=sys.stderr)
            return 1
        obs.set_network(network)
        callbacks = _telemetry_callbacks(args)
        health = _build_health(args)
        obs.set_health(health)
        try:
            model = _build_model(args, callbacks, health).fit(
                network, seed=args.seed
            )
        finally:
            CallbackList(callbacks).close()
        with span("eval.quantify"):
            table = quantify_bidirectional_ties(model)
        obs.add_metrics(n_bidirectional=network.n_bidirectional)
    rows = [
        {
            "u": int(u),
            "v": int(v),
            "d_uv": f"{duv:.3f}",
            "d_vu": f"{dvu:.3f}",
        }
        for u, v, duv, dvu in table[: args.limit]
    ]
    print(format_table(rows, ["u", "v", "d_uv", "d_vu"]))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    modes = [
        args.run is not None,
        args.diff is not None,
        args.history is not None,
    ]
    if sum(modes) != 1:
        print("report: pass exactly one of RUN, --diff A B, "
              "or --history DIR", file=sys.stderr)
        return 2
    if args.history is not None:
        try:
            entries = index_history(args.history)
        except (NotADirectoryError, OSError) as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(
                history_payload(entries, threshold=args.threshold),
                indent=2, sort_keys=True,
            ))
            return 0
        text, flagged = render_history(entries, threshold=args.threshold)
        print(text)
        return 1 if (flagged and args.strict) else 0
    try:
        runs = [load_run(p) for p in (args.diff or [args.run])]
    except (ValueError, OSError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if args.diff is not None:
        text, flagged = render_diff(*runs, threshold=args.threshold)
        print(text)
        return 1 if (flagged and args.strict) else 0
    print(render_report(runs[0]))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    if args.interval <= 0:
        print("monitor: --interval must be positive", file=sys.stderr)
        return 2
    return monitor_watch(
        args.run,
        interval_s=args.interval,
        once=args.once,
        as_json=args.json,
    )


def _cmd_export(args: argparse.Namespace) -> int:
    from .serve import save_model_artifact

    with _ObsSession(args, "export") as obs:
        network = _load_network(args)
        obs.set_network(network)
        callbacks = _telemetry_callbacks(args)
        health = _build_health(args)
        obs.set_health(health)
        try:
            model = _build_model(args, callbacks, health).fit(
                network, seed=args.seed
            )
        finally:
            CallbackList(callbacks).close()
        save_model_artifact(model, args.output)
        obs.add_metrics(n_ties=network.n_ties)
        print(
            f"wrote {type(model).__name__} artifact to {args.output}"
        )
        return 0


def _serve_smoke(server, engine, model, n_pairs: int, seed: int) -> int:
    """One self-check batch over live HTTP; 0 on success.

    Samples ``n_pairs`` existing oriented ties, posts them to ``/score``
    twice (the second pass exercises the LRU cache), and compares the
    served scores against the in-process model bit for bit.
    """
    import urllib.request

    import numpy as np

    network = model.network
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, network.n_ties, size=n_pairs)
    pairs = np.column_stack(
        [network.tie_src[ids], network.tie_dst[ids]]
    )
    expected = model.directionality_batch(pairs)
    body = json.dumps({"pairs": pairs.tolist()}).encode("utf-8")

    latencies_ms = []
    for _ in range(2):
        request = urllib.request.Request(
            server.url + "/score",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        start = time.perf_counter()
        with urllib.request.urlopen(request, timeout=60) as response:
            payload = json.load(response)
        latencies_ms.append((time.perf_counter() - start) * 1e3)
        served = np.asarray(payload["scores"], dtype=float)
        if served.shape != expected.shape or not np.array_equal(
            served, expected
        ):
            print(
                "serve smoke: FAIL — served scores diverge from the "
                "in-process model",
                file=sys.stderr,
            )
            return 1

    with urllib.request.urlopen(
        server.url + "/healthz", timeout=10
    ) as response:
        health = json.load(response)
    if health.get("status") != "ok":
        print(f"serve smoke: FAIL — /healthz said {health!r}",
              file=sys.stderr)
        return 1

    info = engine.cache_info()
    print(
        f"serve smoke: ok — {n_pairs} pairs x2 identical to the model, "
        f"latency {latencies_ms[0]:.1f}ms cold / "
        f"{latencies_ms[1]:.1f}ms warm, "
        f"cache_hit_rate={info['cache_hit_rate']:.2f}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ModelServer, ScoringEngine, load_model_artifact

    with _ObsSession(args, "serve") as obs:
        model = load_model_artifact(args.artifact)
        obs.set_network(model.network)
        engine = ScoringEngine(
            model,
            cache_size=args.cache_size,
            batch_window_s=args.batch_window_ms / 1e3,
        )
        server = ModelServer(
            engine,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            access_log=args.access_log,
            tracer=obs.tracer,
        )
        code = 0
        try:
            if args.smoke is not None:
                server.start()
                with span("serve.smoke", n_pairs=args.smoke):
                    code = _serve_smoke(
                        server, engine, model, args.smoke, seed=args.seed
                    )
            else:
                server.start()
                print(
                    f"serving {type(model).__name__} from "
                    f"{args.artifact} on {server.url} "
                    "(Ctrl-C to stop)",
                    file=sys.stderr,
                )
                try:
                    while True:
                        time.sleep(3600)
                except KeyboardInterrupt:
                    pass
        finally:
            server.shutdown()
            obs.add_metrics(**engine.snapshot())
        return code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=METHOD_CHOICES, default="deepdirect"
    )
    parser.add_argument("--dimensions", type=int, default=64)
    parser.add_argument("--alpha", type=float, default=5.0)
    parser.add_argument("--beta", type=float, default=0.1)
    parser.add_argument("--pairs-per-tie", type=float, default=150.0,
                        dest="pairs_per_tie")
    parser.add_argument(
        "--dstep", choices=("logistic", "mlp"), default="logistic"
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="HOGWILD SGD worker processes for the embedding E-Step; "
        "1 (default) is the bit-identical sequential path, >1 trades "
        "bit-level reproducibility for throughput (see "
        "docs/performance.md)",
    )
    parser.add_argument(
        "--min-pairs-per-worker",
        type=int,
        default=50_000,
        dest="min_pairs_per_worker",
        help="auto-degrade HOGWILD to fewer workers when the epoch "
        "budget leaves less than this many pairs per worker "
        "(deepdirect only; 0 forces the requested worker count)",
    )
    parser.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="embedding matrix dtype for the deepdirect E-Step; "
        "float32 halves memory traffic at ~1e-3 relative tolerance "
        "(see docs/performance.md)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH.jsonl",
        default=None,
        help="stream per-batch training telemetry (loss components, "
        "learning rate, throughput) to a JSONL file; embedding methods "
        "only",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print training progress lines at the log-every cadence",
    )
    parser.add_argument(
        "--log-every",
        type=_positive_int,
        default=200,
        dest="log_every",
        help="batch cadence of progress lines and loss checkpoints",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a span timeline of the whole run: Chrome trace JSON "
        "(load in Perfetto / chrome://tracing) or compact JSONL when "
        "the path ends in .jsonl; see docs/observability.md",
    )
    parser.add_argument(
        "--manifest",
        metavar="PATH.json",
        default=None,
        help="write a repro_manifest/v1 run manifest (config, seed, "
        "dataset fingerprint, package versions, per-phase timings, "
        "final metrics); render it with 'repro report'",
    )
    parser.add_argument(
        "--telemetry-max-bytes",
        type=_positive_int,
        default=None,
        dest="telemetry_max_bytes",
        metavar="BYTES",
        help="rotate the --telemetry file when it would exceed this "
        "size (keeps 3 older segments; see docs/observability.md)",
    )
    parser.add_argument(
        "--health-policy",
        choices=HEALTH_POLICIES,
        default=None,
        dest="health_policy",
        help="attach numeric-health sentinels to training: 'warn' "
        "records non-finite values and keeps going, 'abort' raises "
        "within one batch (exit code 3), 'rollback' restores the last "
        "healthy parameter snapshot; the health report lands in "
        "--manifest (see docs/observability.md)",
    )
    parser.add_argument(
        "--health-every",
        type=_positive_int,
        default=16,
        dest="health_every",
        metavar="N",
        help="batch cadence of full parameter-matrix health sweeps "
        "(loss terms are checked every batch)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepDirect reproduction: tie direction learning",
    )
    parser.add_argument("--seed", type=int, default=0)
    commands = parser.add_subparsers(dest="command", required=True)

    datasets = commands.add_parser(
        "datasets", help="print Table-2-style dataset statistics"
    )
    datasets.add_argument("names", nargs="*", help="dataset names (default: all)")
    datasets.add_argument("--scale", type=float, default=0.01)
    datasets.set_defaults(handler=_cmd_datasets)

    generate = commands.add_parser(
        "generate", help="generate a dataset as a tie-list TSV"
    )
    generate.add_argument("name", choices=DATASET_NAMES)
    generate.add_argument("output")
    generate.add_argument("--scale", type=float, default=0.01)
    generate.set_defaults(handler=_cmd_generate)

    discover = commands.add_parser(
        "discover", help="discover directions of undirected ties"
    )
    discover.add_argument("input", help="tie-list TSV file")
    discover.add_argument(
        "--hide",
        type=float,
        default=None,
        help="evaluation mode: keep this fraction of directed ties and "
        "score accuracy on the hidden rest",
    )
    discover.add_argument("--output", default=None)
    discover.add_argument(
        "--graph-store",
        default=None,
        metavar="DIR",
        dest="graph_store",
        help="back the network with an on-disk graph store: open DIR "
        "if it exists (skipping the TSV parse), else build it from the "
        "input once; training then runs against the mmap'd store",
    )
    _add_model_arguments(discover)
    discover.set_defaults(handler=_cmd_discover)

    quantify = commands.add_parser(
        "quantify", help="quantify bidirectional ties"
    )
    quantify.add_argument("input", help="tie-list TSV file")
    quantify.add_argument("--limit", type=int, default=20)
    _add_model_arguments(quantify)
    quantify.set_defaults(handler=_cmd_quantify)

    report = commands.add_parser(
        "report",
        help="render a run artefact (manifest/trace/perf report) or "
        "diff two runs",
    )
    report.add_argument(
        "run",
        nargs="?",
        default=None,
        help="run artefact to render: a --manifest file, a --trace "
        "file, or a perf report with a 'phases' key (BENCH_estep.json)",
    )
    report.add_argument(
        "--diff",
        nargs=2,
        metavar=("BASELINE", "CANDIDATE"),
        default=None,
        help="compare two run artefacts phase by phase",
    )
    report.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative slowdown beyond which a phase is flagged as a "
        "regression in --diff mode (default 0.25 = 25%%)",
    )
    report.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help="index every manifest and perf report under DIR and render "
        "per-metric trend tables with latest-vs-previous regression "
        "flags",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="with --history: print the repro_history/v1 payload "
        "instead of the text table",
    )
    report.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when --diff flags any phase regression "
        "(or --history flags any metric regression)",
    )
    report.set_defaults(handler=_cmd_report)

    monitor = commands.add_parser(
        "monitor",
        help="tail a live training run's --telemetry stream: progress, "
        "ETA, pairs/sec, loss trend, RSS, worker lag",
    )
    monitor.add_argument(
        "run",
        help="telemetry JSONL file, or a run directory containing one",
    )
    monitor.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit instead of tailing",
    )
    monitor.add_argument(
        "--json",
        action="store_true",
        help="print repro_monitor/v1 JSON snapshots to stdout",
    )
    monitor.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes in tail mode",
    )
    monitor.set_defaults(handler=_cmd_monitor)

    export = commands.add_parser(
        "export",
        help="fit a model and freeze it as a serving artifact bundle",
    )
    export.add_argument("input", help="tie-list TSV file")
    export.add_argument(
        "output", help="artifact bundle directory to create"
    )
    export.add_argument(
        "--graph-store",
        default=None,
        metavar="DIR",
        dest="graph_store",
        help="back the network with an on-disk graph store: open DIR "
        "if it exists (skipping the TSV parse), else build it from the "
        "input once; training then runs against the mmap'd store",
    )
    _add_model_arguments(export)
    export.set_defaults(handler=_cmd_export)

    serve = commands.add_parser(
        "serve",
        help="serve a model artifact over JSON/HTTP "
        "(/score, /discover, /healthz, /metrics)",
    )
    serve.add_argument("artifact", help="artifact bundle directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8000,
        help="TCP port to bind (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        dest="cache_size",
        help="LRU capacity in (u, v) pairs; 0 disables the cache",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        dest="batch_window_ms",
        help="micro-batching window: the longest the leader request "
        "waits to coalesce concurrent /score callers into one vectorized "
        "pass; it waits only when the previous request arrived within "
        "the window",
    )
    serve.add_argument(
        "--smoke",
        type=_positive_int,
        metavar="N",
        default=None,
        help="self-test mode: score N sampled pairs twice over live "
        "HTTP, compare against the in-process model, then exit",
    )
    serve.add_argument(
        "--access-log",
        metavar="PATH.jsonl",
        default=None,
        dest="access_log",
        help="write one structured JSON line per request (request_id, "
        "method, path, status, latency_ms, pair/cache detail); the "
        "request_id matches the serve.request spans in --trace output",
    )
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")
    serve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a span timeline of the serving run",
    )
    serve.add_argument(
        "--manifest",
        metavar="PATH.json",
        default=None,
        help="write a repro_manifest/v1 run manifest including the "
        "serving metrics (requests, latency EMA, cache hit rate)",
    )
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: ``0`` success, ``1`` command failure, ``2`` usage
    error, ``3`` training diverged under ``--health-policy abort``
    (the manifest, trace and telemetry artefacts are still written
    before the unwind reaches here).
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except TrainingDivergedError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
