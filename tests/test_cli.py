"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import random_mixed_network
from repro.graph import read_tie_list, write_tie_list


@pytest.fixture
def tie_file(tmp_path, small_dataset):
    path = tmp_path / "net.tsv"
    write_tie_list(small_dataset, path)
    return str(path)


def test_datasets_command(capsys):
    assert main(["datasets", "twitter", "--scale", "0.002"]) == 0
    out = capsys.readouterr().out
    assert "twitter" in out
    assert "reciprocity" in out


def test_generate_command(tmp_path, capsys):
    out_path = tmp_path / "gen.tsv"
    code = main(
        ["generate", "epinions", str(out_path), "--scale", "0.002"]
    )
    assert code == 0
    network = read_tie_list(out_path)
    assert network.n_social_ties > 0


def test_discover_evaluation_mode(tie_file, capsys):
    code = main(
        [
            "discover",
            tie_file,
            "--hide", "0.3",
            "--method", "hf",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out
    accuracy = float(out.strip().rsplit("accuracy=", 1)[1])
    assert 0.0 <= accuracy <= 1.0


def test_discover_completion_mode(tmp_path, capsys):
    from repro.datasets import hide_directions
    from repro.datasets import load_dataset

    network = hide_directions(
        load_dataset("twitter", scale=0.002, seed=0), 0.5, seed=0
    ).network
    src = tmp_path / "in.tsv"
    dst = tmp_path / "out.tsv"
    write_tie_list(network, src)
    code = main(
        [
            "discover", str(src),
            "--output", str(dst),
            "--method", "redirect-t",
        ]
    )
    assert code == 0
    completed = read_tie_list(dst)
    assert completed.n_undirected == 0


def test_discover_with_graph_store(tie_file, tmp_path, capsys):
    from repro.graph.store import STORE_META

    store = tmp_path / "net.store"
    args = [
        "discover", tie_file,
        "--hide", "0.3", "--method", "hf",
        "--graph-store", str(store),
    ]
    # First run builds the store from the TSV, then trains against it.
    assert main(args) == 0
    assert (store / STORE_META).exists()
    out1 = capsys.readouterr().out
    assert "accuracy=" in out1
    # Second run opens the existing store; same seed, same accuracy.
    assert main(args) == 0
    assert capsys.readouterr().out == out1


def test_export_with_graph_store(tie_file, tmp_path, capsys):
    from repro.serve import load_model_artifact

    store = tmp_path / "net.store"
    bundle = tmp_path / "artifact"
    code = main(
        [
            "export", tie_file, str(bundle),
            "--method", "hf", "--graph-store", str(store),
        ]
    )
    assert code == 0
    assert store.is_dir()
    model = load_model_artifact(bundle)
    assert model.network.n_ties == read_tie_list(tie_file).n_ties


def test_discover_no_undirected_errors(tie_file, capsys):
    # small_dataset has no undirected ties -> completion mode must fail
    assert main(["discover", tie_file, "--method", "hf"]) == 1


def test_quantify_command(tie_file, capsys):
    code = main(
        ["quantify", tie_file, "--method", "redirect-t", "--limit", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "d_uv" in out


def test_quantify_without_bidirectional(tmp_path):
    network = random_mixed_network(20, 30, 0, 0, seed=0)
    path = tmp_path / "nobidir.tsv"
    write_tie_list(network, path)
    assert main(["quantify", str(path)]) == 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_discover_with_deepdirect_mlp(tmp_path, capsys):
    from repro.datasets import load_dataset

    network = load_dataset("twitter", scale=0.002, seed=0)
    path = tmp_path / "net.tsv"
    write_tie_list(network, path)
    code = main(
        [
            "discover", str(path),
            "--hide", "0.3",
            "--method", "deepdirect",
            "--dimensions", "16",
            "--pairs-per-tie", "20",
            "--dstep", "mlp",
        ]
    )
    assert code == 0
    assert "accuracy=" in capsys.readouterr().out


def test_discover_with_telemetry(tmp_path, capsys):
    from repro.datasets import load_dataset
    from repro.obs import read_jsonl

    network = load_dataset("twitter", scale=0.003, seed=0)
    path = tmp_path / "net.tsv"
    write_tie_list(network, path)
    telemetry = tmp_path / "run.jsonl"
    code = main(
        [
            "discover", str(path),
            "--hide", "0.3",
            "--method", "deepdirect",
            "--dimensions", "8",
            "--pairs-per-tie", "20",
            "--telemetry", str(telemetry),
            "--log-every", "2",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    # The accuracy line stays on stdout; progress is telemetry and goes
    # to stderr so machine-readable output stays pipeable.
    assert "accuracy=" in captured.out
    assert "[deepdirect]" not in captured.out
    assert "[deepdirect]" in captured.err
    events = read_jsonl(telemetry)
    batches = [e for e in events if e["event"] == "batch"]
    assert batches
    for event in batches:
        for field in ("L_topo", "L_label", "L_pattern", "lr"):
            assert field in event
    assert any(e["event"] == "dstep" for e in events)


def test_log_every_rejects_non_positive(tie_file, capsys):
    with pytest.raises(SystemExit):
        main(["discover", tie_file, "--progress", "--log-every", "0"])
    assert "positive integer" in capsys.readouterr().err


def test_quantify_with_telemetry(tie_file, tmp_path, capsys):
    from repro.obs import read_jsonl

    telemetry = tmp_path / "quantify.jsonl"
    code = main(
        [
            "quantify", tie_file,
            "--method", "line",
            "--limit", "3",
            "--telemetry", str(telemetry),
        ]
    )
    assert code == 0
    events = read_jsonl(telemetry)
    assert any(e["event"] == "batch" for e in events)
    assert events[0]["trainer"] == "line"


def test_discover_with_trace_and_manifest(tmp_path, capsys):
    from repro.datasets import load_dataset
    from repro.obs import read_manifest, read_trace

    network = load_dataset("twitter", scale=0.003, seed=0)
    path = tmp_path / "net.tsv"
    write_tie_list(network, path)
    trace = tmp_path / "trace.json"
    manifest = tmp_path / "manifest.json"
    code = main(
        [
            "--seed", "3",
            "discover", str(path),
            "--hide", "0.3",
            "--method", "deepdirect",
            "--dimensions", "8",
            "--pairs-per-tie", "20",
            "--trace", str(trace),
            "--manifest", str(manifest),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "accuracy=" in captured.out
    assert "wrote trace" in captured.err
    assert "wrote manifest" in captured.err

    records = read_trace(trace)
    names = {r["name"] for r in records}
    # The timeline covers the whole pipeline: graph build, sampling,
    # the three E-Step loss terms, the D-Step, and evaluation.
    for expected in (
        "graph.build", "sampler.setup", "estep", "estep.L_topo",
        "estep.L_label", "dstep.fit", "eval.discovery",
    ):
        assert expected in names, expected

    data = read_manifest(manifest)
    assert data["command"] == "discover"
    assert data["seed"] == 3
    assert data["config"]["method"] == "deepdirect"
    assert data["dataset"]["fingerprint"].startswith("sha256:")
    assert data["phases"]["estep"]["count"] == 1
    assert 0.0 <= data["metrics"]["accuracy"] <= 1.0


def test_discover_trace_covers_worker_lanes(tmp_path, capsys):
    from repro.datasets import load_dataset
    from repro.obs import read_trace

    network = load_dataset("twitter", scale=0.003, seed=0)
    path = tmp_path / "net.tsv"
    write_tie_list(network, path)
    trace = tmp_path / "trace.jsonl"
    code = main(
        [
            "discover", str(path),
            "--hide", "0.3",
            "--method", "deepdirect",
            "--dimensions", "8",
            "--pairs-per-tie", "20",
            "--workers", "2",
            # The toy workload sits under the default degradation
            # floor; force the pool on so worker lanes exist to cover.
            "--min-pairs-per-worker", "0",
            "--trace", str(trace),
        ]
    )
    assert code == 0
    records = read_trace(trace)
    names = {r["name"] for r in records}
    assert "hogwild.worker" in names
    assert "estep.hogwild" in names
    # Parent process plus one lane per HOGWILD worker.
    assert len({r["pid"] for r in records}) == 3


def test_report_renders_manifest(tmp_path, capsys):
    from repro.obs import build_manifest, write_manifest

    manifest = tmp_path / "manifest.json"
    write_manifest(
        build_manifest(
            command="discover",
            seed=0,
            phases={"estep": {"total_s": 1.0, "self_s": 0.5, "count": 1},
                    "estep.L_topo": 0.4},
            metrics={"accuracy": 0.9},
            argv=[],
        ),
        manifest,
    )
    assert main(["report", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "estep" in out
    assert "loss-term breakdown" in out
    assert "accuracy" in out


def test_report_diff_flags_regression(tmp_path, capsys):
    from repro.obs import build_manifest, write_manifest

    def write(path, seconds):
        write_manifest(
            build_manifest(
                command="discover", seed=0,
                phases={"estep": seconds}, argv=[],
            ),
            path,
        )

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write(a, 1.0)
    write(b, 2.0)
    assert main(["report", "--diff", str(a), str(b)]) == 0
    assert "REGRESSION" in capsys.readouterr().out
    # --strict turns a flagged regression into a non-zero exit.
    assert main(["report", "--strict", "--diff", str(a), str(b)]) == 1
    assert main(["report", "--strict", "--diff", str(b), str(a)]) == 0


def test_report_requires_run_xor_diff(tmp_path, capsys):
    assert main(["report"]) == 2
    assert "exactly one" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["report", str(missing)]) == 2
    assert "report:" in capsys.readouterr().err


def test_quantify_with_node2vec(tmp_path, capsys):
    from repro.datasets import load_dataset

    network = load_dataset("epinions", scale=0.002, seed=0)
    path = tmp_path / "net.tsv"
    write_tie_list(network, path)
    code = main(
        ["quantify", str(path), "--method", "node2vec", "--limit", "3"]
    )
    assert code == 0
    assert "d_uv" in capsys.readouterr().out


def test_export_and_serve_smoke(tie_file, tmp_path, capsys):
    bundle = tmp_path / "artifact"
    assert main(["export", tie_file, str(bundle), "--method", "hf"]) == 0
    assert (bundle / "artifact.json").is_file()
    assert (bundle / "weights" / "tie_scores.npy").is_file()
    assert "HFModel artifact" in capsys.readouterr().out

    manifest = tmp_path / "serve_manifest.json"
    code = main(
        [
            "serve", str(bundle),
            "--port", "0",
            "--smoke", "200",
            "--manifest", str(manifest),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "serve smoke: ok" in out

    import json

    data = json.loads(manifest.read_text())
    assert data["command"] == "serve"
    # The acceptance criterion: cache-hit and latency metrics land in
    # the run manifest of the smoke run.
    assert data["metrics"]["serve.requests"] == 2
    assert data["metrics"]["cache_hit_rate"] == 0.5
    assert data["metrics"]["serve.latency_ms"] > 0
    assert "serve.load_artifact" in data["phases"]


def test_export_writes_loadable_bundle(tie_file, tmp_path):
    import numpy as np

    from repro.graph import read_tie_list
    from repro.models import HFModel
    from repro.serve import load_model_artifact

    bundle = tmp_path / "artifact"
    assert main(
        ["--seed", "3", "export", tie_file, str(bundle), "--method", "hf"]
    ) == 0
    restored = load_model_artifact(bundle)
    reference = HFModel().fit(read_tie_list(tie_file), seed=3)
    assert np.array_equal(restored.tie_scores(), reference.tie_scores())


def test_serve_rejects_bad_bundle(tmp_path, capsys):
    from repro.serve import ArtifactError

    with pytest.raises(ArtifactError):
        main(["serve", str(tmp_path / "nowhere"), "--smoke", "10"])


@pytest.fixture
def poison_env(monkeypatch):
    from repro.obs import reset_poison_cache
    from repro.obs.health import POISON_ENV

    def _set(spec):
        monkeypatch.setenv(POISON_ENV, spec)
        reset_poison_cache()

    yield _set
    reset_poison_cache()


def _small_net(tmp_path):
    from repro.datasets import load_dataset

    network = load_dataset("twitter", scale=0.003, seed=0)
    path = tmp_path / "net.tsv"
    write_tie_list(network, path)
    return str(path)


def _discover_args(path, tmp_path, policy):
    return [
        "discover", path,
        "--hide", "0.3",
        "--method", "deepdirect",
        "--dimensions", "8",
        "--pairs-per-tie", "20",
        "--health-policy", policy,
        "--health-every", "1",
        "--telemetry", str(tmp_path / "telemetry.jsonl"),
        "--manifest", str(tmp_path / "manifest.json"),
    ]


def test_discover_poisoned_abort_exits_3(tmp_path, capsys, poison_env):
    import json

    poison_env("3:M")
    path = _small_net(tmp_path)
    assert main(_discover_args(path, tmp_path, "abort")) == 3
    assert "training diverged" in capsys.readouterr().err
    # The manifest is still written on the unwind, with the evidence.
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    health = manifest["health"]
    assert health["policy"] == "abort"
    assert health["diverged"] is True
    assert health["first_bad"]["batch"] >= 3
    assert health["first_bad"]["term"]
    assert manifest["config"]["health_policy"] == "abort"


def test_discover_clean_run_records_health_block(tmp_path, capsys):
    import json

    path = _small_net(tmp_path)
    assert main(_discover_args(path, tmp_path, "warn")) == 0
    health = json.loads((tmp_path / "manifest.json").read_text())["health"]
    assert health["policy"] == "warn"
    assert health["diverged"] is False
    assert health["warnings"] == 0
    assert health["checks"] >= 1
    assert "L" in health["terms"]


def test_monitor_once_json(tmp_path, capsys, poison_env):
    import json

    poison_env("3:M")
    path = _small_net(tmp_path)
    assert main(_discover_args(path, tmp_path, "abort")) == 3
    capsys.readouterr()
    assert main(["monitor", str(tmp_path), "--once", "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["schema"] == "repro_monitor/v1"
    assert snap["status"] in ("running", "done")
    assert snap["trainer"] == "deepdirect"


def test_monitor_human_once(tmp_path, capsys, poison_env):
    poison_env("3:M")
    path = _small_net(tmp_path)
    assert main(_discover_args(path, tmp_path, "abort")) == 3
    capsys.readouterr()
    assert main(["monitor", str(tmp_path), "--once"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # human tail goes to stderr
    assert "[deepdirect]" in captured.err


def test_monitor_rejects_bad_targets_and_interval(tmp_path, capsys):
    assert main(["monitor", str(tmp_path / "nope"), "--once"]) == 2
    assert "monitor:" in capsys.readouterr().err
    assert main(
        ["monitor", str(tmp_path), "--once", "--interval", "0"]
    ) == 2
    assert "--interval" in capsys.readouterr().err


def test_report_history(tmp_path, capsys):
    import json

    from repro.obs import build_manifest, write_manifest

    write_manifest(
        build_manifest(command="discover", seed=0,
                       metrics={"accuracy": 0.9}, argv=[]),
        tmp_path / "a.json",
    )
    write_manifest(
        build_manifest(command="discover", seed=1,
                       metrics={"accuracy": 0.91}, argv=[]),
        tmp_path / "b.json",
    )
    assert main(["report", "--history", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 runs indexed" in out
    assert "accuracy" in out

    assert main(["report", "--history", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro_history/v1"
    assert payload["n_runs"] == 2


def test_report_history_strict_flags_regression(tmp_path, capsys):
    import json

    def write(name, created, accuracy):
        data = {
            "schema": "repro_manifest/v1",
            "created": created,
            "command": "discover",
            "metrics": {"accuracy": accuracy},
        }
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")

    write("a.json", "2026-08-01T10:00:00", 0.9)
    write("b.json", "2026-08-02T10:00:00", 0.5)
    assert main(["report", "--history", str(tmp_path)]) == 0
    assert "REGRESSION" in capsys.readouterr().out
    assert main(["report", "--strict", "--history", str(tmp_path)]) == 1


def test_report_modes_are_exclusive(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text("{}", encoding="utf-8")
    assert main(
        ["report", str(a), "--history", str(tmp_path)]
    ) == 2
    assert "exactly one" in capsys.readouterr().err
