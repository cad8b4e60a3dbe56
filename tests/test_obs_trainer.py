"""Integration tests: telemetry emitted by the trainers and models.

Covers the ISSUE-2 acceptance criteria: all three Eq. 18 loss
components stream per batch, instrumentation never perturbs training,
and same-seed runs produce identical telemetry modulo wall-clock fields.
"""

import math

import numpy as np
import pytest

from repro.datasets import hide_directions, load_dataset
from repro.embedding import (
    DeepDirectConfig,
    DeepDirectEmbedding,
    DeepDirectTrainer,
    LineConfig,
    LineEmbedding,
    Node2VecConfig,
    Node2VecEmbedding,
)
from repro.models import DeepDirectModel
from repro.obs import InMemorySink, JsonlSink, read_jsonl, strip_volatile


@pytest.fixture(scope="module")
def tiny_task():
    network = load_dataset("twitter", scale=0.004, seed=0)
    return hide_directions(network, 0.5, seed=1)


@pytest.fixture(scope="module")
def tiny_config():
    return DeepDirectConfig(
        dimensions=8, epochs=2.0, alpha=5.0, beta=0.5, max_pairs=15_000
    )


def test_trainer_alias_is_the_embedding_class():
    assert DeepDirectTrainer is DeepDirectEmbedding


class TestDeepDirectEmission:
    def test_all_loss_components_emitted_and_finite(self, tiny_task, tiny_config):
        sink = InMemorySink()
        DeepDirectTrainer(tiny_config).fit(
            tiny_task.network, seed=0, callbacks=[sink]
        )
        batches = sink.of_kind("batch")
        assert len(batches) >= 2
        for event in batches:
            for component in ("L", "L_topo", "L_label", "L_pattern", "lr"):
                assert component in event
                assert math.isfinite(event[component])
            # The components decompose the total exactly.
            assert event["L"] == pytest.approx(
                event["L_topo"] + event["L_label"] + event["L_pattern"]
            )
        assert len(sink.of_kind("fit_begin")) == 1
        assert len(sink.of_kind("fit_end")) == 1
        assert sink.of_kind("fit_end")[0]["pair_draws"] > 0

    def test_learning_rate_decays(self, tiny_task, tiny_config):
        sink = InMemorySink()
        DeepDirectTrainer(tiny_config).fit(
            tiny_task.network, seed=0, callbacks=[sink]
        )
        lrs = sink.series("lr")
        assert lrs[0] == tiny_config.learning_rate
        assert lrs[-1] < lrs[0]

    def test_epoch_events_fire_on_multi_epoch_runs(self, tiny_task):
        config = DeepDirectConfig(
            dimensions=4, epochs=2.0, batch_size=64, alpha=0.0, beta=0.0
        )
        sink = InMemorySink()
        DeepDirectTrainer(config).fit(
            tiny_task.network, seed=0, callbacks=[sink]
        )
        epochs = [e["epoch"] for e in sink.of_kind("epoch")]
        assert epochs and epochs == sorted(epochs)

    def test_callbacks_do_not_perturb_training(self, tiny_task, tiny_config):
        bare = DeepDirectTrainer(tiny_config).fit(tiny_task.network, seed=3)
        instrumented = DeepDirectTrainer(tiny_config).fit(
            tiny_task.network, seed=3, callbacks=[InMemorySink()]
        )
        assert np.array_equal(bare.embeddings, instrumented.embeddings)
        assert np.array_equal(bare.contexts, instrumented.contexts)
        assert bare.classifier_bias == instrumented.classifier_bias
        assert bare.loss_history == instrumented.loss_history


class TestSeedDeterminism:
    def test_same_seed_same_embeddings_and_telemetry(
        self, tiny_task, tiny_config, tmp_path
    ):
        results, streams = [], []
        for run in range(2):
            path = tmp_path / f"run{run}.jsonl"
            with JsonlSink(path) as sink:
                results.append(
                    DeepDirectTrainer(tiny_config).fit(
                        tiny_task.network, seed=11, callbacks=[sink]
                    )
                )
            streams.append(
                [strip_volatile(e) for e in read_jsonl(path)]
            )
        assert np.array_equal(results[0].embeddings, results[1].embeddings)
        assert streams[0] == streams[1]

    def test_different_seeds_different_telemetry(self, tiny_task, tiny_config):
        streams = []
        for seed in (0, 1):
            sink = InMemorySink()
            DeepDirectTrainer(tiny_config).fit(
                tiny_task.network, seed=seed, callbacks=[sink]
            )
            streams.append([strip_volatile(e) for e in sink.events])
        assert streams[0] != streams[1]


class TestBaselineEmission:
    def test_line_emits_batches(self, tiny_task):
        sink = InMemorySink()
        LineEmbedding(LineConfig(dimensions=4, epochs=2.0)).fit(
            tiny_task.network, seed=0, callbacks=[sink]
        )
        assert sink.of_kind("fit_begin")[0]["trainer"] == "line"
        batches = sink.of_kind("batch")
        assert batches and all(math.isfinite(e["L"]) for e in batches)

    def test_node2vec_emits_batches(self, tiny_task):
        sink = InMemorySink()
        config = Node2VecConfig(
            dimensions=4, walk_length=5, walks_per_node=1, epochs=0.2
        )
        Node2VecEmbedding(config).fit(
            tiny_task.network, seed=0, callbacks=[sink]
        )
        begin = sink.of_kind("fit_begin")[0]
        assert begin["trainer"] == "node2vec"
        assert begin["n_walks"] > 0
        assert sink.of_kind("batch")

    def test_node2vec_loss_history_unchanged_by_callbacks(self, tiny_task):
        config = Node2VecConfig(
            dimensions=4, walk_length=5, walks_per_node=1, epochs=0.2
        )
        bare = Node2VecEmbedding(config).fit(tiny_task.network, seed=0)
        instrumented = Node2VecEmbedding(config).fit(
            tiny_task.network, seed=0, callbacks=[InMemorySink()]
        )
        assert np.array_equal(
            bare.node_embeddings, instrumented.node_embeddings
        )
        assert bare.loss_history == instrumented.loss_history


TRAINER_FITS = {
    "deepdirect": lambda: DeepDirectEmbedding(DeepDirectConfig(
        dimensions=4, epochs=2.0, batch_size=64, n_negative=3,
        alpha=0.0, beta=0.0)),
    "line": lambda: LineEmbedding(LineConfig(
        dimensions=4, epochs=3.0, batch_size=64, n_negative=3)),
    "node2vec": lambda: Node2VecEmbedding(Node2VecConfig(
        dimensions=4, walk_length=5, walks_per_node=1, epochs=2.0,
        batch_size=64, n_negative=3)),
}


@pytest.mark.parametrize("trainer", sorted(TRAINER_FITS))
def test_every_trainer_emits_one_telemetry_schema(tiny_task, trainer):
    """The shared training driver gives all three trainers the same
    events: per-batch ``L``/``L_ema``, epoch events, and a ``fit_end``
    that ``repro monitor`` reads ``n_pairs_trained`` from."""
    sink = InMemorySink()
    TRAINER_FITS[trainer]().fit(tiny_task.network, seed=0,
                                callbacks=[sink])
    (begin,) = sink.of_kind("fit_begin")
    assert begin["trainer"] == trainer
    assert begin["workers"] == 1
    batches = sink.of_kind("batch")
    assert len(batches) == begin["total_batches"]
    for event in batches:
        for field in ("L", "L_ema", "lr", "pairs", "pairs_per_sec"):
            assert math.isfinite(event[field])
    epochs = [e["epoch"] for e in sink.of_kind("epoch")]
    assert epochs == list(range(1, len(epochs) + 1)) and len(epochs) >= 1
    (end,) = sink.of_kind("fit_end")
    assert end["n_pairs_trained"] == batches[-1]["pairs"]
    assert end["L_ema"] == batches[-1]["L_ema"]
    assert end["negative_draws"] == 3 * end["n_pairs_trained"]
    assert end["pairs_per_sec"] > 0


class TestDStepEvent:
    def test_warm_start_convergence_report(self, tiny_task):
        # The smoke budget (2 epochs, 15k pairs) leaves the E-Step head
        # under-trained and the warm-start margin a coin flip across
        # seeds; a few more epochs make the property decisive
        # (initial_loss ~0.16 vs log 2 for every seed) so the assertion
        # tests the mechanism, not the seed lottery.
        config = DeepDirectConfig(
            dimensions=8, epochs=8.0, alpha=5.0, beta=0.5, max_pairs=30_000
        )
        sink = InMemorySink()
        DeepDirectModel(config, callbacks=[sink]).fit(
            tiny_task.network, seed=0
        )
        (event,) = sink.of_kind("dstep")
        assert event["warm_start"] is True
        assert event["n_iter"] >= 1
        assert event["cold_start_initial_loss"] == pytest.approx(math.log(2))
        # The E-Step head must start the D-Step below the cold-start loss.
        assert event["initial_loss"] < event["cold_start_initial_loss"]
        assert event["warm_start_delta"] == pytest.approx(
            math.log(2) - event["initial_loss"]
        )
        assert event["final_loss"] <= event["initial_loss"] + 1e-9

    def test_model_results_identical_with_and_without_callbacks(
        self, tiny_task, tiny_config
    ):
        bare = DeepDirectModel(tiny_config).fit(tiny_task.network, seed=0)
        instrumented = DeepDirectModel(
            tiny_config, callbacks=[InMemorySink()]
        ).fit(tiny_task.network, seed=0)
        assert np.array_equal(bare.tie_scores(), instrumented.tie_scores())


class TestTelemetryFastPath:
    """With no sinks and no monitor the kernels skip loss bookkeeping."""

    def _spy(self, monkeypatch):
        calls = []
        original = DeepDirectEmbedding._train_batch

        def wrapper(self, *args, **kwargs):
            calls.append(
                (
                    bool(kwargs.get("need_loss", True)),
                    bool(kwargs.get("track_grad_norm", False)),
                )
            )
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DeepDirectEmbedding, "_train_batch", wrapper)
        return calls

    def test_bare_fit_skips_loss_on_non_history_batches(
        self, tiny_task, tiny_config, monkeypatch
    ):
        calls = self._spy(monkeypatch)
        DeepDirectEmbedding(tiny_config).fit(tiny_task.network, seed=0)
        need_loss = [n for n, _ in calls]
        assert len(need_loss) > 1
        assert need_loss[0]  # history batches still record the loss
        assert sum(need_loss) < len(need_loss)  # the rest skip it
        assert not any(g for _, g in calls)  # grad norms are health-only

    def test_callbacks_keep_loss_on_every_batch(
        self, tiny_task, tiny_config, monkeypatch
    ):
        calls = self._spy(monkeypatch)
        DeepDirectEmbedding(tiny_config).fit(
            tiny_task.network, seed=0, callbacks=[InMemorySink()]
        )
        assert all(n for n, _ in calls)
        assert not any(g for _, g in calls)

    def test_health_keeps_loss_and_grad_norm(
        self, tiny_task, tiny_config, monkeypatch
    ):
        from repro.obs import HealthMonitor

        calls = self._spy(monkeypatch)
        DeepDirectEmbedding(tiny_config).fit(
            tiny_task.network, seed=0,
            health=HealthMonitor(policy="warn", check_every=4),
        )
        assert all(n for n, _ in calls)
        assert all(g for _, g in calls)


class TestHealthEvents:
    def test_health_events_stream_through_callbacks(
        self, tiny_task, tiny_config
    ):
        from repro.obs import HealthMonitor

        sink = InMemorySink()
        DeepDirectEmbedding(tiny_config).fit(
            tiny_task.network, seed=0, log_every=5,
            callbacks=[sink],
            health=HealthMonitor(policy="warn", check_every=4),
        )
        events = sink.of_kind("health")
        assert events
        for event in events:
            assert event["policy"] == "warn"
            assert event["warnings"] == 0
            assert event["checks"] >= 0
            assert "L_ema" in event
        assert events[-1]["batch"] > 0

    def test_monitored_fit_matches_bare_fit(self, tiny_task, tiny_config):
        from repro.obs import HealthMonitor

        bare = DeepDirectEmbedding(tiny_config).fit(tiny_task.network, seed=0)
        monitored = DeepDirectEmbedding(tiny_config).fit(
            tiny_task.network, seed=0,
            health=HealthMonitor(policy="abort", check_every=4),
        )
        assert np.array_equal(bare.embeddings, monitored.embeddings)
        assert np.array_equal(bare.contexts, monitored.contexts)
