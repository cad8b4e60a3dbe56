"""Artifact bundles: fit → save → load → identical tie scores.

Covers the `repro.serve` artifact layer for every registered model
class, plus the failure modes a bundle can arrive in (missing files,
truncated arrays, tampered manifests, wrong fingerprints).
"""

import json
import mmap
import shutil

import numpy as np
import pytest

from repro.datasets import (
    GeneratorConfig,
    generate_social_network,
    hide_directions,
)
from repro.embedding import (
    DeepDirectConfig,
    DeepDirectEmbedding,
    LineConfig,
    Node2VecConfig,
)
from repro.models import (
    DeepDirectModel,
    HFModel,
    LineModel,
    Node2VecModel,
    ReDirectNSM,
    ReDirectTSM,
)
from repro.serve import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    MODEL_CLASS_NAMES,
    load_embedding_artifact,
    load_model_artifact,
    network_from_arrays,
    network_to_arrays,
    read_artifact_meta,
    save_embedding_artifact,
    save_model_artifact,
)


@pytest.fixture(scope="module")
def network():
    """A 60-node mixed network with all three tie kinds (module-scoped)."""
    net = generate_social_network(
        GeneratorConfig(n_nodes=60, ties_per_node=4, reciprocity=0.3),
        seed=5,
    )
    return hide_directions(net, 0.4, seed=1).network


def _factories():
    fast_embedding = DeepDirectConfig(
        dimensions=8, epochs=1.0, max_pairs=4_000
    )
    return {
        "HFModel": lambda: HFModel(),
        "DeepDirectModel": lambda: DeepDirectModel(fast_embedding),
        "LineModel": lambda: LineModel(
            LineConfig(dimensions=8, epochs=1.0, max_samples=4_000)
        ),
        "Node2VecModel": lambda: Node2VecModel(
            Node2VecConfig(
                dimensions=8, walk_length=10, walks_per_node=2
            )
        ),
        "ReDirectTSM": lambda: ReDirectTSM(max_sweeps=5),
        "ReDirectNSM": lambda: ReDirectNSM(
            dimensions=8, rounds=2, inner_epochs=1.0
        ),
    }


@pytest.fixture(scope="module")
def fitted_models(network):
    """One fitted instance per registered model class (module-scoped)."""
    return {
        name: factory().fit(network, seed=3)
        for name, factory in _factories().items()
    }


@pytest.mark.parametrize("name", sorted(_factories()))
def test_roundtrip_scores_identical(fitted_models, tmp_path, name):
    model = fitted_models[name]
    bundle = tmp_path / name
    save_model_artifact(model, bundle)
    restored = load_model_artifact(bundle)
    assert type(restored) is type(model)
    assert np.array_equal(restored.tie_scores(), model.tie_scores())


@pytest.mark.parametrize("name", sorted(_factories()))
def test_roundtrip_batch_api_identical(fitted_models, tmp_path, name):
    model = fitted_models[name]
    bundle = tmp_path / name
    save_model_artifact(model, bundle)
    restored = load_model_artifact(bundle)
    net = model.network
    pairs = np.column_stack([net.tie_src[:20], net.tie_dst[:20]])
    assert np.array_equal(
        restored.directionality_batch(pairs),
        model.directionality_batch(pairs),
    )


def test_method_forms(fitted_models, tmp_path):
    model = fitted_models["HFModel"]
    bundle = tmp_path / "via_methods"
    model.to_artifact(bundle)
    restored = HFModel.from_artifact(bundle)
    assert isinstance(restored, HFModel)
    assert np.array_equal(restored.tie_scores(), model.tie_scores())


def test_from_artifact_rejects_other_class(fitted_models, tmp_path):
    bundle = tmp_path / "hf"
    save_model_artifact(fitted_models["HFModel"], bundle)
    with pytest.raises(ArtifactError, match="holds a HFModel"):
        LineModel.from_artifact(bundle)


def test_registry_covers_every_fitted_class(fitted_models):
    assert set(fitted_models) == set(MODEL_CLASS_NAMES)


def test_meta_contents(fitted_models, tmp_path, network):
    bundle = tmp_path / "meta"
    save_model_artifact(fitted_models["ReDirectTSM"], bundle)
    meta = read_artifact_meta(bundle)
    assert meta["schema"] == ARTIFACT_SCHEMA
    assert meta["kind"] == "model"
    assert meta["model_class"] == "ReDirectTSM"
    assert meta["dataset"]["n_nodes"] == network.n_nodes
    assert "max_sweeps" in meta["params"]
    assert all(
        set(spec) == {"dtype", "shape"} for spec in meta["arrays"].values()
    )


def test_config_params_restored(fitted_models, tmp_path):
    bundle = tmp_path / "cfg"
    save_model_artifact(fitted_models["DeepDirectModel"], bundle)
    restored = load_model_artifact(bundle)
    assert restored.config.dimensions == 8
    assert restored.config.max_pairs == 4_000


def test_unfitted_model_rejected(tmp_path):
    with pytest.raises(RuntimeError, match="fit"):
        save_model_artifact(HFModel(), tmp_path / "bundle")


def test_network_arrays_roundtrip(network):
    arrays = network_to_arrays(network)
    rebuilt = network_from_arrays(
        arrays["network_tie_src"],
        arrays["network_tie_dst"],
        arrays["network_tie_kind"],
        n_nodes=network.n_nodes,
    )
    assert rebuilt.n_nodes == network.n_nodes
    assert np.array_equal(rebuilt.tie_src, network.tie_src)
    assert np.array_equal(rebuilt.tie_dst, network.tie_dst)
    assert np.array_equal(rebuilt.tie_kind, network.tie_kind)


# -- dtype, N and the zero-copy layout ------------------------------------


@pytest.fixture(scope="module")
def float32_deepdirect(network):
    return DeepDirectModel(
        DeepDirectConfig(
            dimensions=8, epochs=1.0, max_pairs=4_000, dtype="float32"
        )
    ).fit(network, seed=3)


def test_float32_roundtrip_keeps_dtype_and_bits(float32_deepdirect, tmp_path):
    model = float32_deepdirect
    bundle = tmp_path / "f32"
    save_model_artifact(model, bundle)
    restored = load_model_artifact(bundle)
    written = model._artifact_arrays()
    reloaded = restored._artifact_arrays()
    assert written["embeddings"].dtype == np.float32
    assert set(reloaded) == set(written)
    for name, arr in written.items():
        assert reloaded[name].dtype == arr.dtype, name
        assert reloaded[name].tobytes() == arr.tobytes(), name
    assert "contexts" not in read_artifact_meta(bundle)["arrays"]
    assert restored.embedding_.contexts is None
    assert np.array_equal(restored.tie_scores(), model.tie_scores())


def test_fit_releases_the_context_matrix(float32_deepdirect):
    """N is read only by the E-Step, so a fitted model holds M but not
    N, exactly like a reloaded one."""
    embedding = float32_deepdirect.embedding_
    assert embedding.contexts is None
    assert embedding.embeddings.shape[0] == (
        float32_deepdirect.network.n_ties
    )


def test_weights_are_memory_mapped(fitted_models, tmp_path):
    bundle = tmp_path / "mapped"
    save_model_artifact(fitted_models["DeepDirectModel"], bundle)
    restored = load_model_artifact(bundle)
    for arr in (restored.tie_embeddings, restored.tie_scores()):
        assert not arr.flags.writeable
        base = arr
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, mmap.mmap)


def test_embedding_artifact_keeps_contexts(network, tmp_path):
    result = DeepDirectEmbedding(
        DeepDirectConfig(
            dimensions=8, epochs=1.0, max_pairs=4_000, dtype="float32"
        )
    ).fit(network, seed=0)
    bundle = tmp_path / "embedding"
    save_embedding_artifact(result, bundle)
    restored = load_embedding_artifact(bundle)
    for name in ("embeddings", "contexts"):
        before, after = getattr(result, name), getattr(restored, name)
        assert after.dtype == before.dtype == np.float32
        assert after.tobytes() == before.tobytes()


def test_reexport_over_mapped_artifact_keeps_scores(fitted_models, tmp_path):
    """Re-exporting onto a bundle a live model has mapped replaces the
    files instead of rewriting them, so the live model reads on."""
    bundle = tmp_path / "live"
    save_model_artifact(fitted_models["DeepDirectModel"], bundle)
    live = load_model_artifact(bundle)
    scores = np.array(live.tie_scores())
    embeddings = np.array(live.tie_embeddings)
    save_model_artifact(fitted_models["HFModel"], bundle)
    assert np.array_equal(live.tie_scores(), scores)
    assert np.array_equal(live.tie_embeddings, embeddings)
    assert isinstance(load_model_artifact(bundle), HFModel)
    assert [p.name for p in tmp_path.iterdir()] == ["live"]


def test_failed_export_leaves_old_bundle(fitted_models, tmp_path, monkeypatch):
    bundle = tmp_path / "bundle"
    model = fitted_models["DeepDirectModel"]
    save_model_artifact(model, bundle)
    real_save = np.save
    calls = []

    def failing_save(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 3:
            raise OSError("disk full")
        return real_save(*args, **kwargs)

    monkeypatch.setattr(np, "save", failing_save)
    with pytest.raises(OSError, match="disk full"):
        save_model_artifact(fitted_models["HFModel"], bundle)
    monkeypatch.undo()
    restored = load_model_artifact(bundle)
    assert np.array_equal(restored.tie_scores(), model.tie_scores())
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]


def test_export_refuses_to_replace_other_directories(fitted_models, tmp_path):
    (tmp_path / "notes.txt").write_text("keep me")
    with pytest.raises(ArtifactError, match="not an artifact bundle"):
        save_model_artifact(fitted_models["HFModel"], tmp_path)
    assert (tmp_path / "notes.txt").read_text() == "keep me"


# -- failure modes ------------------------------------------------------


@pytest.fixture
def hf_bundle(fitted_models, tmp_path):
    bundle = tmp_path / "bundle"
    save_model_artifact(fitted_models["HFModel"], bundle)
    return bundle


def test_missing_bundle_rejected(tmp_path):
    with pytest.raises(ArtifactError, match="not an artifact bundle"):
        load_model_artifact(tmp_path / "nowhere")


def test_invalid_json_rejected(hf_bundle):
    (hf_bundle / "artifact.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(ArtifactError, match="not valid JSON"):
        load_model_artifact(hf_bundle)


def test_wrong_schema_rejected(hf_bundle):
    meta = json.loads((hf_bundle / "artifact.json").read_text())
    meta["schema"] = "something/v9"
    (hf_bundle / "artifact.json").write_text(json.dumps(meta))
    with pytest.raises(ArtifactError, match=f"expected {ARTIFACT_SCHEMA}"):
        load_model_artifact(hf_bundle)


def test_v1_bundle_asks_for_reexport(hf_bundle):
    """The retired single-``weights.npz`` layout has no reader."""
    meta = json.loads((hf_bundle / "artifact.json").read_text())
    meta["schema"] = "repro_artifact/v1"
    (hf_bundle / "artifact.json").write_text(json.dumps(meta))
    shutil.rmtree(hf_bundle / "weights")
    np.savez(hf_bundle / "weights.npz", tie_scores=np.zeros(3))
    with pytest.raises(ArtifactError, match="re-export it"):
        load_model_artifact(hf_bundle)


def test_missing_weights_rejected(hf_bundle):
    shutil.rmtree(hf_bundle / "weights")
    with pytest.raises(ArtifactError, match="missing weights/"):
        load_model_artifact(hf_bundle)


def test_truncated_array_rejected(hf_bundle):
    """A shorter (but well-formed) array disagrees with the manifest."""
    path = hf_bundle / "weights" / "tie_scores.npy"
    np.save(path, np.load(path)[:-3])
    with pytest.raises(ArtifactError, match="truncated or was modified"):
        load_model_artifact(hf_bundle)


def test_byte_truncated_npy_rejected(hf_bundle):
    """Bytes cut off the end of a ``.npy`` fail before anything maps
    past the end of the file."""
    path = hf_bundle / "weights" / "tie_scores.npy"
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ArtifactError, match="'tie_scores' is unreadable"):
        load_model_artifact(hf_bundle)
    path.write_bytes(data[:16])  # cut inside the header
    with pytest.raises(ArtifactError, match="'tie_scores' is unreadable"):
        load_model_artifact(hf_bundle)


def test_dropped_array_rejected(hf_bundle):
    (hf_bundle / "weights" / "tie_scores.npy").unlink()
    with pytest.raises(ArtifactError, match="truncated: missing arrays"):
        load_model_artifact(hf_bundle)


def test_array_names_cannot_leave_the_bundle(hf_bundle, tmp_path):
    np.save(tmp_path / "outside.npy", np.zeros(3))
    meta = json.loads((hf_bundle / "artifact.json").read_text())
    meta["arrays"]["../../outside"] = {"dtype": "float64", "shape": [3]}
    (hf_bundle / "artifact.json").write_text(json.dumps(meta))
    with pytest.raises(ArtifactError, match="invalid array names"):
        load_model_artifact(hf_bundle)


def test_tampered_ties_rejected(hf_bundle):
    """Editing the tie arrays breaks the stored dataset fingerprint."""
    meta = json.loads((hf_bundle / "artifact.json").read_text())
    path = hf_bundle / "weights" / "network_tie_src.npy"
    src = np.load(path)
    src[0], src[1] = src[1], src[0]
    np.save(path, src)
    with pytest.raises(ArtifactError):
        load_model_artifact(hf_bundle)
    assert meta["dataset"]["fingerprint"]  # the guard that caught it


def test_unknown_model_class_rejected(hf_bundle):
    meta = json.loads((hf_bundle / "artifact.json").read_text())
    meta["model_class"] = "EvilModel"
    (hf_bundle / "artifact.json").write_text(json.dumps(meta))
    with pytest.raises(ArtifactError, match="unknown model class"):
        load_model_artifact(hf_bundle)


# -- embedding bundles --------------------------------------------------


def test_embedding_artifact_roundtrip(network, tmp_path):
    result = DeepDirectEmbedding(
        DeepDirectConfig(dimensions=8, epochs=1.0, max_pairs=4_000)
    ).fit(network, seed=0)
    bundle = tmp_path / "embedding"
    save_embedding_artifact(result, bundle, network=network)
    restored = load_embedding_artifact(bundle)
    assert np.array_equal(restored.embeddings, result.embeddings)
    assert np.array_equal(restored.tie_scores(), result.tie_scores())
    meta = read_artifact_meta(bundle)
    assert meta["kind"] == "embedding"
    assert meta["dataset"]["n_nodes"] == network.n_nodes


def test_model_bundle_is_not_an_embedding(hf_bundle):
    with pytest.raises(ArtifactError, match="'model' artifact"):
        load_embedding_artifact(hf_bundle)
