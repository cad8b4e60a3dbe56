"""Whole-``fit`` equivalence between the fused kernels and the oracles.

Unit parity proves one batch matches; these tests prove the integration:
over a complete training run on a small registry preset, a fit is run
once as shipped and once with the trainer module's kernel binding
patched to the scalar oracle of :mod:`.reference`.  Both see identical
samples (all RNG draws happen outside the kernels), so the loss
trajectories and final parameters may differ only by floating-point
summation order compounded across batches.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.embedding.deepdirect as deepdirect
import repro.embedding.line as line
import repro.embedding.node2vec as node2vec
from repro.datasets import hide_directions, load_dataset
from repro.embedding import (
    DeepDirectConfig,
    DeepDirectEmbedding,
    LineConfig,
    LineEmbedding,
    Node2VecConfig,
    Node2VecEmbedding,
)

from .reference import reference_estep_batch, reference_sgns_batch

RTOL = 1e-6
ATOL = 1e-8


#: Each trainer module's kernel binding and the oracle that replaces it.
ORACLES = {
    deepdirect: ("fused_estep_batch", reference_estep_batch),
    line: ("fused_sgns_batch", reference_sgns_batch),
    node2vec: ("fused_sgns_batch", reference_sgns_batch),
}


def _fit_both(monkeypatch, module, fit) -> dict:
    """``fit()`` on the fused kernel, then on the module's oracle."""
    results = {"fused": fit()}
    name, oracle = ORACLES[module]
    with monkeypatch.context() as patched:
        patched.setattr(module, name, oracle)
        results["reference"] = fit()
    return results


@pytest.fixture(scope="module")
def preset_network():
    """The epinions registry preset at trajectory-test scale (~300 nodes),
    with 40% of directions hidden so all three loss terms are live."""
    return hide_directions(
        load_dataset("epinions", scale=0.004, seed=1), 0.4, seed=3
    ).network


def test_deepdirect_loss_trajectory(preset_network, monkeypatch) -> None:
    base = DeepDirectConfig(
        dimensions=8,
        epochs=1.0,
        alpha=5.0,
        beta=1.0,
        n_negative=3,
        batch_size=128,
        max_pairs=4_000,
    )
    results = _fit_both(monkeypatch, deepdirect, lambda: DeepDirectEmbedding(
        base).fit(preset_network, seed=42, log_every=5))
    fused, ref = results["fused"], results["reference"]

    assert fused.n_pairs_trained == ref.n_pairs_trained
    assert len(fused.loss_history) == len(ref.loss_history)
    assert len(fused.loss_history) >= 5
    f_pairs, f_losses = zip(*fused.loss_history)
    r_pairs, r_losses = zip(*ref.loss_history)
    assert f_pairs == r_pairs
    np.testing.assert_allclose(f_losses, r_losses, rtol=RTOL, atol=ATOL)

    np.testing.assert_allclose(
        fused.embeddings, ref.embeddings, rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        fused.contexts, ref.contexts, rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        fused.classifier_weights, ref.classifier_weights,
        rtol=RTOL, atol=ATOL,
    )
    np.testing.assert_allclose(
        fused.classifier_bias, ref.classifier_bias, rtol=RTOL, atol=ATOL
    )


def test_deepdirect_trajectory_is_nontrivial(preset_network) -> None:
    """The trajectory the regression protects actually trains something.

    Single-checkpoint batch losses are noisy at this scale, so the
    decrease is asserted on the means of the opening and closing thirds
    of the history rather than on two individual batches.
    """
    cfg = DeepDirectConfig(
        dimensions=8, epochs=1.0, alpha=5.0, beta=1.0, n_negative=3,
        batch_size=128, max_pairs=12_000,
    )
    result = DeepDirectEmbedding(cfg).fit(preset_network, seed=42,
                                          log_every=5)
    losses = [loss for _, loss in result.loss_history]
    third = max(1, len(losses) // 3)
    head, tail = np.mean(losses[:third]), np.mean(losses[-third:])
    assert tail < head, f"loss did not decrease over the fit ({head} -> {tail})"
    assert np.any(result.classifier_weights != 0.0)


def test_line_loss_trajectory(preset_network, monkeypatch) -> None:
    base = LineConfig(
        dimensions=8, epochs=1.0, n_negative=3, batch_size=128,
        max_samples=3_000,
    )
    results = _fit_both(monkeypatch, line, lambda: LineEmbedding(base).fit(
        preset_network, seed=7, log_every=5))
    fused, ref = results["fused"], results["reference"]
    assert len(fused.loss_history) == len(ref.loss_history)
    f_losses = [loss for _, loss in fused.loss_history]
    r_losses = [loss for _, loss in ref.loss_history]
    np.testing.assert_allclose(f_losses, r_losses, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        fused.node_embeddings, ref.node_embeddings, rtol=RTOL, atol=ATOL
    )


def test_node2vec_loss_trajectory(preset_network, monkeypatch) -> None:
    base = Node2VecConfig(
        dimensions=8, walk_length=10, walks_per_node=2, window=3,
        n_negative=3, batch_size=128, epochs=0.05,
    )
    results = _fit_both(monkeypatch, node2vec, lambda: Node2VecEmbedding(
        base).fit(preset_network, seed=7, log_every=5))
    fused, ref = results["fused"], results["reference"]
    assert fused.n_walks == ref.n_walks
    assert len(fused.loss_history) == len(ref.loss_history)
    f_losses = [loss for _, loss in fused.loss_history]
    r_losses = [loss for _, loss in ref.loss_history]
    np.testing.assert_allclose(f_losses, r_losses, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        fused.node_embeddings, ref.node_embeddings, rtol=RTOL, atol=ATOL
    )


F32_RTOL = 2e-3
F32_ATOL = 5e-4


def test_deepdirect_float32_trajectory(preset_network, monkeypatch) -> None:
    """float32 fused-vs-reference full fit at loosened tolerances.

    The sampling stream is dtype-independent (draws happen in float64
    and round once at init), so both kernels see identical samples and
    differ only by float32 summation order compounded across batches.
    """
    base = DeepDirectConfig(
        dimensions=8, epochs=1.0, alpha=5.0, beta=1.0, n_negative=3,
        batch_size=128, max_pairs=4_000, dtype="float32",
    )
    results = _fit_both(monkeypatch, deepdirect, lambda: DeepDirectEmbedding(
        base).fit(preset_network, seed=42, log_every=5))
    fused, ref = results["fused"], results["reference"]

    assert fused.embeddings.dtype == np.float32
    assert ref.embeddings.dtype == np.float32
    f_losses = [loss for _, loss in fused.loss_history]
    r_losses = [loss for _, loss in ref.loss_history]
    np.testing.assert_allclose(f_losses, r_losses,
                               rtol=F32_RTOL, atol=F32_ATOL)
    np.testing.assert_allclose(
        fused.embeddings, ref.embeddings, rtol=F32_RTOL, atol=F32_ATOL
    )
    np.testing.assert_allclose(
        fused.classifier_weights, ref.classifier_weights,
        rtol=F32_RTOL, atol=F32_ATOL,
    )


def test_deepdirect_float32_tracks_float64(preset_network) -> None:
    """Same seed, same samples: the float32 fit stays within rounding
    distance of the float64 fit over a short run."""
    base = DeepDirectConfig(
        dimensions=8, epochs=1.0, alpha=5.0, beta=1.0, n_negative=3,
        batch_size=128, max_pairs=4_000,
    )
    r64 = DeepDirectEmbedding(base).fit(preset_network, seed=42)
    r32 = DeepDirectEmbedding(
        dataclasses.replace(base, dtype="float32")
    ).fit(preset_network, seed=42)
    # Embeddings start identical (single rounding) and drift only by
    # accumulated rounding; a loose global agreement is the contract.
    np.testing.assert_allclose(
        r32.embeddings, r64.embeddings, rtol=0.1, atol=0.02
    )
