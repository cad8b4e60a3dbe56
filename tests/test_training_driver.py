"""The one training driver: every shard draws its own plan.

DeepDirect, LINE and node2vec all train through
:func:`repro.embedding.hogwild.train`.  A shard of the batch schedule
moves its sampling streams to its first sample and draws its plan
lazily, so the contract checked here is that any split of
``[0, n_batches)`` into shards yields, concatenated, exactly the
batches of the single in-process shard — whatever the plan segment
budget, and for generators that can jump (PCG64) as well as for those
that must draw and discard (MT19937).  The tasks are driven directly,
without forking; one ``workers=2`` fit per trainer then runs under the
``spawn`` start method, where each worker rebuilds its streams from a
pickled task.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.embedding.deepdirect as deepdirect
import repro.embedding.hogwild as hogwild
import repro.embedding.line as line
import repro.embedding.node2vec as node2vec
import repro.embedding.samplers as samplers
from repro.embedding import (
    DeepDirectConfig,
    DeepDirectEmbedding,
    LineConfig,
    LineEmbedding,
    Node2VecConfig,
    Node2VecEmbedding,
)
from repro.obs import TrainerCallback

# Short runs (47 batches of 64 for DeepDirect and LINE).
TRAINERS = {
    "deepdirect": (deepdirect, lambda **kw: DeepDirectEmbedding(
        DeepDirectConfig(dimensions=8, n_negative=3, batch_size=64,
                         max_pairs=47 * 64, **kw))),
    "line": (line, lambda **kw: LineEmbedding(
        LineConfig(dimensions=8, n_negative=3, batch_size=64,
                   max_samples=47 * 64, **kw))),
    "node2vec": (node2vec, lambda **kw: Node2VecEmbedding(
        Node2VecConfig(dimensions=8, walk_length=8, walks_per_node=2,
                       window=2, n_negative=3, batch_size=64,
                       epochs=0.5, **kw))),
}


class _Captured(Exception):
    pass


def _capture_task(trainer: str, network, seed):
    """The task and batch count a ``fit`` hands to the driver."""
    module, make = TRAINERS[trainer]
    captured = {}

    def fake_train(task, arrays, **kwargs):
        captured.update(task=task, n_batches=kwargs["n_batches"])
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "train", fake_train)
        with pytest.raises(_Captured):
            make().fit(network, seed=seed)
    return captured["task"], captured["n_batches"]


def _shard_batches(module, task, start: int, stop: int) -> list[tuple]:
    """Copies of the batches shard ``[start, stop)`` of ``task`` draws."""
    drawn = []

    def spy(*args):
        batches = samplers.planned_batches(*args)
        drawn.append(batches)
        return batches

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "planned_batches", spy)
        task.shard(start, stop).setup({}, np.random.default_rng(0))
    return [tuple(np.array(a) for a in batch) for batch in drawn[0]]


def _assert_same_batches(got: list[tuple], want: list[tuple]) -> None:
    assert len(got) == len(want)
    for got_batch, want_batch in zip(got, want):
        for a, b in zip(got_batch, want_batch):
            assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def tasks(discovery_task):
    return {
        name: _capture_task(name, discovery_task.network, 21)
        for name in TRAINERS
    }


@settings(max_examples=20, deadline=None)
@given(
    trainer=st.sampled_from(sorted(TRAINERS)),
    cuts=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=3),
    budget=st.sampled_from([1, 3_000, 20_000, 1 << 30]),
)
def test_shards_concatenate_to_the_one_shard_plan(
    tasks, trainer, cuts, budget
):
    module, _ = TRAINERS[trainer]
    task, n_batches = tasks[trainer]
    bounds = [0, *sorted(int(c * n_batches) for c in cuts), n_batches]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(samplers, "_PLAN_SEGMENT_BYTES", budget)
        split = [
            batch
            for start, stop in zip(bounds[:-1], bounds[1:])
            for batch in _shard_batches(module, task, start, stop)
        ]
    whole = _shard_batches(module, task, 0, n_batches)
    _assert_same_batches(split, whole)


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_generators_without_advance_draw_and_discard(
    discovery_task, trainer
):
    module, _ = TRAINERS[trainer]
    rng = np.random.Generator(np.random.MT19937(5))
    assert not hasattr(rng.bit_generator, "advance")
    task, n_batches = _capture_task(trainer, discovery_task.network, rng)
    whole = _shard_batches(module, task, 0, n_batches)
    split = [
        batch
        for start, stop in hogwild.contiguous_shards(n_batches, 3)
        for batch in _shard_batches(module, task, start, stop)
    ]
    _assert_same_batches(split, whole)


def test_pcg64_jump_equals_a_long_draw():
    rng = np.random.default_rng(3)
    rng.random(11)
    child = rng.spawn(1)[0]
    long = samplers.advanced(child, 0).random(500)
    for k in (0, 1, 257, 499):
        assert np.array_equal(samplers.advanced(child, k).random(1),
                              long[k:k + 1])
    # The jumped copy leaves the original stream where it was.
    assert np.array_equal(child.random(3), long[:3])


class _FitEnd(TrainerCallback):
    def __init__(self) -> None:
        self.logs: dict = {}

    def on_fit_end(self, run, logs) -> None:
        self.logs = dict(logs)


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_spawned_workers_rebuild_their_streams(
    discovery_task, trainer, monkeypatch
):
    monkeypatch.setattr(hogwild, "_context",
                        lambda: mp.get_context("spawn"))
    _, make = TRAINERS[trainer]
    fit_end = _FitEnd()
    result = make(workers=2, min_pairs_per_worker=0).fit(
        discovery_task.network, seed=21, callbacks=[fit_end]
    )
    arrays = ([result.embeddings, result.contexts]
              if trainer == "deepdirect" else [result.node_embeddings])
    for array in arrays:
        assert np.all(np.isfinite(array))
    pairs = fit_end.logs["n_pairs_trained"]
    assert fit_end.logs["workers"] == 2
    # Every planned sample was drawn once, by the worker owning it.
    assert fit_end.logs["negative_draws"] == 3 * pairs
    if trainer == "deepdirect":
        assert fit_end.logs["pair_draws"] == pairs
