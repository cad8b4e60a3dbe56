"""One training driver for the embedding trainers, in-process or HOGWILD.

DeepDirect, LINE and node2vec each describe their SGD as a task
(:class:`HogwildTask`): ``setup`` builds one shard's state — its kernel
workspace and its own lazily drawn sample plan — ``step`` trains one
batch, ``counters`` reports the shard's deterministic draw counts, and
``shard(start, stop)`` narrows the task to a contiguous range of the
batch schedule.  :func:`train` runs such a task:

* ``workers=1`` runs the single shard ``[0, n_batches)`` in-process on
  ordinary private arrays, the bit-identical seeded path, with
  per-batch callbacks, health sentinels and loss history;
* ``workers>1`` hands the task to :func:`run_hogwild`, the HOGWILD
  recipe (Niu et al., 2011) of the word2vec lineage the E-Step builds
  on.  Every model array lives in its own shared-memory segment, which
  the workers update concurrently without locks.  Each worker owns one
  contiguous slice of the schedule (:func:`contiguous_shards`) and runs
  the same per-shard loop (:func:`_run_shard`) as the in-process path:
  the learning-rate decay uses the global batch index, and the pair
  budget is exactly the sequential run's.

Every shard draws its own plan: it moves its sampling streams to the
shard's offset and pulls byte-bounded plan segments as it trains, so
neither the parent nor a worker ever holds more than one segment of
samples.  A worker therefore trains on exactly the sequential run's
samples for its batches; only the interleaving of the lock-free
scatter-adds is left to the scheduler, which is why ``workers>1`` runs
are seeded but not bit-reproducible.

The parent never touches the hot loop: it polls a small shared stats
block and forwards merged progress (plus per-worker ``pairs_per_sec``
gauges) through the :mod:`repro.obs` callback layer.
"""

from __future__ import annotations

import dataclasses
import mmap
import multiprocessing as mp
import os
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np

from ..obs import (
    CallbackList,
    MetricsRegistry,
    RunInfo,
    TrainerCallback,
    record_worker_stats,
)
from ..obs.health import maybe_poison
from ..obs.metrics import EMATracker, hogwild_aggregates
from ..obs.trace import Tracer, activate, current_tracer, instant, span

# Per-worker slots in the shared stats block.  Aligned float64 writes
# are effectively atomic on every platform we target; the block is
# advisory telemetry, so even a torn read would only skew one progress
# snapshot, never the model.  ``_HEARTBEAT`` holds the worker's last
# ``time.monotonic()`` reading — on Linux CLOCK_MONOTONIC is system-wide,
# so the parent can subtract its own reading to get a heartbeat age.
(_BATCHES, _PAIRS, _LOSS_SUM, _LAST_LOSS, _ELAPSED,
 _HEARTBEAT) = range(6)
_N_FIXED = 6
_STATS = "_stats"
_POLL_SECONDS = 0.02

#: Default heartbeat age (seconds) past which a live worker counts as
#: stalled.  Generous: a stall flag on a healthy-but-slow CI box would
#: train users to ignore the signal.
STALL_AFTER_SECONDS = 30.0


class HogwildTask(Protocol):
    """What a trainer must provide to run under :func:`run_hogwild`.

    Implementations must be picklable (plain dataclasses of arrays and
    configs) so the backend also works under the ``spawn`` start method.
    Two hooks are optional: ``shard(start, stop)`` returns the task for
    batches ``start .. stop - 1`` (each worker gets its own), and
    ``terms(state)`` returns the last step's loss terms beside its total
    for the in-process telemetry of :func:`train` (a ``grad_norm`` entry
    feeds the health monitor's gradient histogram instead).
    """

    def setup(
        self, arrays: dict[str, np.ndarray], rng: np.random.Generator
    ) -> Any:
        """Build per-shard state (runs once, inside the worker)."""

    def step(
        self,
        state: Any,
        arrays: dict[str, np.ndarray],
        batch_idx: int,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        """Run one SGD batch against the shared arrays; return its loss."""

    def counters(self, state: Any) -> tuple[int, ...]:
        """Final deterministic counter values, in ``counter_names`` order."""


@dataclass(kw_only=True)
class ShardTask:
    """Base of the trainers' tasks: one shard of the batch schedule.

    Subclasses hold the trainer's ``config``, whose schedule settings
    :func:`train` reads.  :meth:`shard` sets ``start``/``stop``;
    :func:`train` sets
    ``loss_every`` (compute the loss on batches whose index it divides:
    1 whenever anything reads every batch's loss) and
    ``track_grad_norm`` (the in-process health monitor reads it).
    """

    start: int = 0
    stop: int = 0
    loss_every: int = 1
    track_grad_norm: bool = False

    def shard(self, start: int, stop: int) -> "ShardTask":
        """This task for batches ``start .. stop - 1`` only."""
        return dataclasses.replace(self, start=start, stop=stop)

    def wants_loss(self, batch_idx: int) -> bool:
        return batch_idx % self.loss_every == 0


@dataclass(frozen=True)
class SegmentArray:
    """A model array that the driver allocates, instead of copying it in.

    An ndarray handed to :func:`run_hogwild` is copied into a segment,
    so the caller holds the model twice for the whole run.  A
    ``SegmentArray`` is allocated where the run keeps it — a shared
    segment under HOGWILD, a private array in-process — and starts as a
    zero fill; ``init(view)``, when given, fills it in place before
    training starts.
    """

    shape: tuple[int, ...]
    dtype: np.dtype
    init: Callable[[np.ndarray], Any] | None = None


def contiguous_shards(n_batches: int, workers: int) -> list[tuple[int, int]]:
    """Split ``[0, n_batches)`` into ``workers`` contiguous ranges.

    The first ``n_batches % workers`` shards get one extra batch, so
    shard sizes differ by at most one, and each worker's batches form
    one contiguous stretch of every sampling stream.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    base, rem = divmod(max(n_batches, 0), workers)
    shards = []
    start = 0
    for w in range(workers):
        stop = start + base + (1 if w < rem else 0)
        shards.append((start, stop))
        start = stop
    return shards


@dataclass
class HogwildResult:
    """Merged outcome of one training run (in-process or parallel)."""

    arrays: dict[str, np.ndarray]
    loss_history: list[tuple[int, float]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    worker_stats: list[dict[str, float]] = field(default_factory=list)
    pairs_trained: int = 0
    loss_ema: float | None = None


def should_degrade(
    workers: int, total_pairs: int, min_pairs_per_worker: int
) -> bool:
    """True when a ``workers > 1`` request should fall back to sequential.

    Process startup, shared-memory setup and stats polling are fixed
    costs per worker; when each worker's slice of the pair budget is
    too small to amortise them, HOGWILD is *slower* than the sequential
    path (``speedup_vs_1 < 1``).  :func:`train` then degrades loudly (a
    ``RuntimeWarning`` and ``hogwild_degraded`` in ``fit_begin``)
    instead of shipping the regression silently.  A floor of ``0``
    disables the gate.
    """
    if workers < 2 or min_pairs_per_worker <= 0:
        return False
    return total_pairs // workers < min_pairs_per_worker


def _run_shard(
    task: HogwildTask,
    state: Any,
    arrays: dict[str, np.ndarray],
    rng: np.random.Generator,
    start: int,
    stop: int,
    n_batches: int,
    lr0: float,
    lr_floor: float,
    after_batch: Callable[[int, float, float], None],
) -> None:
    """Train batches ``start .. stop - 1``: the loop of every shard.

    The learning rate decays with the *global* batch index, so a shard's
    schedule is exactly its slice of the sequential one.
    ``after_batch(batch_idx, lr, loss)`` publishes each batch — into the
    shared stats block in a worker; to callbacks, health and the loss
    history in-process.
    """
    for batch_idx in range(start, stop):
        lr = lr0 * max(1.0 - batch_idx / n_batches, lr_floor)
        # Poison test hook: a no-op unless REPRO_HEALTH_POISON names this
        # batch.  In a worker it lands one NaN in the shared view, which
        # the parent's monitor must catch from the stats block or sweep.
        maybe_poison(batch_idx, arrays)
        loss = float(task.step(state, arrays, batch_idx, lr, rng))
        after_batch(batch_idx, lr, loss)


def _view(
    shm: shared_memory.SharedMemory, shape: tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    return np.ndarray(shape, dtype=dtype, buffer=shm.buf)


def _map_out(
    shm: shared_memory.SharedMemory, shape: tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """The array of segment ``shm`` through a mapping of its own.

    The mapping outlives ``shm.close()`` and ``unlink()`` and goes away
    with the last array that uses it, taking the segment's pages along:
    a caller that drops one array (``DeepDirectModel`` drops N) frees
    it, and nothing is ever copied.  Without a file descriptor (Windows
    segments) the array is copied out instead.
    """
    fd = getattr(shm, "_fd", -1)
    if fd < 0:  # pragma: no cover - POSIX segments always have one
        return _view(shm, shape, dtype).copy()
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(fd, shm.size))


#: One shared array: (array name, segment name, shape, dtype string).
_Spec = tuple[str, str, tuple[int, ...], str]


def _worker_main(
    worker_id: int,
    specs: tuple[_Spec, ...],
    task: HogwildTask,
    rng: np.random.Generator,
    batch_start: int,
    batch_stop: int,
    n_batches: int,
    batch_size: int,
    lr0: float,
    lr_floor: float,
    n_counters: int,
    trace_path: str | None = None,
) -> None:
    """Worker entry point: run this worker's slice of the batch schedule.

    When the parent traces the run, ``trace_path`` names a spill file:
    the worker records its own span tree (under its real ``pid``, which
    becomes its lane) with a fresh :class:`Tracer` and writes the
    records there for the parent to merge at join.  The tracer is
    installed as the worker's *active* tracer, replacing any parent
    tracer inherited through ``fork`` — the parent object would absorb
    spans invisibly and they would die with the process.

    Attaching registers each segment with the resource tracker again
    (python/cpython#82300).  Workers started by ``multiprocessing``
    share the parent's tracker under ``fork`` and ``spawn`` alike, so
    the duplicate registration is a set no-op: the parent's ``unlink``
    unregisters the segment once, for everybody.
    """
    tracer = Tracer() if trace_path is not None else None
    activate(tracer)
    segments = [shared_memory.SharedMemory(name=segment)
                for _, segment, _, _ in specs]
    views = row = state = None
    try:
        with span("hogwild.worker", worker_id=worker_id) as worker_sp:
            views = {
                name: _view(shm, shape, np.dtype(dtype))
                for (name, _, shape, dtype), shm in zip(specs, segments)
            }
            row = views.pop(_STATS)[worker_id]
            row[_HEARTBEAT] = time.monotonic()
            with span("hogwild.worker_setup", worker_id=worker_id):
                state = task.setup(views, rng)
            start = time.perf_counter()

            def publish(batch_idx: int, lr: float, loss: float) -> None:
                row[_LAST_LOSS] = loss
                row[_LOSS_SUM] += loss
                row[_PAIRS] += batch_size
                row[_ELAPSED] = time.perf_counter() - start
                row[_BATCHES] += 1
                row[_HEARTBEAT] = time.monotonic()

            with span("hogwild.worker_train", worker_id=worker_id) as train_sp:
                _run_shard(task, state, views, rng, batch_start, batch_stop,
                           n_batches, lr0, lr_floor, publish)
                train_sp.set(batches=int(row[_BATCHES]),
                             pairs=int(row[_PAIRS]))
            for slot, value in enumerate(task.counters(state)[:n_counters]):
                row[_N_FIXED + slot] = float(value)
            row[_ELAPSED] = time.perf_counter() - start
            worker_sp.set(batches=int(row[_BATCHES]))
        if tracer is not None:
            tracer.write_jsonl(trace_path)
    finally:
        # Views into the segments must be gone before close(); the
        # process is exiting anyway, so a lingering export is harmless.
        views = row = state = publish = None
        for shm in segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover
                pass


def _context() -> mp.context.BaseContext:
    """Prefer fork (cheap, COW-shares the task payload) over spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def run_hogwild(
    task: HogwildTask,
    arrays: Mapping[str, np.ndarray | SegmentArray],
    *,
    n_batches: int,
    batch_size: int,
    workers: int,
    rng: np.random.Generator,
    lr0: float,
    lr_floor: float = 0.01,
    counter_names: Sequence[str] = (),
    callbacks: CallbackList | None = None,
    run: RunInfo | None = None,
    log_every: int = 200,
    pairs_per_epoch: int | None = None,
    health: "Any | None" = None,
    stall_after_s: float = STALL_AFTER_SECONDS,
) -> HogwildResult:
    """Train ``task`` with ``workers`` lock-free processes.

    Each of ``arrays`` gets a shared-memory segment of its own (an
    ndarray is copied in, a :class:`SegmentArray` is allocated there),
    is mutated in place by every worker, and comes back in
    :attr:`HogwildResult.arrays` mapped straight from its segment: no
    copy, and dropping a returned array frees its segment.  Progress
    callbacks fire from the parent at a polling cadence:
    ``on_batch_end`` carries the merged pair counts, the loss averaged
    over the workers' latest batches and its EMA, per-worker
    ``worker<i>_pairs_per_sec`` gauges, and the fleet gauges
    (``hogwild.straggler_lag_pairs``, ``hogwild.parallel_efficiency``,
    ``hogwild.stalled_workers``).

    ``health`` is a :class:`repro.obs.health.HealthMonitor`; the parent
    feeds it each poll's per-worker losses plus the live shared-memory
    model views (workers never see the monitor), so under
    ``policy="abort"`` a :class:`~repro.obs.health.TrainingDivergedError`
    raised here unwinds through the ``finally`` that terminates workers
    and unlinks the segments.  Under ``policy="rollback"`` the monitor
    restores its checkpoint *into the live views* — best-effort while
    workers race, but enough to pull a run back from a single poisoned
    scatter.  A live worker whose heartbeat is older than
    ``stall_after_s`` is flagged stalled (gauge + ``RuntimeWarning`` +
    a ``hogwild.stalled`` trace instant, once per worker).
    """
    if workers < 2:
        raise ValueError("run_hogwild needs workers >= 2; "
                         "use the sequential path for workers=1")
    counter_names = tuple(counter_names)
    if _STATS in arrays:
        raise ValueError(f"array name {_STATS!r} is reserved")
    # Arrays keep their incoming dtype (float32 models stay float32 in
    # their segments); the stats block is always float64.
    shapes: dict[str, tuple[tuple[int, ...], np.dtype]] = {
        name: (tuple(int(d) for d in a.shape), np.dtype(a.dtype))
        for name, a in arrays.items()
    }
    shapes[_STATS] = (
        (workers, _N_FIXED + len(counter_names)), np.dtype(np.float64)
    )

    cb = callbacks if isinstance(callbacks, CallbackList) else CallbackList(
        callbacks
    )
    ctx = _context()
    segments: dict[str, shared_memory.SharedMemory] = {}
    procs: list[mp.process.BaseProcess] = []
    loss_history: list[tuple[int, float]] = []
    loss_ema = EMATracker(0.05)
    views: dict[str, np.ndarray] | None = None
    stats = snap = model_views = None
    trace_dir: str | None = None
    try:
        for name, (shape, dtype) in shapes.items():
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            segments[name] = shared_memory.SharedMemory(
                create=True, size=max(nbytes, 1)
            )
        views = {name: _view(segments[name], *shapes[name]) for name in shapes}
        # A new segment is zero-filled, so a SegmentArray without an
        # init is never written (nor paged in) by the parent.
        for name, source in arrays.items():
            if not isinstance(source, SegmentArray):
                views[name][...] = source
            elif source.init is not None:
                source.init(views[name])
        stats = views.pop(_STATS)
        specs = tuple(
            (name, segments[name].name, shape, dtype.str)
            for name, (shape, dtype) in shapes.items()
        )

        child_rngs = rng.spawn(workers)
        shards = contiguous_shards(n_batches, workers)
        shard_fn = getattr(task, "shard", None)
        worker_tasks = [
            shard_fn(start, stop) if callable(shard_fn) else task
            for start, stop in shards
        ]
        tracer = current_tracer()
        if tracer is not None and tracer.enabled:
            trace_dir = tempfile.mkdtemp(prefix="repro-hogwild-trace-")
            trace_paths = [
                os.path.join(trace_dir, f"worker{worker_id}.jsonl")
                for worker_id in range(workers)
            ]
        else:
            trace_dir = None
            trace_paths = [None] * workers
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(
                    worker_id, specs, worker_tasks[worker_id],
                    child_rngs[worker_id],
                    shards[worker_id][0], shards[worker_id][1], n_batches,
                    batch_size, lr0, lr_floor,
                    len(counter_names), trace_paths[worker_id],
                ),
                daemon=True,
            )
            for worker_id in range(workers)
        ]
        start = time.perf_counter()
        for proc in procs:
            proc.start()

        last_batches = 0
        next_log = 0
        next_health_log = 0
        epoch = 0
        stalled_flagged = [False] * workers
        model_views = {name: views[name] for name in arrays}

        def worker_telemetry(snap: np.ndarray) -> list[dict[str, float]]:
            """Per-worker stat dicts (heartbeat ages, stall flags)."""
            now = time.monotonic()
            out = []
            for i in range(workers):
                beat = float(snap[i, _HEARTBEAT])
                age = (now - beat) if beat > 0.0 else 0.0
                alive = i < len(procs) and procs[i].is_alive()
                stalled = alive and beat > 0.0 and age > stall_after_s
                out.append({
                    "batches": int(snap[i, _BATCHES]),
                    "pairs": int(snap[i, _PAIRS]),
                    "elapsed_s": float(snap[i, _ELAPSED]),
                    "pairs_per_sec": float(
                        snap[i, _PAIRS] / max(snap[i, _ELAPSED], 1e-9)
                    ),
                    "heartbeat_age_s": age,
                    "stalled": bool(stalled),
                })
                if stalled and not stalled_flagged[i]:
                    stalled_flagged[i] = True
                    instant("hogwild.stalled", worker_id=i,
                            heartbeat_age_s=age)
                    warnings.warn(
                        f"HOGWILD worker {i} stalled: no heartbeat for "
                        f"{age:.1f}s (pid={procs[i].pid})",
                        RuntimeWarning,
                    )
            return out

        def emit_progress(snap: np.ndarray) -> None:
            nonlocal last_batches, next_log, next_health_log, epoch
            merged_batches = int(snap[:, _BATCHES].sum())
            if merged_batches <= last_batches:
                return
            pairs_done = int(snap[:, _PAIRS].sum())
            active = snap[:, _BATCHES] > 0
            mean_loss = float(snap[active, _LAST_LOSS].mean())
            loss_ema.update(mean_loss)
            if merged_batches >= next_log:
                loss_history.append((pairs_done, mean_loss))
                next_log = merged_batches - merged_batches % log_every
                next_log += log_every
            per_worker = worker_telemetry(snap)
            if cb and run is not None:
                elapsed = time.perf_counter() - start
                logs: dict[str, Any] = {
                    "L": mean_loss,
                    "L_ema": loss_ema.value,
                    "lr": lr0 * max(1.0 - merged_batches / n_batches,
                                    lr_floor),
                    "pairs": pairs_done,
                    "pairs_per_sec": pairs_done / max(elapsed, 1e-9),
                    "workers": workers,
                }
                for i in range(workers):
                    logs[f"worker{i}_pairs_per_sec"] = (
                        per_worker[i]["pairs_per_sec"]
                    )
                    logs[f"hogwild.worker.{i}.pairs"] = per_worker[i]["pairs"]
                    logs[f"hogwild.worker.{i}.heartbeat_age_s"] = (
                        per_worker[i]["heartbeat_age_s"]
                    )
                logs.update(hogwild_aggregates(per_worker))
                cb.on_batch_end(run, merged_batches - 1, logs)
                if pairs_per_epoch:
                    new_epoch = pairs_done // pairs_per_epoch
                    if new_epoch > epoch:
                        epoch = int(new_epoch)
                        cb.on_epoch_end(
                            run, epoch,
                            {"pairs": pairs_done, "L_ema": loss_ema.value},
                        )
            # Health after progress: an abort still leaves the last
            # progress event in the telemetry stream for `repro monitor`.
            if health is not None:
                worker_losses = [
                    (i, float(snap[i, _LAST_LOSS]))
                    for i in range(workers)
                    if snap[i, _BATCHES] > 0
                ]
                health.observe_workers(
                    merged_batches, worker_losses, arrays=model_views
                )
                if cb and run is not None and merged_batches >= next_health_log:
                    next_health_log = (
                        merged_batches - merged_batches % log_every
                        + log_every
                    )
                    cb.on_event(run, "health", health.event_payload())
            last_batches = merged_batches

        while any(proc.is_alive() for proc in procs):
            failed = [
                proc for proc in procs
                if not proc.is_alive() and proc.exitcode not in (0, None)
            ]
            if failed:
                raise RuntimeError(
                    f"HOGWILD worker exited with code {failed[0].exitcode}"
                )
            emit_progress(stats.copy())
            time.sleep(_POLL_SECONDS)
        for proc in procs:
            proc.join()
        if any(proc.exitcode for proc in procs):
            codes = [proc.exitcode for proc in procs]
            raise RuntimeError(f"HOGWILD workers failed: exit codes {codes}")

        if tracer is not None and trace_dir is not None:
            from ..obs.trace import read_trace

            for path in trace_paths:
                if path is not None and os.path.exists(path):
                    tracer.merge(read_trace(path))

        snap = stats.copy()
        emit_progress(snap)
        if not loss_history:
            loss_history.append((int(snap[:, _PAIRS].sum()), 0.0))

        # All workers have joined: ages are settled, and ``stalled``
        # records whether the watchdog ever flagged the worker.
        worker_stats = worker_telemetry(snap)
        for i, per_worker in enumerate(worker_stats):
            per_worker.update(heartbeat_age_s=0.0, stalled=stalled_flagged[i])
            for j, name in enumerate(counter_names):
                per_worker[name] = int(snap[i, _N_FIXED + j])
        return HogwildResult(
            arrays={name: _map_out(segments[name], *shapes[name])
                    for name in arrays},
            loss_history=loss_history,
            counters={
                name: sum(int(w[name]) for w in worker_stats)
                for name in counter_names
            },
            worker_stats=worker_stats,
            pairs_trained=int(snap[:, _PAIRS].sum()),
            loss_ema=loss_ema.value,
        )
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
        views = stats = snap = model_views = None  # release buffer exports
        for shm in segments.values():
            try:
                shm.close()
            except BufferError:
                # A propagating exception (TrainingDivergedError under
                # policy="abort") pins frames whose locals still hold
                # views into the segment; close() must not mask that
                # exception.  unlink() below still works and the OS
                # reclaims the mapping when the traceback dies.
                pass
            shm.unlink()


def _allocate(array: np.ndarray | SegmentArray) -> np.ndarray:
    """An in-process run's private array for one of its ``arrays``."""
    if not isinstance(array, SegmentArray):
        return array
    out = np.zeros(array.shape, dtype=array.dtype)
    if array.init is not None:
        array.init(out)
    return out


def _train_in_process(
    task: ShardTask,
    arrays: dict[str, np.ndarray],
    rng: np.random.Generator,
    *,
    n_batches: int,
    batch_size: int,
    lr0: float,
    counter_names: tuple[str, ...],
    cb: CallbackList,
    run: RunInfo,
    log_every: int,
    pairs_per_epoch: int | None,
    health: Any | None,
    fit_start: float,
) -> HogwildResult:
    """The one-shard run: :func:`_run_shard` over ``[0, n_batches)``."""
    task = task.shard(0, n_batches)
    state = task.setup(arrays, rng)
    terms_fn = getattr(task, "terms", None)
    history: list[tuple[int, float]] = []
    loss_ema = EMATracker(0.05)
    epoch = 0

    def after_batch(batch_idx: int, lr: float, loss: float) -> None:
        nonlocal epoch
        terms: dict[str, Any] = {}
        if (cb or health is not None) and terms_fn is not None:
            terms = dict(terms_fn(state))
        if health is not None:
            grad_norm = terms.pop("grad_norm", None)
            health.observe_batch(batch_idx, {"L": loss, **terms},
                                 arrays=arrays, grad_norm=grad_norm)
            if cb and batch_idx % log_every == 0:
                cb.on_event(run, "health", health.event_payload())
        if batch_idx % log_every == 0:
            history.append((batch_idx * batch_size, loss))
        if cb:
            pairs_done = (batch_idx + 1) * batch_size
            elapsed = time.perf_counter() - fit_start
            cb.on_batch_end(run, batch_idx, {
                "L": loss,
                "L_ema": loss_ema.update(loss),
                **terms,
                "lr": lr,
                "pairs": pairs_done,
                "pairs_per_sec": pairs_done / max(elapsed, 1e-9),
            })
            if pairs_per_epoch and pairs_done // pairs_per_epoch > epoch:
                epoch = pairs_done // pairs_per_epoch
                cb.on_epoch_end(run, epoch, {"pairs": pairs_done,
                                             "L_ema": loss_ema.value})

    _run_shard(task, state, arrays, rng, 0, n_batches, n_batches, lr0, 0.01,
               after_batch)
    return HogwildResult(
        arrays=arrays,
        loss_history=history,
        counters=dict(zip(counter_names, task.counters(state))),
        pairs_trained=n_batches * batch_size,
        loss_ema=loss_ema.value,
    )


def train(
    task: ShardTask,
    arrays: Mapping[str, np.ndarray | SegmentArray],
    *,
    trainer: str,
    phase: str,
    n_batches: int,
    rng: np.random.Generator,
    counter_names: Sequence[str] = (),
    callbacks: Iterable[TrainerCallback] | None = None,
    log_every: int = 200,
    pairs_per_epoch: int | None = None,
    health: Any | None = None,
    begin_logs: Mapping[str, Any] | None = None,
    end_logs: Mapping[str, Any] | None = None,
) -> HogwildResult:
    """Train ``task`` over ``n_batches`` batches: the one training driver.

    DeepDirect, LINE and node2vec all train here, with the settings of
    ``task.config``: ``batch_size``, ``learning_rate`` (decayed
    linearly to 1 %), ``workers`` and ``min_pairs_per_worker``.  A
    ``workers > 1`` request whose per-worker budget is under
    ``min_pairs_per_worker`` degrades to one worker with a
    ``RuntimeWarning`` (:func:`should_degrade`).  One worker trains the
    single shard in-process on private arrays under a ``<phase>.train``
    span; more run :func:`run_hogwild` under ``<phase>.hogwild``.

    Telemetry is the same for every trainer: ``on_fit_begin`` carries
    ``begin_logs`` plus the effective ``workers``; each batch (or poll)
    emits ``on_batch_end`` with ``L``, ``L_ema``, the task's loss terms,
    ``lr``, ``pairs`` and ``pairs_per_sec``; ``on_epoch_end`` fires
    every ``pairs_per_epoch`` pairs; ``on_fit_end`` carries
    ``n_pairs_trained``, ``L_ema``, ``end_logs``, the merged
    ``counter_names`` counters, ``duration_s`` and ``pairs_per_sec``
    (plus the per-worker gauges under HOGWILD).
    """
    config = task.config
    batch_size, lr0 = config.batch_size, config.learning_rate
    run = RunInfo(trainer=trainer, total_batches=n_batches,
                  batch_size=batch_size, config=dataclasses.asdict(config))
    cb = CallbackList(callbacks)
    counter_names = tuple(counter_names)
    total_pairs = n_batches * batch_size
    workers = requested = config.workers
    floor = config.min_pairs_per_worker
    degraded = should_degrade(workers, total_pairs, floor)
    if degraded:
        warnings.warn(
            f"workers={workers} degraded to sequential: {total_pairs} "
            f"pairs gives {total_pairs // workers} per worker, below "
            f"min_pairs_per_worker={floor} (HOGWILD "
            "coordination overhead would outweigh the parallelism; set "
            "min_pairs_per_worker=0 to force workers)",
            RuntimeWarning,
            stacklevel=3,
        )
        workers = 1

    fit_start = time.perf_counter()
    if cb:
        logs = {**(begin_logs or {}), "workers": workers}
        if degraded:
            logs["hogwild_degraded"] = True
            logs["requested_workers"] = requested
        cb.on_fit_begin(run, logs)

    # Losses are computed on every batch whenever anything reads them
    # per batch (callbacks, health, the workers' stats block); a bare
    # sequential fit computes them on its history batches only.
    task = dataclasses.replace(
        task,
        loss_every=(1 if cb or health is not None or workers > 1
                    else log_every),
        track_grad_norm=health is not None and workers == 1,
    )
    common = dict(
        n_batches=n_batches, batch_size=batch_size, lr0=lr0,
        counter_names=counter_names, log_every=log_every,
        pairs_per_epoch=pairs_per_epoch, health=health,
    )
    if workers > 1:
        with span(f"{phase}.hogwild", workers=workers,
                  n_batches=n_batches) as sp:
            result = run_hogwild(task, arrays, workers=workers, rng=rng,
                                 callbacks=cb, run=run, **common)
            sp.set(pairs=result.pairs_trained)
    else:
        private = {name: _allocate(a) for name, a in arrays.items()}
        with span(f"{phase}.train", n_batches=n_batches,
                  batch_size=batch_size) as sp:
            result = _train_in_process(task, private, rng, cb=cb, run=run,
                                       fit_start=fit_start, **common)
            sp.set(pairs=result.pairs_trained, L_ema=result.loss_ema)

    if cb:
        duration = time.perf_counter() - fit_start
        logs = {
            "n_pairs_trained": result.pairs_trained,
            "L_ema": result.loss_ema,
            **(end_logs or {}),
            **result.counters,
            "duration_s": duration,
            "pairs_per_sec": result.pairs_trained / max(duration, 1e-9),
        }
        if workers > 1:
            logs.update(record_worker_stats(MetricsRegistry(),
                                            result.worker_stats))
            logs["workers"] = workers
        cb.on_fit_end(run, logs)
    return result
