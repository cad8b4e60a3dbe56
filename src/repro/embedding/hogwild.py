"""Shared-memory HOGWILD training backend (lock-free parallel SGD).

Every trainer in :mod:`repro.embedding` vectorises the paper's per-sample
SGD into minibatches whose reads are stale by at most one batch — the
standard approximation of practical skip-gram implementations.  This
module extends that approximation across processes, the HOGWILD recipe
(Niu et al., 2011) used by the word2vec lineage the E-Step builds on:

* the model matrices live in one ``multiprocessing.shared_memory``
  segment; workers update them concurrently without locks,
* each worker owns a **contiguous slice of the batch schedule**
  (:func:`contiguous_shards` splits ``[0, n_batches)`` into ``W``
  ranges): the learning-rate decay still uses the *global* batch index
  and the total pair budget is exactly that of the sequential run,
  while tasks that pre-plan their samples can hand each worker just its
  own tie-id range of the plan (the optional ``task.shard(start, stop)``
  hook) — a zero-copy view of one contiguous store slice instead of the
  whole schedule,
* each worker draws from its own child generator (``rng.spawn``), so a
  run is seeded end-to-end; bit-level reproducibility across runs is
  intentionally traded for throughput (scatter-adds interleave freely).

The parent process never touches the hot loop: it polls a small shared
stats block and forwards merged progress (plus per-worker
``pairs_per_sec`` gauges) through the :mod:`repro.obs` callback layer.

Workers run the exact same fused batch kernels as the sequential path
(:mod:`repro.embedding.kernels`): the kernels mutate whatever arrays
they are handed via ``np.add.at`` scatter updates, so pointing them at
the shared-memory views *is* the parallel implementation.  Each worker
builds its own preallocated kernel workspace in ``task.setup``, keeping
the hot loop allocation-free per process.

``workers=1`` never enters this module — the trainers keep their
sequential, bit-identical seeded path for that case.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Callable, Mapping, Protocol, Sequence

import numpy as np

import warnings

from ..obs import CallbackList, RunInfo
from ..obs.metrics import hogwild_aggregates
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
    """

    def setup(
        self, arrays: dict[str, np.ndarray], rng: np.random.Generator
    ) -> Any:
        """Build per-worker state (runs once, inside the worker)."""

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


@dataclass(frozen=True)
class SegmentArray:
    """A model array that lives only in the shared segment.

    An ndarray handed to :func:`run_hogwild` is copied into the segment,
    so the caller holds the model twice for the whole run.  A
    ``SegmentArray`` is allocated in the segment instead: it starts as
    the segment's zero fill, and ``init(view)``, when given, fills it in
    place in the parent before the workers start.
    """

    shape: tuple[int, ...]
    dtype: np.dtype
    init: Callable[[np.ndarray], Any] | None = None


def contiguous_shards(n_batches: int, workers: int) -> list[tuple[int, int]]:
    """Split ``[0, n_batches)`` into ``workers`` contiguous ranges.

    The first ``n_batches % workers`` shards get one extra batch, so
    shard sizes differ by at most one — the same balance the old
    strided schedule had, but with each worker's batches (and therefore
    its slice of a pre-drawn :class:`~repro.embedding.samplers.
    SamplePlan`) forming one contiguous tie-id range.
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
    """Merged outcome of one parallel training run."""

    arrays: dict[str, np.ndarray]
    loss_history: list[tuple[int, float]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    worker_stats: list[dict[str, float]] = field(default_factory=list)
    duration_s: float = 0.0
    pairs_trained: int = 0


def should_degrade(
    workers: int, total_pairs: int, min_pairs_per_worker: int
) -> bool:
    """True when a ``workers > 1`` request should fall back to sequential.

    Process startup, shared-memory setup and stats polling are fixed
    costs per worker; when each worker's slice of the pair budget is
    too small to amortise them, HOGWILD is *slower* than the sequential
    path (``speedup_vs_1 < 1``).  Trainers call this before forking and
    degrade loudly (``RuntimeWarning`` + a ``hogwild.degraded`` metric)
    instead of shipping the regression silently.  A floor of ``0``
    disables the gate.
    """
    if workers < 2 or min_pairs_per_worker <= 0:
        return False
    return total_pairs // workers < min_pairs_per_worker


def _build_layout(
    specs: Mapping[str, tuple[tuple[int, ...], np.dtype]],
) -> tuple[tuple[tuple[str, tuple[int, ...], str, int], ...], int]:
    """(name, shape, dtype-str, byte offset) entries plus total size.

    Each array keeps its own dtype (float32 training halves the shared
    segment); block starts stay 8-byte aligned so every view is aligned
    for its dtype regardless of the mix.
    """
    layout = []
    offset = 0
    for name, (shape, dtype) in specs.items():
        dt = np.dtype(dtype)
        layout.append((name, tuple(int(d) for d in shape), dt.str, offset))
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        offset += -(-nbytes // 8) * 8
    return tuple(layout), max(offset, 8)


def _open_views(
    shm: shared_memory.SharedMemory,
    layout: tuple[tuple[str, tuple[int, ...], str, int], ...],
) -> dict[str, np.ndarray]:
    views = {}
    for name, shape, dtype_str, offset in layout:
        count = int(np.prod(shape, dtype=np.int64))
        flat = np.frombuffer(shm.buf, dtype=np.dtype(dtype_str), count=count,
                             offset=offset)
        views[name] = flat.reshape(shape)
    return views


def _attach(name: str, untrack: bool) -> shared_memory.SharedMemory:
    """Attach to an existing segment, owned (and unlinked) by the parent.

    Attaching registers the segment with the resource tracker again
    (python/cpython#82300).  Under ``fork`` the tracker process is
    shared with the parent, so the duplicate registration is a set
    no-op and must be left alone; under ``spawn`` the worker gets its
    *own* tracker, which would unlink the live segment when the worker
    exits — there we untrack (``track=False`` on 3.13+, manual
    ``unregister`` before that).
    """
    if not untrack:
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    shm = shared_memory.SharedMemory(name=name)
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # pragma: no cover - best-effort cleanup shim
        pass
    return shm


def _worker_main(
    worker_id: int,
    shm_name: str,
    layout: tuple[tuple[str, tuple[int, ...], str, int], ...],
    task: HogwildTask,
    rng: np.random.Generator,
    batch_start: int,
    batch_stop: int,
    n_batches: int,
    batch_size: int,
    lr0: float,
    lr_floor: float,
    n_counters: int,
    untrack_shm: bool,
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
    """
    tracer = Tracer() if trace_path is not None else None
    activate(tracer)
    shm = _attach(shm_name, untrack_shm)
    try:
        with span("hogwild.worker", worker_id=worker_id) as worker_sp:
            views = _open_views(shm, layout)
            stats = views.pop(_STATS)
            row = stats[worker_id]
            row[_HEARTBEAT] = time.monotonic()
            with span("hogwild.worker_setup", worker_id=worker_id):
                state = task.setup(views, rng)
            start = time.perf_counter()
            with span("hogwild.worker_train", worker_id=worker_id) as train_sp:
                # Contiguous shard of the global schedule; the lr decay
                # keeps using the global batch index, so the budget and
                # decay curve match the sequential run exactly.
                for batch_idx in range(batch_start, batch_stop):
                    lr = lr0 * max(1.0 - batch_idx / n_batches, lr_floor)
                    loss = float(task.step(state, views, batch_idx, lr, rng))
                    row[_LAST_LOSS] = loss
                    row[_LOSS_SUM] += loss
                    row[_PAIRS] += batch_size
                    row[_ELAPSED] = time.perf_counter() - start
                    row[_BATCHES] += 1
                    row[_HEARTBEAT] = time.monotonic()
                train_sp.set(batches=int(row[_BATCHES]),
                             pairs=int(row[_PAIRS]))
            for slot, value in enumerate(task.counters(state)[:n_counters]):
                row[_N_FIXED + slot] = float(value)
            row[_ELAPSED] = time.perf_counter() - start
            worker_sp.set(batches=int(row[_BATCHES]))
        if tracer is not None:
            tracer.write_jsonl(trace_path)
    finally:
        # Views into shm.buf must be gone before close(); the process is
        # exiting anyway, so a lingering export is harmless.
        try:
            del views, stats, row, state
            shm.close()
        except (BufferError, UnboundLocalError):  # pragma: no cover
            pass


def _copy_out(
    shm: shared_memory.SharedMemory,
    layout: tuple[tuple[str, tuple[int, ...], str, int], ...],
    views: dict[str, np.ndarray],
    names: Sequence[str],
) -> dict[str, np.ndarray]:
    """Private copies of the ``names`` arrays of a finished run.

    Where the OS supports it (``MADV_REMOVE``, Linux), each array's
    whole pages are dropped from the segment as soon as it is copied,
    so the parent holds at most one array twice, not the whole model.
    """
    advice = getattr(mmap, "MADV_REMOVE", None)
    page = mmap.PAGESIZE
    out = {}
    for name, _shape, _dtype, offset in layout:
        if name not in names:
            continue
        out[name] = views[name].copy()
        start = -(-offset // page) * page
        stop = (offset + views[name].nbytes) // page * page
        if advice is not None and stop > start:
            try:
                shm.buf.obj.madvise(advice, start, stop - start)
            except OSError:  # pragma: no cover - e.g. not tmpfs-backed
                pass
    return out


def _context() -> mp.context.BaseContext:
    """Prefer fork (cheap, COW-shares the task payload) over spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def run_hogwild(
    task: HogwildTask,
    arrays: Mapping[str, np.ndarray],
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

    ``arrays`` are copied into one shared-memory segment (a
    :class:`SegmentArray` is allocated there instead), mutated in
    place by every worker, and returned (as ordinary process-private
    copies) in :attr:`HogwildResult.arrays`.  Progress callbacks fire
    from the parent at a polling cadence: ``on_batch_end`` carries the
    merged pair counts, the loss averaged over the workers' latest
    batches, per-worker ``worker<i>_pairs_per_sec`` gauges, and the
    fleet gauges (``hogwild.straggler_lag_pairs``,
    ``hogwild.parallel_efficiency``, ``hogwild.stalled_workers``).

    ``health`` is a :class:`repro.obs.health.HealthMonitor`; the parent
    feeds it each poll's per-worker losses plus the live shared-memory
    model views (workers never see the monitor), so under
    ``policy="abort"`` a :class:`~repro.obs.health.TrainingDivergedError`
    raised here unwinds through the ``finally`` that terminates workers
    and unlinks the segment.  Under ``policy="rollback"`` the monitor
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
    # Arrays keep their incoming dtype (float32 models stay float32 in
    # the shared segment); the stats block is always float64.
    sources = {
        name: a if isinstance(a, SegmentArray) else np.ascontiguousarray(a)
        for name, a in arrays.items()
    }
    if _STATS in sources:
        raise ValueError(f"array name {_STATS!r} is reserved")
    specs: dict[str, tuple[tuple[int, ...], np.dtype]] = {
        name: (a.shape, a.dtype) for name, a in sources.items()
    }
    specs[_STATS] = (
        (workers, _N_FIXED + len(counter_names)), np.dtype(np.float64)
    )
    layout, total_bytes = _build_layout(specs)

    cb = callbacks if isinstance(callbacks, CallbackList) else CallbackList(
        callbacks
    )
    ctx = _context()
    shm = shared_memory.SharedMemory(create=True, size=total_bytes)
    procs: list[mp.process.BaseProcess] = []
    loss_history: list[tuple[int, float]] = []
    views: dict[str, np.ndarray] | None = None
    stats = snap = None
    trace_dir: str | None = None
    try:
        views = _open_views(shm, layout)
        # A new segment is zero-filled, so a SegmentArray without an
        # init is never written (nor paged in) by the parent.
        for name, source in sources.items():
            if not isinstance(source, SegmentArray):
                views[name][...] = source
            elif source.init is not None:
                source.init(views[name])
        stats = views[_STATS]
        stats[...] = 0.0

        child_rngs = rng.spawn(workers)
        untrack_shm = ctx.get_start_method() != "fork"
        shards = contiguous_shards(n_batches, workers)
        # Tasks that pre-plan their samples expose shard(start, stop):
        # the parent then ships each worker only its contiguous slice of
        # the plan (zero-copy views — one tie-id range of the store)
        # instead of the full schedule.
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
                    worker_id, shm.name, layout, worker_tasks[worker_id],
                    child_rngs[worker_id],
                    shards[worker_id][0], shards[worker_id][1], n_batches,
                    batch_size, lr0, lr_floor,
                    len(counter_names), untrack_shm, trace_paths[worker_id],
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
        model_views = {name: views[name] for name in sources}

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
            if merged_batches >= next_log:
                loss_history.append((pairs_done, mean_loss))
                next_log = merged_batches - merged_batches % log_every
                next_log += log_every
            per_worker = worker_telemetry(snap)
            if cb and run is not None:
                elapsed = time.perf_counter() - start
                logs: dict[str, Any] = {
                    "L": mean_loss,
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
                            {"pairs": pairs_done, "L": mean_loss},
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

        duration = time.perf_counter() - start
        snap = stats.copy()
        emit_progress(snap)
        if not loss_history:
            loss_history.append((int(snap[:, _PAIRS].sum()), 0.0))

        worker_stats = []
        for i in range(workers):
            per_worker: dict[str, float] = {
                "batches": int(snap[i, _BATCHES]),
                "pairs": int(snap[i, _PAIRS]),
                "elapsed_s": float(snap[i, _ELAPSED]),
                "pairs_per_sec": float(
                    snap[i, _PAIRS] / max(snap[i, _ELAPSED], 1e-9)
                ),
                # All workers have joined: ages are settled; ``stalled``
                # records whether the watchdog ever flagged the worker.
                "heartbeat_age_s": 0.0,
                "stalled": bool(stalled_flagged[i]),
            }
            for j, name in enumerate(counter_names):
                per_worker[name] = int(snap[i, _N_FIXED + j])
            worker_stats.append(per_worker)
        merged_counters = {
            name: sum(int(w[name]) for w in worker_stats)
            for name in counter_names
        }
        result = HogwildResult(
            arrays=_copy_out(shm, layout, views, sources),
            loss_history=loss_history,
            counters=merged_counters,
            worker_stats=worker_stats,
            duration_s=duration,
            pairs_trained=int(snap[:, _PAIRS].sum()),
        )
        return result
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
        views = stats = snap = model_views = None  # release buffer exports
        try:
            shm.close()
        except BufferError:
            # A propagating exception (TrainingDivergedError under
            # policy="abort") pins frames whose locals still hold views
            # into the segment; close() must not mask that exception.
            # unlink() below still works and the OS reclaims the mapping
            # when the traceback dies.
            pass
        shm.unlink()
