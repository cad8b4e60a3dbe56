"""Shared plumbing for the benchmark: statistics, memory, cache, children.

Stdlib only, so the orchestrator (``run.py``) and the self-tests can
import it without the program under test.  Everything that touches the
``repro`` package lives in the child scripts (``inputs.py``,
``pipeline.py``, ``server.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

BENCH_DIR = Path(__file__).resolve().parent

#: Per-seed inputs (graphs, truth, serving artifacts) live here, inside
#: the checkout; the directory is git-ignored.
CACHE_DIRNAME = ".perfbench_cache"

#: Every child script gets this long before it is killed.
CHILD_TIMEOUT_S = 150.0

#: Pairs per scoring request, served and in-process alike.
REQUEST_PAIRS = 64

#: E-Step spans whose self time is reported per trained pair.
ESTEP_SPANS = (
    "estep.sample",
    "estep.triad_labels",
    "estep.L_topo",
    "estep.L_label",
    "estep.L_pattern",
    "estep.update",
)


class BenchError(RuntimeError):
    """A benchmark step could not produce a measurement."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float, min_tail: int = 0) -> float:
    """Nearest-rank ``q``-quantile, refusing an unsupported estimate.

    ``min_tail`` is the number of samples that must lie beyond the
    quantile's rank for the estimate to mean anything (a p99 from 200
    samples is the second-largest value, not a p99).  Raises
    :class:`ValueError` when the sample is too small.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    rank = _rank(q, n)
    if n - rank < min_tail:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"{min_tail} are required"
        )
    return sorted(values)[rank - 1]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-quantile among ``n`` samples."""
    return max(1, math.ceil(q * n - 1e-9))


def min_samples_for(q: float, min_tail: int) -> int:
    """Smallest sample count whose ``q``-quantile (``q < 1``) has
    ``min_tail`` samples beyond it."""
    n = max(1, math.ceil(min_tail / (1.0 - q) - 1e-9))
    while n - _rank(q, n) < min_tail:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Memory: kernel high-water marks, never samples
# ----------------------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"/proc/{pid}/status has no VmHWM line")


def dir_mb(path: Path) -> float:
    """Total size of the regular files under ``path``, in MiB."""
    return sum(
        f.stat().st_size for f in Path(path).rglob("*") if f.is_file()
    ) / 2**20


# ----------------------------------------------------------------------
# Per-seed input cache, validated by graph fingerprint
# ----------------------------------------------------------------------


def source_digest(root: Path) -> str:
    """Digest of the program's sources: a code change invalidates inputs."""
    digest = hashlib.sha256()
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class InputCache:
    """Directory-per-entry cache of set-up products.

    An entry is keyed by its kind, its parameters (the seed among them)
    and the program's source digest.  It is complete once ``meta.json``
    exists; ``meta["fingerprint"]`` is the tie fingerprint of the graph
    the entry was built from.  A consumer that observes a different
    fingerprint calls :meth:`invalidate` and rebuilds, so a stale or
    half-written input is never measured.
    """

    def __init__(self, root: Path, digest: str, keep: dict[str, int]):
        self.root = Path(root)
        self.digest = digest
        self.keep = keep

    def key(self, kind: str, params: dict) -> str:
        blob = json.dumps(
            {"kind": kind, "params": params, "src": self.digest},
            sort_keys=True,
        )
        return f"{kind}-{hashlib.sha256(blob.encode()).hexdigest()[:16]}"

    def path(self, key: str) -> Path:
        return self.root / key

    def meta(self, key: str) -> dict | None:
        try:
            with open(self.path(key) / "meta.json") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def get_or_build(
        self, kind: str, params: dict, build: Callable[[Path], str]
    ) -> tuple[Path, dict]:
        """Return ``(entry_dir, meta)``, building the entry when absent.

        ``build(tmp_dir)`` writes the entry's files and returns the
        graph fingerprint; the directory is renamed into place only
        after it returns, so an interrupted build leaves no entry.
        """
        key = self.key(kind, params)
        meta = self.meta(key)
        if meta is None:
            self.invalidate(key)
            tmp = self.root / f".tmp-{key}-{os.getpid()}"
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            try:
                fingerprint = build(tmp)
                meta = {"kind": kind, "params": params,
                        "fingerprint": fingerprint}
                with open(tmp / "meta.json", "w") as handle:
                    json.dump(meta, handle)
                tmp.rename(self.path(key))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            self._evict(kind, key)
        os.utime(self.path(key) / "meta.json")
        return self.path(key), meta

    def validate(self, kind: str, params: dict, observed: str) -> bool:
        """True when ``observed`` matches the entry; otherwise drop it."""
        key = self.key(kind, params)
        meta = self.meta(key)
        if meta is not None and meta.get("fingerprint") == observed:
            return True
        self.invalidate(key)
        return False

    def invalidate(self, key: str) -> None:
        shutil.rmtree(self.path(key), ignore_errors=True)

    def _evict(self, kind: str, fresh: str) -> None:
        """Keep only the ``keep[kind]`` most recently used entries."""
        entries = sorted(
            (p for p in self.root.glob(f"{kind}-*")
             if (p / "meta.json").exists() and p.name != fresh),
            key=lambda p: (p / "meta.json").stat().st_mtime,
            reverse=True,
        )
        for stale in entries[max(self.keep.get(kind, 1) - 1, 0):]:
            shutil.rmtree(stale, ignore_errors=True)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(
    root: Path, script: str, args: Sequence[str],
    timeout: float = CHILD_TIMEOUT_S,
) -> dict:
    """Run ``perfbench/<script>`` to completion; return its last JSON line.

    The child's stderr passes through; a non-zero exit or a missing
    result raises :class:`BenchError`.
    """
    cmd = [sys.executable, str(BENCH_DIR / script), *map(str, args)]
    proc = subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        stop_process(proc)
    if proc.returncode != 0:
        raise BenchError(f"{script} {args[0]} exited {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{script} {args[0]} printed no result")
    return json.loads(lines[-1])


def stop_process(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Terminate ``proc`` if it still runs, and wait until it has ended."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the one-line result the benchmark contract asks for."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


def log(message: str) -> None:
    """Progress line on stderr (stdout carries results only)."""
    print(f"[perfbench {time.strftime('%H:%M:%S')}] {message}",
          file=sys.stderr, flush=True)
