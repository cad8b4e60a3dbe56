"""Run manifests: one JSON file that pins down what a run *was*.

A manifest captures everything needed to interpret (and re-run) a
training run months later: the command and configuration, the seed,
a content fingerprint of the dataset, package versions and platform,
the per-phase wall-clock breakdown from the tracer, and the final
metrics.  ``repro discover --manifest manifest.json`` writes one per
run; ``repro report`` renders it and ``repro report --diff A B``
compares two.

Schema (``repro_manifest/v1``) — all keys always present::

    {"schema", "created",            # ISO timestamp (wall clock)
     "command", "argv",              # what was run
     "seed", "config",               # how it was configured
     "dataset",                      # {"fingerprint", "n_nodes", ...}
     "platform", "packages",         # where it ran
     "phases",                       # {name: {"total_s", "self_s", "count"}}
     "metrics",                      # final numbers (accuracy, memory, ...)
     "health"}                       # HealthMonitor.report() or None
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time
from typing import Any, Mapping

import numpy as np

#: Schema tag written into every manifest.
MANIFEST_SCHEMA = "repro_manifest/v1"


def network_fingerprint(network) -> dict[str, Any]:
    """Content fingerprint of a :class:`~repro.graph.MixedSocialNetwork`.

    The digest is ``network.store.fingerprint()``: the
    :func:`repro.graph.store.tie_fingerprint` of the node count and the
    oriented tie columns, canonicalised to int64 — so it is identical
    whether the network lives in memory or behind a memory-mapped store
    (whose manifest records it), and each store hashes at most once.
    Returns the digest plus the shape facts a reader wants at a glance.
    """
    return {
        "fingerprint": network.store.fingerprint(),
        "n_nodes": int(network.n_nodes),
        "n_ties": int(network.n_ties),
        "n_undirected": int(network.n_undirected),
    }


def build_manifest(
    *,
    command: str,
    seed: int,
    config: Mapping[str, Any] | None = None,
    dataset: Mapping[str, Any] | None = None,
    phases: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    argv: list[str] | None = None,
    health: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a manifest dict (see the module docstring for the schema).

    ``health`` is a :meth:`repro.obs.health.HealthMonitor.report` block;
    the key is always present (``None`` when no monitor was attached) so
    readers can distinguish "unmonitored" from "monitored and clean".
    """
    return {
        "schema": MANIFEST_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "command": command,
        "argv": list(argv) if argv is not None else list(sys.argv[1:]),
        "seed": int(seed),
        "config": dict(config or {}),
        "dataset": dict(dataset or {}),
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "packages": {"numpy": np.__version__},
        "phases": dict(phases or {}),
        "metrics": dict(metrics or {}),
        "health": dict(health) if health is not None else None,
    }


def write_manifest(
    manifest: Mapping[str, Any], path: str | pathlib.Path
) -> None:
    """Write ``manifest`` as indented JSON (stable key order)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


def read_manifest(path: str | pathlib.Path) -> dict[str, Any]:
    """Read a manifest back; raises ``ValueError`` on a wrong schema."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or data.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path} is not a {MANIFEST_SCHEMA} manifest "
            f"(schema={data.get('schema') if isinstance(data, dict) else None!r})"
        )
    return data
