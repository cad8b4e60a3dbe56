"""scipy stays off the serving path, and the fit still imports it.

scipy costs a process ~50 MB of RSS.  Only the D-Step's L-BFGS (and the
evaluation helpers) need it, so every scipy import sits inside the
function that calls it.  Each check runs in a fresh interpreter, where
``sys.modules`` shows exactly what one code path imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.embedding import DeepDirectConfig
from repro.models import DeepDirectModel
from repro.serve import save_model_artifact

SRC = str(Path(repro.__file__).resolve().parents[1])

CONFIG = dict(dimensions=8, max_pairs=3_000, batch_size=128)


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return its last JSON line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_serving_path_never_imports_scipy(discovery_task, tmp_path):
    network = discovery_task.network
    model = DeepDirectModel(DeepDirectConfig(**CONFIG)).fit(network, seed=0)
    bundle = tmp_path / "artifact"
    save_model_artifact(model, bundle)
    pairs = [[int(network.tie_src[e]), int(network.tie_dst[e])]
             for e in range(4)]
    out = _run(f"""
        import json, sys, urllib.request
        import numpy as np
        import repro
        from repro.serve import ModelServer, ScoringEngine, load_model_artifact

        engine = ScoringEngine(load_model_artifact({str(bundle)!r}))
        with ModelServer(engine, port=0) as server:
            scores = engine.score_pairs(np.array({pairs}))
            request = urllib.request.Request(
                server.url + "/score",
                data=json.dumps({{"pairs": {pairs}}}).encode(),
                headers={{"Content-Type": "application/json"}},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                served = json.load(response)
        print(json.dumps({{
            "scipy": sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy"),
            "scores": scores.tolist(),
            "answered": len(served["scores"]),
        }}))
    """)
    assert out["scipy"] == []
    assert out["answered"] == len(pairs)
    assert out["scores"] == model.directionality_batch(pairs).tolist()


def test_fit_still_runs_the_lbfgs_dstep():
    out = _run(f"""
        import json, sys
        import repro
        from repro.datasets import hide_directions, load_dataset
        from repro.embedding import DeepDirectConfig
        from repro.models import DeepDirectModel

        before = "scipy.optimize" in sys.modules
        net = hide_directions(load_dataset("twitter", 0.002), 0.5).network
        model = DeepDirectModel(DeepDirectConfig(**{CONFIG!r})).fit(net)
        print(json.dumps({{
            "before": before,
            "after": "scipy.optimize" in sys.modules,
            "n_iter": int(model._classifier.n_iter_),
        }}))
    """)
    assert out == {"before": False, "after": True, "n_iter": out["n_iter"]}
    assert out["n_iter"] > 0
