"""Server launcher for the serving workload (one fresh process each).

After its imports it prints ``{"load_start": t}`` (a ``perf_counter``
reading; on Linux that clock is system-wide, so the parent can subtract
it from its own readings), then ``load_model_artifact`` ->
``ScoringEngine`` -> ``ModelServer`` on an ephemeral port, prints
``{"port": ..., "load_s": ...}`` and serves until SIGTERM.  The parent
times cold start from ``load_start`` to its first ``/healthz`` 200.

    python3 perfbench/server.py --artifact DIR
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from repro.serve import ModelServer, ScoringEngine, load_model_artifact


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", required=True)
    args = parser.parse_args()

    print(json.dumps({"load_start": time.perf_counter()}), flush=True)
    start = time.perf_counter()
    model = load_model_artifact(args.artifact)
    load_s = time.perf_counter() - start
    server = ModelServer(ScoringEngine(model), port=0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(json.dumps({"port": server.port, "load_s": load_s}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.shutdown()


if __name__ == "__main__":
    main()
