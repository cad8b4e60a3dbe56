"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q

The benchmark's modules are scripts run from ``perfbench/``; make them
importable here, along with the program under ``src/``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
