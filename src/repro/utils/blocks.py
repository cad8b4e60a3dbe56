"""Fixed-size row blocks that bound the scratch of whole-array passes.

A pass over an ``(n, ...)`` array that needs float64 scratch (a random
draw, an upcast, the temporaries of an alias pick) works one block of
rows at a time, so its transient footprint is a constant instead of a
multiple of the array.  A row's value never depends on the block it
lands in; only sums over rows (the D-Step's loss and gradient) are
reordered by the block size.
"""

from __future__ import annotations

from collections.abc import Iterator

#: Rows per block.  A ``(block, 32)`` float64 scratch is 1 MiB, small
#: enough to stay in a core's L2 cache between the passes over it (the
#: D-Step reads each upcast block twice per evaluation).
_ROW_BLOCK = 4_096


def row_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_ROW_BLOCK`` rows over ``range(n)``."""
    step = _ROW_BLOCK
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))
