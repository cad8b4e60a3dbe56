"""Small shared helpers (determinism, validation, row blocks)."""

from .blocks import row_blocks
from .rng import ensure_rng, spawn
from .validation import (
    check_finite_array,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "check_finite_array",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "ensure_rng",
    "row_blocks",
    "spawn",
]
