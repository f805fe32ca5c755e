"""Shared utilities: RNG management, formatting, validation helpers."""

from repro.utils.rng import RngPool, spawn_rng
from repro.utils.tables import format_table
from repro.utils.units import GB, KB, MB
from repro.utils.validation import (
    check_in,
    check_positive,
    check_shape,
)

__all__ = [
    "RngPool",
    "spawn_rng",
    "format_table",
    "KB",
    "MB",
    "GB",
    "check_positive",
    "check_in",
    "check_shape",
]
