"""Small argument-validation helpers used across the library.

These raise early with actionable messages instead of letting NumPy produce
confusing downstream failures.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

__all__ = ["check_positive", "check_in", "check_shape"]


def check_positive(name: str, value: float, *, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is > 0 (or >= 0 if not strict)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in(name: str, value: object, allowed: Collection[object]) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {sorted(map(str, allowed))}, got {value!r}")


def check_shape(name: str, array: np.ndarray, ndim: int) -> None:
    """Raise ``ValueError`` unless ``array`` has exactly ``ndim`` dimensions."""
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {array.shape}")
