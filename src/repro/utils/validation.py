"""Small argument-validation helpers used across the library.

These raise early with actionable messages instead of letting NumPy produce
confusing downstream failures, each naming the argument.  A count goes
through :func:`check_count`, a finite value >= 0 through
:func:`check_finite_nonnegative` and a value > 0 where infinity is legal
through :func:`check_positive`; a range with an upper bound stays a chained
comparison at its site, negated (``if not lo <= x <= hi``) so NaN fails.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

__all__ = ["check_positive", "check_finite_nonnegative", "check_count", "check_in", "check_shape"]


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is > 0 (``inf`` passes; NaN,
    which ``x <= 0`` lets through, fails)."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_finite_nonnegative(name: str, value: object) -> None:
    """Raise ``ValueError`` unless ``value`` — a number or an array of
    them — is finite and >= 0 throughout (the chained comparison is False
    for NaN, which ``x < 0`` alone lets through)."""
    values = np.asarray(value, dtype=np.float64)
    valid = (values >= 0.0) & (values < np.inf)
    if not valid.all():
        bad = float(values.flat[int(np.argmin(valid))])
        raise ValueError(f"{name} must be finite and >= 0, got {bad!r}")


def check_count(name: str, value: object, minimum: int) -> int:
    """``value`` as an ``int``; raise ``ValueError`` unless it is a whole
    number >= ``minimum`` (``int()`` alone would truncate 2.7 to 2)."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf, "x"
        count = None
    if count is None or count != value or count < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return count


def check_in(name: str, value: object, allowed: Collection[object]) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {sorted(map(str, allowed))}, got {value!r}")


def check_shape(name: str, array: np.ndarray, ndim: int) -> None:
    """Raise ``ValueError`` unless ``array`` has exactly ``ndim`` dimensions."""
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {array.shape}")
