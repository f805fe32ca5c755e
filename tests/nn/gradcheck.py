"""Finite-difference gradient checking helpers.

The model stores float32, whose rounding is far above the truncation error
of a central difference.  Every layer follows the dtype of its parameters
or inputs, so a check first casts the module under test to float64 with
:func:`as_float64`: the same layer code then runs as a float64 oracle, and
the checks keep their float64 tolerances.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = ["as_float64", "numerical_gradient", "relative_error"]


def as_float64(module):
    """Cast every parameter of ``module`` (its ``data`` and ``grad``) to
    float64 in place; returns ``module``."""
    for param in module.parameters():
        param.data = param.data.astype(np.float64)
        param.grad = param.grad.astype(np.float64)
    return module


def numerical_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise relative error with absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float((np.abs(a - b) / denom).max())
