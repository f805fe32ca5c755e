"""Binary cross-entropy with logits (numerically stable).

Each function computes in the logits' dtype (an integer input is promoted
to float64), so float32 logits give a float32 gradient.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bce_with_logits", "bce_grad", "sigmoid"]


def _floating(x: np.ndarray) -> np.ndarray:
    """``x`` as an array of its own floating dtype (integers promote)."""
    x = np.asarray(x)
    return x.astype(np.result_type(x.dtype, np.float32), copy=False)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = _floating(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def _check(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logits = _floating(logits).ravel()
    labels = np.asarray(labels, dtype=logits.dtype).ravel()
    if logits.shape != labels.shape:
        raise ValueError(f"logits/labels shape mismatch: {logits.shape} vs {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() > 1):
        raise ValueError("labels must be in [0, 1]")
    return logits, labels


def bce_with_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, computed stably from logits."""
    logits, labels = _check(logits, labels)
    if logits.size == 0:
        return 0.0
    # max(z,0) - z*y + log(1 + exp(-|z|))
    loss = np.maximum(logits, 0.0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
    return float(loss.mean())


def bce_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d logits = (sigmoid(z) - y) / batch."""
    logits, labels = _check(logits, labels)
    if logits.size == 0:
        return np.zeros(0, dtype=logits.dtype)
    return (sigmoid(logits) - labels) / logits.size
