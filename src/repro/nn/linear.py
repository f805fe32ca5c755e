"""Fully connected layer and activations with manual backward passes."""

from __future__ import annotations

import numpy as np

from repro.nn.init import xavier_uniform
from repro.nn.param import Parameter

__all__ = ["Linear", "ReLU"]


class Linear:
    """``y = x @ W + b`` with gradient accumulation."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, name: str = ""):
        self.weight = Parameter(xavier_uniform(rng, in_features, out_features), name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_features), name=f"{name}.bias")
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.weight.data.dtype)
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise ValueError(
                f"Linear expected (batch, {self.weight.shape[0]}), got {x.shape}"
            )
        self._cache = x
        return x @ self.weight.data + self.bias.data

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache
        self.weight.grad += x.T @ dout
        self.bias.grad += dout.sum(axis=0)
        self._cache = None
        return dout @ self.weight.data.T

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class ReLU:
    """Elementwise max(x, 0)."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        dx = np.where(self._mask, dout, 0.0)
        self._mask = None
        return dx

    def parameters(self) -> list[Parameter]:
        return []

