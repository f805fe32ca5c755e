"""Multi-layer perceptron built from Linear + ReLU."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.linear import Linear, ReLU
from repro.nn.param import Parameter

__all__ = ["MLP"]

_FINAL_ACTIVATIONS = ("relu", "none")


class MLP:
    """A stack ``Linear -> ReLU -> ... -> Linear [-> final activation]``.

    ``sizes`` gives the full layer widths, e.g. ``[13, 64, 32]`` builds two
    linear layers; hidden layers get ReLU, the output layer gets
    ``final_activation``.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        final_activation: str = "relu",
        name: str = "mlp",
    ):
        if len(sizes) < 2:
            raise ValueError(f"need at least input and output sizes, got {list(sizes)}")
        if final_activation not in _FINAL_ACTIVATIONS:
            raise ValueError(
                f"final_activation must be one of {_FINAL_ACTIVATIONS}, got {final_activation!r}"
            )
        self.sizes = tuple(int(s) for s in sizes)
        self.layers: list[object] = []
        for i in range(len(self.sizes) - 1):
            self.layers.append(Linear(self.sizes[i], self.sizes[i + 1], rng, name=f"{name}.{i}"))
            is_last = i == len(self.sizes) - 2
            if not is_last:
                self.layers.append(ReLU())
            elif final_activation == "relu":
                self.layers.append(ReLU())

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        grad = dout
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params
