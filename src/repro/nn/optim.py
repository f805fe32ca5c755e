"""The optimizer: SGD over :class:`~repro.nn.param.Parameter`.

DLRM reference training uses SGD.  It consumes accumulated gradients and
zeroes them after stepping.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.nn.param import Parameter
from repro.utils.validation import check_positive

__all__ = ["SGD"]


class SGD:
    """Vanilla stochastic gradient descent."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        check_positive("lr", lr)
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = float(lr)

    def step(self) -> None:
        for param in self.parameters:
            param.data -= self.lr * param.grad
            param.zero_grad()
