"""Parameter container for the NumPy NN substrate.

The model's one dtype is chosen here: :class:`Parameter` stores float32,
the dtype of the paper's PyTorch DLRM and of its all-to-all wire.  Every
layer computes in the dtype of its parameters or its inputs and adds no
cast of its own, so embedding lookups go on the wire as they are, and a
test can cast a module's parameters to float64 to run the same layer
code as a finite-difference oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PRICED_ITEMSIZE", "Parameter"]

#: bytes per parameter element at which the simulated clock prices copies
#: of model state (the optimizer update, the homomorphic all-reduce's codec
#: pass, a checkpoint snapshot or reload).  It is float64's 8, not the
#: stored float32's 4, so moving the model to float32 left simulated time
#: unchanged; re-pricing those copies is a change of this one value.
PRICED_ITEMSIZE = 8


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Layers accumulate into ``grad`` during ``backward``; optimizers consume
    and reset it.  ``data`` is float32 and ``grad`` has its dtype.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(name={self.name!r}, shape={self.shape})"
