"""DLRM dot-product feature interaction.

Stacks the bottom-MLP output with the embedding lookups into
``Z in R^{batch x (T+1) x dim}``, computes all pairwise dot products
``P = Z Z^T``, and concatenates the strictly-lower-triangular entries of
``P`` with the dense vector — the second-order interaction of the DLRM
paper (Naumov et al.).

Both products are batched ``np.matmul`` calls, which NumPy hands to BLAS
one ``(F, dim)`` GEMM per sample (``einsum`` runs the same contraction in
its own scalar loop, ~4x slower at DLRM shapes).  The triangle is read
with a flat index into the ``(batch, F*F)`` view of ``P``; the backward
needs ``dP + dP^T``, which is not built by scatter + transpose-add but
gathered in one ``take`` through an ``F*F`` index map that sends ``(i, j)``
and ``(j, i)`` to the same pair column of ``dout`` (the diagonal, which the
forward never reads, is zeroed afterwards).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DotInteraction"]


class DotInteraction:
    """Pairwise dot interaction with manual backward."""

    def __init__(self, n_features: int, dim: int):
        if n_features < 1 or dim < 1:
            raise ValueError(f"n_features and dim must be >= 1, got {n_features}, {dim}")
        self.n_features = int(n_features)  # T+1 (dense slot + T tables)
        self.dim = int(dim)
        rows, cols = np.tril_indices(self.n_features, k=-1)
        # Pair p = (rows[p], cols[p]) sits at flat position rows*F + cols of P.
        self._tril_flat = rows * self.n_features + cols
        # (i, j) and (j, i) -> column dim + p of dout; diagonal -> column 0,
        # a placeholder backward overwrites with zero.
        sym = np.zeros((self.n_features, self.n_features), dtype=np.intp)
        sym[rows, cols] = sym[cols, rows] = self.dim + np.arange(rows.size)
        self._sym_flat = sym.ravel()
        self._cache: np.ndarray | None = None

    @property
    def output_dim(self) -> int:
        """dense dim + number of pairwise terms."""
        return self.dim + self.n_features * (self.n_features - 1) // 2

    def forward(self, z: np.ndarray) -> np.ndarray:
        """``z``: (batch, n_features, dim) -> (batch, output_dim)."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 3 or z.shape[1] != self.n_features or z.shape[2] != self.dim:
            raise ValueError(
                f"expected (batch, {self.n_features}, {self.dim}), got {z.shape}"
            )
        self._cache = z
        products = np.matmul(z, z.transpose(0, 2, 1)).reshape(z.shape[0], self.n_features**2)
        return np.concatenate([z[:, 0, :], products.take(self._tril_flat, axis=1)], axis=1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. ``z`` given gradient of the concatenated output."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        z = self._cache
        batch = z.shape[0]
        if dout.shape != (batch, self.output_dim):
            raise ValueError(f"expected dout ({batch}, {self.output_dim}), got {dout.shape}")
        # P = Z Z^T with only lower-tri read; dZ = (dP + dP^T) Z.
        dP_sym = dout.take(self._sym_flat, axis=1)
        dP_sym[:, :: self.n_features + 1] = 0.0
        dz = np.matmul(dP_sym.reshape(batch, self.n_features, self.n_features), z)
        dz[:, 0, :] += dout[:, : self.dim]
        self._cache = None
        return dz
