"""DLRM dot-product feature interaction.

Takes the bottom-MLP output and the embedding lookups as ``F = T + 1``
``(batch, dim)`` feature arrays, computes all pairwise dot products of
each sample's ``Z in R^{F x dim}`` (``P = Z Z^T``), and concatenates the
strictly-lower-triangular entries of ``P`` with the dense vector — the
second-order interaction of the DLRM paper (Naumov et al.).

Both products are batched ``np.matmul`` calls, which NumPy hands to BLAS
one ``(F, dim)`` GEMM per sample (``einsum`` runs the same contraction in
its own scalar loop, ~4x slower at DLRM shapes).  The triangle is read
with a flat index into the ``(rows, F*F)`` view of ``P``; the backward
needs ``dP + dP^T``, which is not built by scatter + transpose-add but
gathered in one ``take`` through an ``F*F`` index map that sends ``(i, j)``
and ``(j, i)`` to the same pair column of ``dout`` (the diagonal, which the
forward never reads, is zeroed afterwards).

Every buffer — the block stack ``z``, the output and the gradient — is
allocated in the features' common dtype (``np.result_type``), so the
model's float32 features run float32 GEMMs and a float64 caller (a
finite-difference check) gets the same code in float64.

**Row blocks.**  The whole stack ``(batch, F, dim)`` is never built: at
the paper's shape (batch 4096, 27 features, dim 64) it is 28 MB in
float32, and its products and ``dP + dP^T`` are 12 MB more each.  Both
passes walk :data:`BLOCK_ROWS` rows at a time instead, copying that
block's slots into one reused ``z`` and running the same per-sample GEMMs
on it; the forward writes into one preallocated ``(batch, output_dim)``
output and the backward straight into one preallocated ``(batch, F,
dim)`` gradient.  Each sample's GEMM sees the operands, layout and BLAS
call it saw in the full stack, so every output is bit-identical to the
unblocked computation.

:data:`BLOCK_ROWS` = 256 was measured inside the step, in float32:
forward + backward of ``DLRM``'s interaction stage (top MLP included) on
one ``train_baseline`` step's inputs (batch 4096, 27 features, dim 64),
one BLAS thread on a 2-CPU host, block sizes interleaved, median of 41,
three runs: 32 to 256 rows all take 93-105 ms (the host's quartiles span
~15-20 ms), 16 rows 108 ms, 512 rows 114 ms, 1024 rows 130-134 ms and
the whole batch in one block 145-148 ms.  256 is the largest of the
equally fast sizes (the fewest Python-level blocks); its float32 ``z`` is
1.8 MB.

The forward keeps references to the feature arrays, not a copy, and the
backward re-reads each block from them, so callers must not write into
the features between ``forward`` and ``backward``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.utils.validation import check_count

__all__ = ["BLOCK_ROWS", "DotInteraction"]

#: rows per block of the forward and backward passes (see the module docstring)
BLOCK_ROWS = 256


class DotInteraction:
    """Pairwise dot interaction with manual backward."""

    def __init__(self, n_features: int, dim: int):
        self.n_features = check_count("n_features", n_features, 1)  # T+1 (dense slot + T tables)
        self.dim = check_count("dim", dim, 1)
        rows, cols = np.tril_indices(self.n_features, k=-1)
        # Pair p = (rows[p], cols[p]) sits at flat position rows*F + cols of P.
        self._tril_flat = rows * self.n_features + cols
        # (i, j) and (j, i) -> column dim + p of dout; diagonal -> column 0,
        # a placeholder backward overwrites with zero.
        sym = np.zeros((self.n_features, self.n_features), dtype=np.intp)
        sym[rows, cols] = sym[cols, rows] = self.dim + np.arange(rows.size)
        self._sym_flat = sym.ravel()
        self._cache: list[np.ndarray] | None = None

    @property
    def output_dim(self) -> int:
        """dense dim + number of pairwise terms."""
        return self.dim + self.n_features * (self.n_features - 1) // 2

    def _blocks(self, features: list[np.ndarray]) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield ``(rows, z)`` per block: the block's row slice and its
        ``(rows, F, dim)`` stack in the features' common dtype, copied slot
        by slot into one reused buffer (so assignment is never left to
        broadcast)."""
        batch = features[0].shape[0]
        buffer = np.empty(
            (min(batch, BLOCK_ROWS), self.n_features, self.dim), dtype=np.result_type(*features)
        )
        for start in range(0, batch, BLOCK_ROWS):
            rows = slice(start, min(start + BLOCK_ROWS, batch))
            z = buffer[: rows.stop - start]
            for slot, feature in enumerate(features):
                z[:, slot, :] = feature[rows]
            yield rows, z

    def forward(self, features: Sequence[np.ndarray]) -> np.ndarray:
        """``features``: ``n_features`` arrays of shape (batch, dim) ->
        (batch, output_dim).  Slot 0 is the dense (bottom-MLP) feature."""
        features = [np.asarray(feature) for feature in features]
        shapes = [feature.shape for feature in features]
        if (
            len(features) != self.n_features
            or len(shapes[0]) != 2
            or shapes[0][1] != self.dim
            or any(shape != shapes[0] for shape in shapes)
        ):
            raise ValueError(
                f"expected {self.n_features} arrays of one (batch, {self.dim}) shape, "
                f"got {shapes}"
            )
        out = np.empty((shapes[0][0], self.output_dim), dtype=np.result_type(*features))
        out[:, : self.dim] = features[0]
        for rows, z in self._blocks(features):
            products = np.matmul(z, z.transpose(0, 2, 1)).reshape(len(z), self.n_features**2)
            out[rows, self.dim :] = products.take(self._tril_flat, axis=1)
        self._cache = features
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the stacked features, ``(batch, n_features, dim)``
        (slot ``k`` is ``[:, k, :]``), given gradient of the output."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        features = self._cache
        batch = features[0].shape[0]
        if dout.shape != (batch, self.output_dim):
            raise ValueError(f"expected dout ({batch}, {self.output_dim}), got {dout.shape}")
        # P = Z Z^T with only lower-tri read; dZ = (dP + dP^T) Z.
        dz = np.empty((batch, self.n_features, self.dim), dtype=np.result_type(*features))
        for rows, z in self._blocks(features):
            dP_sym = dout[rows].take(self._sym_flat, axis=1)
            dP_sym[:, :: self.n_features + 1] = 0.0
            np.matmul(dP_sym.reshape(len(z), self.n_features, self.n_features), z, out=dz[rows])
        dz[:, 0, :] += dout[:, : self.dim]
        self._cache = None
        return dz
