"""Embedding table with sparse gradient accumulation.

Lookups return float32 rows — the wire format of DLRM all-to-all traffic
and the input to the compressors.  Gradients are scattered back as a
sorted segment reduce — stable argsort of the ids, ``np.add.reduceat`` over
each run of equal ids, one fancy ``+=`` on the now-unique rows — so
duplicate ids within a batch accumulate correctly, in batch order (the
sparse-gradient semantics of a real embedding bag).
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import clustered_embedding, embedding_init
from repro.nn.param import Parameter

__all__ = ["EmbeddingTable"]


class EmbeddingTable:
    """A ``(cardinality, dim)`` table supporting lookup and sparse update.

    ``distribution``/``n_clusters``/``jitter`` select the initializer (see
    :mod:`repro.nn.init`): these plant the per-table data regimes the
    paper's compressor analysis depends on.
    """

    def __init__(
        self,
        cardinality: int,
        dim: int,
        rng: np.random.Generator,
        scale: float = 0.1,
        name: str = "emb",
        distribution: str = "normal",
        n_clusters: int = 0,
        jitter: float = 0.0,
    ):
        if cardinality < 1 or dim < 1:
            raise ValueError(f"cardinality and dim must be >= 1, got {cardinality}, {dim}")
        self.cardinality = int(cardinality)
        self.dim = int(dim)
        if n_clusters > 0:
            data = clustered_embedding(
                rng, cardinality, dim, scale, min(n_clusters, cardinality), jitter, distribution
            )
        else:
            data = embedding_init(rng, cardinality, dim, scale, distribution)
        self.weight = Parameter(data, name=f"{name}.weight")

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            raise TypeError(f"indices must have an integer dtype, got {indices.dtype}")
        if indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.cardinality):
            raise IndexError(
                f"indices out of range [0, {self.cardinality}): "
                f"[{indices.min()}, {indices.max()}]"
            )
        return indices.astype(np.int64)

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Gather rows for ``indices``; float32, the all-to-all wire format."""
        indices = self._check_indices(indices)
        return self.weight.data[indices].astype(np.float32)

    def accumulate_grad(self, indices: np.ndarray, grad_rows: np.ndarray) -> None:
        """Scatter-add ``grad_rows`` into the table gradient.

        Duplicate indices accumulate — the defining property of sparse
        embedding gradients.
        """
        indices = self._check_indices(indices)
        grad_rows = np.asarray(grad_rows, dtype=np.float64)
        if grad_rows.shape != (indices.size, self.dim):
            raise ValueError(
                f"grad_rows must be ({indices.size}, {self.dim}), got {grad_rows.shape}"
            )
        if indices.size == 0:
            return
        order = np.argsort(indices, kind="stable")
        sorted_ids = indices[order]
        starts = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
        self.weight.grad[sorted_ids[starts]] += np.add.reduceat(grad_rows[order], starts, axis=0)

    def parameters(self) -> list[Parameter]:
        return [self.weight]
