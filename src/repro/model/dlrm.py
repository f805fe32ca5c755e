"""The DLRM model (Naumov et al.) on the NumPy NN substrate.

The forward pass is deliberately split into the stages hybrid-parallel
training distributes (Section II-A of the paper):

1. :meth:`lookup` — embedding-table gathers (model parallel: each rank owns
   a subset of tables);
2. :meth:`forward_dense` — bottom MLP on dense features (data parallel);
3. :meth:`forward_interaction` — dot interaction + top MLP on a local
   sub-batch whose embedding lookups arrived via all-to-all;
4. the symmetric backward methods, producing the lookup gradients that flow
   back through the second all-to-all.

The single-process :meth:`forward` / :meth:`backward` compose these stages,
so distributed execution and the reference trainer share all arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.model.config import DLRMConfig
from repro.nn.embedding import EmbeddingTable
from repro.nn.interaction import DotInteraction
from repro.nn.mlp import MLP
from repro.nn.param import Parameter
from repro.utils.rng import spawn_rng

__all__ = ["DLRM"]


class DLRM:
    """Deep Learning Recommendation Model with stage-level access."""

    def __init__(self, config: DLRMConfig):
        self.config = config
        bottom_sizes = [config.n_dense, *config.bottom_hidden, config.embedding_dim]
        self.bottom_mlp = MLP(
            bottom_sizes, spawn_rng(config.seed, "bottom"), final_activation="relu", name="bottom"
        )
        self.interaction = DotInteraction(config.interaction_features, config.embedding_dim)
        top_sizes = [self.interaction.output_dim, *config.top_hidden, 1]
        self.top_mlp = MLP(
            top_sizes, spawn_rng(config.seed, "top"), final_activation="none", name="top"
        )
        n = len(config.table_cardinalities)
        scales = config.table_value_scales or tuple(0.1 for _ in range(n))
        distributions = config.table_value_distributions or tuple("normal" for _ in range(n))
        clusters = config.table_cluster_counts or tuple(0 for _ in range(n))
        self.tables = [
            EmbeddingTable(
                cardinality,
                config.embedding_dim,
                spawn_rng(config.seed, "table", i),
                scale=scales[i],
                name=f"emb{i}",
                distribution=distributions[i],
                n_clusters=clusters[i],
                jitter=config.cluster_jitter,
            )
            for i, cardinality in enumerate(config.table_cardinalities)
        ]
        self._z_cache: np.ndarray | None = None

    # ---------------------------------------------------------------- stages

    def lookup(self, table_index: int, indices: np.ndarray) -> np.ndarray:
        """Stage 1: gather one table's rows (float32 wire format)."""
        return self.tables[table_index].lookup(indices)

    def lookup_all(self, sparse: np.ndarray) -> list[np.ndarray]:
        """Gather every table for a ``(batch, n_tables)`` id matrix."""
        sparse = np.asarray(sparse)
        if sparse.ndim != 2 or sparse.shape[1] != self.config.n_tables:
            raise ValueError(
                f"expected (batch, {self.config.n_tables}) sparse ids, got {sparse.shape}"
            )
        return [self.lookup(j, sparse[:, j]) for j in range(self.config.n_tables)]

    def forward_dense(self, dense: np.ndarray) -> np.ndarray:
        """Stage 2: bottom MLP, output width = embedding_dim."""
        return self.bottom_mlp.forward(dense)

    def forward_interaction(
        self, bottom_out: np.ndarray, emb_rows: list[np.ndarray]
    ) -> np.ndarray:
        """Stage 3: interaction + top MLP -> logits ``(batch,)``.

        ``emb_rows`` holds one ``(batch, dim)`` array per table — locally
        looked up or reconstructed from the all-to-all.
        """
        if len(emb_rows) != self.config.n_tables:
            raise ValueError(
                f"expected {self.config.n_tables} embedding inputs, got {len(emb_rows)}"
            )
        features = [np.asarray(bottom_out), *map(np.asarray, emb_rows)]
        shapes = {f.shape for f in features}
        if len(shapes) != 1 or features[0].ndim != 2:
            raise ValueError(
                f"interaction inputs must share one (batch, dim) shape, got {sorted(shapes)}"
            )
        # One float64 buffer; each (float32) feature is cast straight into
        # its slot, so assignment must never be left to broadcast.
        batch, dim = features[0].shape
        z = np.empty((batch, len(features), dim))
        for slot, feature in enumerate(features):
            z[:, slot, :] = feature
        self._z_cache = z
        interacted = self.interaction.forward(z)
        return self.top_mlp.forward(interacted).ravel()

    def backward_interaction(self, dlogits: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Backward through top MLP + interaction.

        Returns ``(d_bottom_out, d_emb_rows)`` — the latter are the lookup
        gradients that travel through the backward all-to-all.
        """
        if self._z_cache is None:
            raise RuntimeError("backward_interaction called before forward_interaction")
        d_interacted = self.top_mlp.backward(np.asarray(dlogits, dtype=np.float64).reshape(-1, 1))
        dz = self.interaction.backward(d_interacted)
        self._z_cache = None
        d_bottom = dz[:, 0, :]
        d_emb = [dz[:, 1 + j, :] for j in range(self.config.n_tables)]
        return d_bottom, d_emb

    def backward_dense(self, d_bottom_out: np.ndarray) -> np.ndarray:
        """Backward through the bottom MLP; returns d(dense features)."""
        return self.bottom_mlp.backward(d_bottom_out)

    def accumulate_embedding_grad(
        self, table_index: int, indices: np.ndarray, grad_rows: np.ndarray
    ) -> None:
        """Scatter lookup gradients into one table."""
        self.tables[table_index].accumulate_grad(indices, grad_rows)

    # ------------------------------------------------------- single process

    def forward(self, dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        """Full forward pass -> logits."""
        self._sparse_cache = np.asarray(sparse)
        bottom_out = self.forward_dense(dense)
        emb_rows = self.lookup_all(sparse)
        return self.forward_interaction(bottom_out, emb_rows)

    def backward(self, dlogits: np.ndarray) -> None:
        """Full backward pass; accumulates all parameter gradients."""
        d_bottom, d_emb = self.backward_interaction(dlogits)
        self.backward_dense(d_bottom)
        sparse = self._sparse_cache
        for j in range(self.config.n_tables):
            self.accumulate_embedding_grad(j, sparse[:, j], d_emb[j])

    # ------------------------------------------------------------ parameters

    def mlp_parameters(self) -> list[Parameter]:
        """Dense parameters — replicated (data parallel) in hybrid training."""
        return self.bottom_mlp.parameters() + self.top_mlp.parameters()

    def table_parameters(self) -> list[Parameter]:
        """Embedding parameters — sharded (model parallel) in hybrid training."""
        return [p for table in self.tables for p in table.parameters()]

    def parameters(self) -> list[Parameter]:
        return self.mlp_parameters() + self.table_parameters()
