"""DLRM model configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.specs import DatasetSpec
from repro.utils.validation import check_count

__all__ = ["CLUSTER_JITTER", "DLRMConfig"]

#: jitter std for clustered rows.  A full row collapses only if *every*
#: coordinate lands in the same quantization bin, so the jitter must be
#: far below the bin width (2 x 0.01 for the small bound) divided by the
#: dimension count for same-cluster rows to homogenize reliably.
CLUSTER_JITTER = 5e-5


@dataclass(frozen=True)
class DLRMConfig:
    """Architecture of a DLRM instance.

    ``bottom_hidden``/``top_hidden`` are hidden-layer widths only; the
    bottom MLP's output width is always ``embedding_dim`` (so the dense
    vector joins the interaction), and the top MLP ends in a single logit.
    """

    n_dense: int
    table_cardinalities: tuple[int, ...]
    embedding_dim: int = 16
    bottom_hidden: tuple[int, ...] = (32,)
    top_hidden: tuple[int, ...] = (32,)
    table_value_scales: tuple[float, ...] | None = None
    table_value_distributions: tuple[str, ...] | None = None
    table_cluster_counts: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("n_dense", self.n_dense, 1)
        check_count("embedding_dim", self.embedding_dim, 1)
        if not self.table_cardinalities:
            raise ValueError("need at least one embedding table")
        for i, cardinality in enumerate(self.table_cardinalities):
            check_count(f"table {i}: cardinality", cardinality, 1)
        n = len(self.table_cardinalities)
        for field_name in ("table_value_scales", "table_value_distributions", "table_cluster_counts"):
            value = getattr(self, field_name)
            if value is not None and len(value) != n:
                raise ValueError(f"{field_name} must match table_cardinalities in length")

    @property
    def n_tables(self) -> int:
        return len(self.table_cardinalities)

    @property
    def interaction_features(self) -> int:
        """Slots entering the interaction: dense vector + one per table."""
        return self.n_tables + 1

    @classmethod
    def from_dataset(
        cls,
        spec: DatasetSpec,
        embedding_dim: int = 16,
        bottom_hidden: tuple[int, ...] = (32,),
        top_hidden: tuple[int, ...] = (32,),
        seed: int = 0,
    ) -> "DLRMConfig":
        """Derive a model config from a dataset spec (carries the per-table
        value scales, distributions and cluster structure)."""
        return cls(
            n_dense=spec.n_dense,
            table_cardinalities=tuple(t.cardinality for t in spec.tables),
            embedding_dim=embedding_dim,
            bottom_hidden=bottom_hidden,
            top_hidden=top_hidden,
            table_value_scales=tuple(t.value_scale for t in spec.tables),
            table_value_distributions=tuple(t.value_distribution for t in spec.tables),
            table_cluster_counts=tuple(t.n_clusters for t in spec.tables),
            seed=seed,
        )
