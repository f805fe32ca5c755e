"""Offline analysis: Algorithm 1's ``OfflineAnalysis`` + Algorithm 2.

Before training, a few iterations of lookups are sampled per table.  The
analyzer then:

1. computes each table's Homogenization Index at the global error bound;
2. classifies tables into small/medium/large error-bound categories;
3. runs compressor selection (Eq.-2 speedup) per table;

and emits a :class:`CompressionPlan` — the static configuration the online
controller applies during training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adaptive.classify import ErrorBoundLevels, TableCategory, classify_by_rank
from repro.adaptive.homo_index import HomoIndexResult, homogenization_index
from repro.adaptive.selection import SelectionResult, select_compressor
from repro.compression.entropy import EntropyCompressor
from repro.compression.vector_lz import VectorLZCompressor

__all__ = ["TablePlan", "CompressionPlan", "OfflineAnalyzer"]

#: all-to-all bandwidth (bytes/s) the Eq.-2 selection scores candidates at
SELECTION_BANDWIDTH = 4.0e9


@dataclass(frozen=True)
class TablePlan:
    """Per-table static configuration produced by the offline analysis."""

    table_id: int
    category: TableCategory
    error_bound: float
    compressor: str
    homo: HomoIndexResult
    selection: SelectionResult


@dataclass(frozen=True)
class CompressionPlan:
    """Everything the online controller needs, table by table."""

    tables: dict[int, TablePlan]
    levels: ErrorBoundLevels
    global_error_bound: float

    def error_bound_for(self, table_id: int) -> float:
        return self.tables[table_id].error_bound

    def compressor_for(self, table_id: int) -> str:
        return self.tables[table_id].compressor

    def category_counts(self) -> dict[TableCategory, int]:
        counts: dict[TableCategory, int] = {"small": 0, "medium": 0, "large": 0}
        for plan in self.tables.values():
            counts[plan.category] += 1
        return counts


@dataclass
class OfflineAnalyzer:
    """Samples -> :class:`CompressionPlan` (Algorithms 1 + 2).

    Parameters
    ----------
    levels:
        The three error-bound levels for table categories.

    Tables are classified by :func:`classify_by_rank`'s tertile split.

    Candidates are scored by the Eq.-2 model at :data:`SELECTION_BANDWIDTH`
    on the A100 profile, with the default vector-LZ window.
    """

    levels: ErrorBoundLevels = field(default_factory=ErrorBoundLevels)

    def analyze(self, samples: dict[int, np.ndarray]) -> CompressionPlan:
        """Build the plan from per-table sampled lookups.

        ``samples`` maps table id to a 2-D ``(batch, dim)`` sample of that
        table's lookup output.
        """
        if not samples:
            raise ValueError("no samples provided")
        homo: dict[int, HomoIndexResult] = {
            table_id: homogenization_index(batch, self.levels.medium)
            for table_id, batch in samples.items()
        }
        categories = classify_by_rank({t: h.homo_index for t, h in homo.items()})
        tables: dict[int, TablePlan] = {}
        for table_id, batch in samples.items():
            category = categories[table_id]
            error_bound = self.levels.for_category(category)
            selection = select_compressor(
                batch,
                candidates={
                    "vector_lz": VectorLZCompressor(),
                    "entropy": EntropyCompressor(),
                },
                error_bound=error_bound,
                bandwidth=SELECTION_BANDWIDTH,
            )
            tables[table_id] = TablePlan(
                table_id=table_id,
                category=category,
                error_bound=error_bound,
                compressor=selection.best,
                homo=homo[table_id],
                selection=selection,
            )
        return CompressionPlan(
            tables=tables, levels=self.levels, global_error_bound=self.levels.medium
        )
