"""Table-wise error-bound configuration (the first adaptive level).

Tables are classified into three categories — **large**, **medium**, and
**small** error bound — from their Homogenization Index.  Strongly
homogenizing tables are accuracy-sensitive (a large bound fuses many
semantically distinct vectors), so they receive the *small* bound; tables
whose vectors stay distinct tolerate the *large* bound.

:func:`classify_by_rank` ranks tables by index and splits them into
tertiles rather than applying Algorithm 1's fixed thresholds: the split
always yields all three classes, as the paper's Table II has L, M and S
tables on every dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "TableCategory",
    "ErrorBoundLevels",
    "classify_by_rank",
]

#: the three categories, in increasing error-bound order
TableCategory = str
CATEGORIES: tuple[TableCategory, ...] = ("small", "medium", "large")


@dataclass(frozen=True)
class ErrorBoundLevels:
    """The three error-bound levels assigned to table categories.

    The paper's chosen configuration is ``large=0.05, medium=0.03,
    small=0.01`` (Section IV-B).
    """

    large: float = 0.05
    medium: float = 0.03
    small: float = 0.01

    def __post_init__(self) -> None:
        check_positive("small", self.small)
        if not self.small <= self.medium <= self.large:
            raise ValueError(
                f"error-bound levels must be ordered small <= medium <= large, "
                f"got small={self.small}, medium={self.medium}, large={self.large}"
            )

    def for_category(self, category: TableCategory) -> float:
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}, expected one of {CATEGORIES}")
        return getattr(self, category)


def classify_by_rank(homo_indices: dict[int, float]) -> dict[int, TableCategory]:
    """Rank tables by Homogenization Index and split into three classes.

    The most-homogenizing third of the tables gets the small bound, the
    least-homogenizing third the large bound, the rest are medium.  Ties
    are broken by table id for determinism.
    """
    for table_id, value in homo_indices.items():
        if not 0 <= value <= 1:
            raise ValueError(f"homo index for table {table_id} out of [0, 1]: {value}")
    ids = sorted(homo_indices)
    if not ids:
        return {}
    values = np.array([homo_indices[t] for t in ids])
    # Most homogenizing first; stable tiebreak on table id.
    order = np.lexsort((np.array(ids), -values))
    n = len(ids)
    n_small = n_large = int(round(n / 3.0))
    result: dict[int, TableCategory] = {}
    for rank, pos in enumerate(order):
        table_id = ids[pos]
        if rank < n_small:
            result[table_id] = "small"
        elif rank >= n - n_large:
            result[table_id] = "large"
        else:
            result[table_id] = "medium"
    return result
