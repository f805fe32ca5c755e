"""Table-wise error-bound configuration (the first adaptive level).

Tables are classified into three categories — **large**, **medium**, and
**small** error bound — from their Homogenization Index.  Strongly
homogenizing tables are accuracy-sensitive (a large bound fuses many
semantically distinct vectors), so they receive the *small* bound; tables
whose vectors stay distinct tolerate the *large* bound.

Two classifiers are provided:

* :func:`classify_by_threshold` — Algorithm 1 verbatim: fixed thresholds on
  the index.
* :func:`classify_by_rank` — rank tables by index and split into tertiles
  (configurable fractions).  This is what the evaluation uses: it always
  produces all three classes regardless of a dataset's index distribution,
  matching the paper's Table II where every dataset has L, M and S tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "TableCategory",
    "ErrorBoundLevels",
    "ClassifierThresholds",
    "classify_by_threshold",
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


@dataclass(frozen=True)
class ClassifierThresholds:
    """Algorithm 1's fixed thresholds on the Homogenization Index (Eq. 1 scale).

    ``homo_index > small_threshold``  -> 'small' (strongly homogenizing)
    ``homo_index < large_threshold``  -> 'large' (barely homogenizing)
    otherwise                          -> 'medium'
    """

    small_threshold: float = 0.25
    large_threshold: float = 0.02

    def __post_init__(self) -> None:
        if not 0 <= self.large_threshold <= self.small_threshold <= 1:
            raise ValueError(
                "need 0 <= large_threshold <= small_threshold <= 1, got "
                f"large={self.large_threshold}, small={self.small_threshold}"
            )


def classify_by_threshold(
    homo_index: float, thresholds: ClassifierThresholds = ClassifierThresholds()
) -> TableCategory:
    """Algorithm 1's ``EMBClassification`` on one table's index."""
    if not 0 <= homo_index <= 1:
        raise ValueError(f"homo_index must be in [0, 1], got {homo_index}")
    if homo_index > thresholds.small_threshold:
        return "small"
    if homo_index < thresholds.large_threshold:
        return "large"
    return "medium"


def classify_by_rank(
    homo_indices: dict[int, float],
    small_fraction: float = 1.0 / 3.0,
    large_fraction: float = 1.0 / 3.0,
) -> dict[int, TableCategory]:
    """Rank tables by Homogenization Index and split into three classes.

    The ``small_fraction`` most-homogenizing tables get the small bound, the
    ``large_fraction`` least-homogenizing get the large bound, the rest are
    medium.  Ties are broken by table id for determinism.
    """
    if not 0 <= small_fraction <= 1 or not 0 <= large_fraction <= 1:
        raise ValueError("fractions must be in [0, 1]")
    if small_fraction + large_fraction > 1:
        raise ValueError(
            f"fractions sum to {small_fraction + large_fraction:.3f} > 1"
        )
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
    n_small = int(round(n * small_fraction))
    n_large = int(round(n * large_fraction))
    n_large = min(n_large, n - n_small)
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
