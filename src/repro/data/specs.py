"""Dataset specifications: Criteo-like table layouts.

The Criteo datasets have 13 continuous features and 26 categorical features;
each categorical feature is served by one embedding table.  Cardinalities
below are the published vocabulary sizes of the Criteo Kaggle (Display
Advertising Challenge) dataset and the day-sampled Criteo Terabyte dataset —
the spread from single digits to millions is exactly Fig. 6 of the paper.

For laptop-scale simulation, :func:`scaled_spec` caps cardinalities while
preserving the *shape* of the size distribution (log-space scaling), the
property Fig. 6 and the table-wise analysis depend on.

Each table also carries the knobs the synthetic generator uses to plant the
paper's observed data regimes:

* ``zipf_exponent`` — query-frequency skew.  Large values concentrate
  lookups on few hot rows (vector homogenization, LZ-friendly: the paper's
  "EMB Table 5" case); values near zero give near-uniform queries.
* ``value_scale`` — embedding value spread.  Small scales produce
  concentrated Gaussian value histograms (entropy-friendly: the paper's
  "EMB Table 1" case).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.utils.validation import check_count, check_finite_nonnegative, check_positive

__all__ = [
    "TableSpec",
    "DatasetSpec",
    "CRITEO_KAGGLE",
    "CRITEO_TERABYTE",
    "scaled_spec",
    "make_uniform_spec",
]

# Published vocabulary sizes of the Criteo Kaggle dataset (26 tables).
_KAGGLE_CARDINALITIES = [
    1460, 583, 10131227, 2202608, 305, 24, 12517, 633, 3, 93145, 5683,
    8351593, 3194, 27, 14992, 5461306, 10, 5652, 2173, 4, 7046547, 18, 15,
    286181, 105, 142572,
]

# Criteo Terabyte vocabulary sizes (subsampled days, as used by the DLRM
# reference implementation with max_ind_range lifted).
_TERABYTE_CARDINALITIES = [
    227605432, 39060, 17295, 7424, 20265, 3, 7122, 1543, 63, 130229467,
    3067956, 405282, 10, 2209, 11938, 155, 4, 976, 14, 292775614, 40790948,
    187188510, 590152, 12973, 108, 36,
]


@dataclass(frozen=True)
class TableSpec:
    """One embedding table's layout and planted data regime.

    ``value_distribution`` ("normal" = concentrated Gaussian histogram,
    "uniform" = broad dispersion) and ``n_clusters`` (> 0 plants near-
    duplicate rows that quantization homogenizes) drive the per-table
    contrasts of the paper's Table V and Tables III/IV.
    """

    table_id: int
    cardinality: int
    zipf_exponent: float = 1.2
    value_scale: float = 0.1
    value_distribution: str = "normal"
    n_clusters: int = 0

    def __post_init__(self) -> None:
        check_count(f"table {self.table_id}: cardinality", self.cardinality, 1)
        check_finite_nonnegative(f"table {self.table_id}: zipf_exponent", self.zipf_exponent)
        check_positive(f"table {self.table_id}: value_scale", self.value_scale)
        if self.value_distribution not in ("normal", "uniform", "laplace"):
            raise ValueError(
                f"table {self.table_id}: value_distribution must be 'normal', "
                f"'uniform' or 'laplace', got {self.value_distribution!r}"
            )
        check_count(f"table {self.table_id}: n_clusters", self.n_clusters, 0)


@dataclass(frozen=True)
class DatasetSpec:
    """A full dataset layout: dense features + embedding tables."""

    name: str
    tables: tuple[TableSpec, ...]
    n_dense: int = 13

    def __post_init__(self) -> None:
        check_count("n_dense", self.n_dense, 0)
        ids = [t.table_id for t in self.tables]
        if ids != list(range(len(ids))):
            raise ValueError("table ids must be consecutive from 0")

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    def cardinalities(self) -> np.ndarray:
        return np.array([t.cardinality for t in self.tables], dtype=np.int64)


def _default_regimes(index: int, cardinality: int) -> tuple[float, float, str, int]:
    """Plant per-table regimes from the table's position and size.

    Small-cardinality tables naturally see heavy repetition; for the rest we
    rotate through skew, distribution, and cluster settings so every dataset
    contains LZ-friendly tables (hot repeats, broad values), entropy-friendly
    tables (unique rows, concentrated Gaussian values), and homogenizing
    tables (clustered near-duplicate rows) — the mix Table V and
    Tables III/IV of the paper observe.
    """
    if cardinality <= 64:
        zipf = 1.6  # tiny vocab: repeats are unavoidable
    else:
        zipf = (0.4, 1.0, 1.6, 2.2)[index % 4]
    # Chosen so quantization at the paper's bounds (0.01-0.05) yields
    # alphabets of roughly 8-60 bins — the regime where the LZ-vs-Huffman
    # contrast of Table V appears.
    value_scale = (0.08, 0.15, 0.3)[index % 3]
    # Rotate value distributions: heavy-tailed (strongly entropy-friendly)
    # on the low-skew tables, broad uniform dispersion every fourth index
    # (the "EMB Table 5" regime), Gaussian elsewhere.
    distribution = ("laplace", "normal", "uniform", "normal")[index % 4]
    # Every third table gets clustered rows -> planted homogenization.
    n_clusters = max(4, cardinality // 16) if (index % 3 == 0 and cardinality > 64) else 0
    return zipf, value_scale, distribution, n_clusters


def _build_spec(name: str, cardinalities: list[int]) -> DatasetSpec:
    tables = []
    for i, cardinality in enumerate(cardinalities):
        zipf, scale, distribution, n_clusters = _default_regimes(i, cardinality)
        tables.append(
            TableSpec(
                table_id=i,
                cardinality=cardinality,
                zipf_exponent=zipf,
                value_scale=scale,
                value_distribution=distribution,
                n_clusters=n_clusters,
            )
        )
    return DatasetSpec(name=name, tables=tuple(tables))


CRITEO_KAGGLE = _build_spec("criteo-kaggle", _KAGGLE_CARDINALITIES)
CRITEO_TERABYTE = _build_spec("criteo-terabyte", _TERABYTE_CARDINALITIES)


def scaled_spec(spec: DatasetSpec, max_cardinality: int) -> DatasetSpec:
    """Shrink a spec for simulation, preserving the size-distribution shape.

    Cardinalities are mapped in log space so the histogram of table sizes
    keeps its spread (Fig. 6's property): tables at or below the cap are
    untouched; larger ones compress the excess log-range into the cap.
    """
    check_count("max_cardinality", max_cardinality, 2)
    original_max = max(t.cardinality for t in spec.tables)
    if original_max <= max_cardinality:
        return spec
    log_cap = np.log(max_cardinality)
    log_max = np.log(original_max)
    tables = []
    for t in spec.tables:
        if t.cardinality <= max_cardinality:
            tables.append(t)
            continue
        # Compress oversized tables into [cap^0.6, cap] in log space,
        # preserving their relative ordering.
        frac = (np.log(t.cardinality) - log_cap) / (log_max - log_cap)
        new_card = int(round(np.exp(log_cap * (0.6 + 0.4 * frac))))
        new_card = min(max(new_card, 2), max_cardinality)
        tables.append(replace(t, cardinality=new_card))
    return DatasetSpec(
        name=f"{spec.name}-scaled{max_cardinality}",
        tables=tuple(tables),
        n_dense=spec.n_dense,
    )


def make_uniform_spec(
    name: str,
    n_tables: int,
    cardinality: int,
    zipf_exponent: float = 1.2,
) -> DatasetSpec:
    """A homogeneous spec for unit tests and micro-benchmarks (every table
    at the default ``value_scale``)."""
    tables = tuple(
        TableSpec(table_id=i, cardinality=cardinality, zipf_exponent=zipf_exponent)
        for i in range(n_tables)
    )
    return DatasetSpec(name=name, tables=tables)
