"""Synthetic Criteo-like data substrate."""

from repro.data.specs import (
    CRITEO_KAGGLE,
    CRITEO_TERABYTE,
    DatasetSpec,
    TableSpec,
    make_uniform_spec,
    scaled_spec,
)
from repro.data.synthetic import MiniBatch, SyntheticClickDataset, zipf_probabilities

__all__ = [
    "TableSpec",
    "DatasetSpec",
    "CRITEO_KAGGLE",
    "CRITEO_TERABYTE",
    "scaled_spec",
    "make_uniform_spec",
    "MiniBatch",
    "SyntheticClickDataset",
    "zipf_probabilities",
]
