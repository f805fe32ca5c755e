"""Shared fixtures: representative embedding-batch generators.

The fixtures model the data regimes the paper analyses: batches with hot
repeated vectors (vector homogenization / LZ-friendly), Gaussian
concentrated values (entropy-friendly), and near-uniform unique vectors
(hard for everything).
"""

from __future__ import annotations

import numpy as np
import pytest


def make_hot_batch(
    rng: np.random.Generator,
    batch: int = 256,
    dim: int = 32,
    pool: int = 20,
    unique_fraction: float = 0.1,
    scale: float = 0.1,
) -> np.ndarray:
    """Batch dominated by repeats of a small pool of hot vectors."""
    pool_rows = rng.normal(0.0, scale, size=(pool, dim)).astype(np.float32)
    idx = rng.integers(0, pool, size=batch)
    data = pool_rows[idx].copy()
    n_unique = int(batch * unique_fraction)
    if n_unique:
        rows = rng.choice(batch, size=n_unique, replace=False)
        data[rows] = rng.normal(0.0, scale, size=(n_unique, dim)).astype(np.float32)
    return data


def make_gaussian_batch(
    rng: np.random.Generator, batch: int = 256, dim: int = 32, scale: float = 0.05
) -> np.ndarray:
    """All-unique batch with concentrated Gaussian values."""
    return rng.normal(0.0, scale, size=(batch, dim)).astype(np.float32)


def make_uniform_batch(
    rng: np.random.Generator, batch: int = 256, dim: int = 32, spread: float = 1.0
) -> np.ndarray:
    """All-unique batch with broadly spread values (hardest case)."""
    return rng.uniform(-spread, spread, size=(batch, dim)).astype(np.float32)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240417)


@pytest.fixture
def hot_batch(rng: np.random.Generator) -> np.ndarray:
    return make_hot_batch(rng)


@pytest.fixture
def gaussian_batch(rng: np.random.Generator) -> np.ndarray:
    return make_gaussian_batch(rng)


@pytest.fixture
def uniform_batch(rng: np.random.Generator) -> np.ndarray:
    return make_uniform_batch(rng)

