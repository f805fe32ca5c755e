"""Shared fixtures: representative embedding-batch generators, and the
read-outs several suites take of simulator, sharding and shard state.

The fixtures model the data regimes the paper analyses: batches with hot
repeated vectors (vector homogenization / LZ-friendly), Gaussian
concentrated values (entropy-friendly), and near-uniform unique vectors
(hard for everything).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.exporters import snapshot_from_document
from repro.obs.schema import validate_snapshot_json
from repro.train.sharding import ShardingPlan


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



def events_in(timeline, category: str) -> list:
    """The ledger's events of one category, in record order."""
    return [e for e in timeline.events if e.category == category]


def one_rank(n_ranks: int, rank: int, seconds: float) -> list[float]:
    """A ``ClusterSimulator.compute`` wave that charges ``seconds`` on one
    rank and nothing elsewhere."""
    wave = [0.0] * n_ranks
    wave[rank] = seconds
    return wave


def round_robin_plan(n_tables: int, n_ranks: int) -> ShardingPlan:
    """Table ``t`` goes to rank ``t % n_ranks``."""
    return ShardingPlan(owners=tuple(t % n_ranks for t in range(n_tables)), n_ranks=n_ranks)


def counter_track(timeline, name: str) -> list:
    """Samples of one counter track, in time order."""
    return sorted((s for s in timeline.counters if s.name == name), key=lambda s: s.time)


def series_value(snapshot, name: str, **labels: object):
    """One labelled series of a metric family: a gauge's value or a
    histogram's data (``KeyError`` when the family or series is absent)."""
    key = tuple(sorted((k, str(v)) for k, v in labels.items()))
    return snapshot.family(name).as_dict()[key]


def from_json(text: str):
    """A snapshot read back from its JSON document as the report CLI reads
    it: validated against the schema, then walked."""
    return snapshot_from_document(validate_snapshot_json(text))


def decoded_table(server, table_id: int) -> np.ndarray:
    """Full decode of one table as a shard server stores it now, read
    through the kept decoded blocks as a pull is."""
    table = server._table(table_id)
    if not table.blocks:
        return np.empty((0, table.dim), dtype=np.float32)
    return np.concatenate([table._block_rows(b) for b in range(table.n_blocks)], axis=0)


def cached_tables(replica) -> set[int]:
    """The tables a replica's hot-row cache holds rows of."""
    return {table_id for table_id, _ in replica._cache}


def cached_rows(replica) -> int:
    """The number of rows a replica's hot-row cache holds."""
    return len(replica._cache)


def hit_rate(replica) -> float:
    """A replica's cache hits over its lookups so far."""
    lookups = replica.hits + replica.misses
    return replica.hits / lookups if lookups else 0.0
