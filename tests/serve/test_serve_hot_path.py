"""The serve hot path: a replica cache miss costs one index.

Three contracts, one per layer of the request path:

* **single-row pull** — a one-row ``pull`` (every pull a replica's gather
  makes) returns, for every row of every block including the short last
  one, the row ``decompress_any(block)`` gives and the accounting block
  geometry gives, exactly as a multi-row pull of the same block would;
  out-of-range ids raise ``IndexError``; ``pull.rows`` is a writable copy
  that never aliases the block's kept rows;
* **gather is a plain LRU** — over any request trace, with invalidations
  and undelivered shard groups, every gathered row equals the shard's
  decoded table (or the stale copy, or zeros), and hits, misses, stale /
  degraded counts and the LRU and stale-store contents equal a plain-dict
  model of the documented semantics;
* **decode prices once** — the simulator computes each decode-kernel price
  once per ``(codec, raw_nbytes)`` and reuses it across requests and runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import decompress_any
from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist.gpu import GpuModel
from repro.model import DLRM, DLRMConfig
from repro.serve import (
    EmbeddingShardServer,
    InferenceReplica,
    RequestLoadGenerator,
    ServingSimulator,
)
from tests.conftest import decoded_table, round_robin_plan

STEP = 64
ROWS = 150  # 64-row blocks: two full ones and a short last block of 22
DIM = 8
CODECS = [("vector_lz", 1e-2), ("entropy", 1e-2), ("lz4_like", 0.0)]


def make_server(codec, bound):
    table = np.random.default_rng(0).normal(0.0, 0.1, size=(ROWS, DIM)).astype(np.float32)
    return EmbeddingShardServer({0: table}, bound, codec, rows_per_block=STEP)


def assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype == np.float32
    np.testing.assert_array_equal(actual.view(np.uint32), expected.view(np.uint32))


@pytest.mark.parametrize("codec,bound", CODECS)
class TestSingleRowPull:
    def test_every_row_matches_its_block_decode_and_geometry(self, codec, bound):
        server = make_server(codec, bound)
        blocks = server._table(0).blocks
        assert len(blocks) == 3
        for block_id, block in enumerate(blocks):
            decoded = decompress_any(block)
            block_rows = min(STEP, ROWS - block_id * STEP)
            assert decoded.shape == (block_rows, DIM)
            for row in range(block_rows):
                row_id = block_id * STEP + row
                pull = server.pull(0, np.array([row_id]))
                assert_bitwise_equal(pull.rows, decoded[row : row + 1])
                assert len(pull.rows) == 1
                assert pull.codec == server.codec(0)
                assert pull.blocks_touched == 1
                assert pull.compressed_nbytes == len(block)
                assert pull.raw_nbytes == block_rows * DIM * 4

    def test_prices_as_a_multi_row_pull_of_the_same_block(self, codec, bound):
        server = make_server(codec, bound)
        for row_id in (0, 63, 64, 127, 128, ROWS - 1):
            one = server.pull(0, np.array([row_id]))
            two = server.pull(0, np.array([row_id, row_id]))
            assert_bitwise_equal(two.rows, np.concatenate([one.rows, one.rows]))
            assert (one.blocks_touched, one.compressed_nbytes, one.raw_nbytes) == (
                two.blocks_touched,
                two.compressed_nbytes,
                two.raw_nbytes,
            )

    @pytest.mark.parametrize("row_id", [-1, ROWS])
    def test_out_of_range_id_raises_index_error(self, codec, bound, row_id):
        server = make_server(codec, bound)
        with pytest.raises(IndexError, match=rf"row ids out of range \[0, {ROWS}\)"):
            server.pull(0, np.array([row_id]))

    def test_rows_are_a_writable_copy_of_the_kept_rows(self, codec, bound):
        server = make_server(codec, bound)
        stored = server._table(0)
        for row_id in (5, 70, ROWS - 1):
            pull = server.pull(0, np.array([row_id]))
            kept = stored._decoded[row_id // STEP]
            assert pull.rows.flags.writeable and pull.rows.flags.c_contiguous
            assert not np.shares_memory(pull.rows, kept)
            before = pull.rows.copy()
            pull.rows[:] = np.nan
            assert_bitwise_equal(server.pull(0, np.array([row_id])).rows, before)


# --------------------------------------------------------------- gather law

N_TABLES = 5
N_SHARDS = 2
TABLE_ROWS = 100
# (codec, bound) per table: lossy and lossless side by side
TABLE_CODECS = [
    ("vector_lz", 1e-2),
    ("lz4_like", 0.0),
    ("entropy", 1e-2),
    ("hybrid", 1e-2),
    ("lz4_like", 0.0),
]


def make_servers():
    rng = np.random.default_rng(3)
    sharding = round_robin_plan(N_TABLES, N_SHARDS)
    servers = []
    for rank in range(N_SHARDS):
        owned = sharding.tables_of(rank)
        servers.append(
            EmbeddingShardServer(
                {t: rng.normal(0.0, 0.1, size=(TABLE_ROWS, DIM)).astype(np.float32) for t in owned},
                {t: TABLE_CODECS[t][1] for t in owned},
                {t: TABLE_CODECS[t][0] for t in owned},
                rows_per_block=32,
            )
        )
    return servers, sharding


SERVERS, SHARDING = make_servers()
TRUTH = [decoded_table(SERVERS[SHARDING.owner_of(t)], t) for t in range(N_TABLES)]


class LruModel:
    """The replica's documented semantics on plain dicts (insertion order is
    recency order: a hit or re-admission moves a key to the end)."""

    def __init__(self, cache_rows, keep_stale):
        self.cache_rows, self.keep_stale = cache_rows, keep_stale
        self.cache: dict = {}
        self.stale: dict = {}

    @staticmethod
    def _touch(store, key, value, capacity):
        store.pop(key, None)
        store[key] = value
        while len(store) > capacity:
            del store[next(iter(store))]

    def gather(self, ids, down):
        rows, misses = [], []
        hits = stale_rows = degraded_rows = 0
        for t, row_id in enumerate(ids):
            key = (t, row_id)
            if key in self.cache:
                self.cache[key] = self.cache.pop(key)
                rows.append(self.cache[key])
                hits += 1
            else:
                rows.append(None)
                misses.append(key)
        contacted = sorted({SHARDING.owner_of(t) for t, _ in misses})
        for t, row_id in misses:
            key = (t, row_id)
            if SHARDING.owner_of(t) not in down:
                rows[t] = TRUTH[t][row_id]
                if self.cache_rows:
                    self._touch(self.cache, key, rows[t], self.cache_rows)
            elif key in self.stale:
                rows[t] = self.stale[key]
                stale_rows += 1
            else:
                rows[t] = np.zeros(DIM, dtype=np.float32)
                degraded_rows += 1
        return np.stack(rows), hits, len(misses), stale_rows, degraded_rows, contacted

    def invalidate(self, tables):
        dropped = [key for key in self.cache if key[0] in tables]
        for key in dropped:
            row = self.cache.pop(key)
            if self.keep_stale and self.cache_rows:
                self._touch(self.stale, key, row, self.cache_rows)
        return len(dropped)


row_ids = st.one_of(st.integers(0, 3), st.integers(0, TABLE_ROWS - 1))
gather_op = st.tuples(
    st.just("gather"),
    st.lists(row_ids, min_size=N_TABLES, max_size=N_TABLES),
    st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, N_SHARDS - 1))),
)
invalidate_op = st.tuples(
    st.just("invalidate"), st.frozensets(st.integers(0, N_TABLES - 1), min_size=1)
)
traces = st.lists(st.one_of(gather_op, gather_op, gather_op, invalidate_op), max_size=25)


@pytest.mark.parametrize("keep_stale", [False, True])
@pytest.mark.parametrize("cache_rows", [0, 1, 256])
@given(trace=traces)
@settings(max_examples=40, deadline=None)
def test_gather_equals_a_plain_dict_lru(cache_rows, keep_stale, trace):
    replica = InferenceReplica(0, SERVERS, SHARDING, cache_rows, keep_stale=keep_stale)
    model = LruModel(cache_rows, keep_stale)
    for op in trace:
        if op[0] == "invalidate":
            assert replica.invalidate_tables(op[1]) == model.invalidate(op[1])
        else:
            _, ids, down = op
            asked = []

            def deliver(shard_rank, pulls, down=down):
                asked.append(shard_rank)
                return shard_rank not in down

            result = replica.gather(np.array(ids), deliver)
            rows, hits, misses, stale_rows, degraded_rows, contacted = model.gather(ids, down)
            assert_bitwise_equal(result.rows, rows)
            assert result.rows.shape == (N_TABLES, DIM) and result.rows.flags.c_contiguous
            assert (result.hits, result.misses) == (hits, misses)
            assert (result.stale_rows, result.degraded_rows) == (stale_rows, degraded_rows)
            assert asked == contacted
            assert len(result.pulls) == misses - stale_rows - degraded_rows
            assert all(len(pull.rows) == 1 for pull in result.pulls)
            # the result is the caller's: writing into it reaches no cache
            result.rows[:] = np.nan
        assert list(replica._cache) == list(model.cache)
        assert list(replica._stale) == list(model.stale)
        for key, row in model.cache.items():
            assert_bitwise_equal(replica._cache[key], row)
    assert replica.hits + replica.misses == sum(
        N_TABLES for op in trace if op[0] == "gather"
    )


# ------------------------------------------------------------ decode prices


@pytest.fixture(scope="module")
def serving_world():
    spec = make_uniform_spec("hot-path", n_tables=6, cardinality=300, zipf_exponent=1.4)
    dataset = SyntheticClickDataset(spec, seed=5)
    config = DLRMConfig.from_dataset(spec, embedding_dim=DIM, seed=6)
    model = DLRM(config)
    sharding = round_robin_plan(spec.n_tables, 2)
    servers = [
        EmbeddingShardServer.from_model(model, sharding.tables_of(rank), rows_per_block=32)
        for rank in range(2)
    ]
    return dataset, config, servers, sharding


def test_a_decode_price_is_computed_once_per_codec_and_size(monkeypatch, serving_world):
    dataset, config, servers, sharding = serving_world
    replicas = [InferenceReplica(i, servers, sharding, cache_rows=16) for i in range(2)]
    sim = ServingSimulator(replicas, config)
    calls = []
    real = GpuModel.throughput_kernel_time

    def counted(self, nbytes, peak_throughput):
        calls.append((nbytes, peak_throughput))
        return real(self, nbytes, peak_throughput)

    monkeypatch.setattr(GpuModel, "throughput_kernel_time", counted)
    loadgen = RequestLoadGenerator(dataset, qps=2000.0, seed=7)
    misses = sum(sim.run(loadgen.generate(300)).misses for _ in range(2))
    # One codec and two block geometries (32 rows, and the last block's
    # 300 % 32 = 12): hundreds of priced pulls, at most two prices, and the
    # second run reuses what the first computed.
    assert misses > 100
    assert 1 <= len(calls) <= 2
    assert len(calls) == len(set(calls))
    assert {nbytes for nbytes, _ in calls} <= {32 * DIM * 4, 12 * DIM * 4}
    priced = len(calls)
    ServingSimulator(replicas, config).run(loadgen.generate(50))
    assert len(calls) > priced  # the prices belong to one simulator
