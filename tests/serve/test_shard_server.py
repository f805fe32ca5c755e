"""EmbeddingShardServer: row-granular decode over compressed shards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import decompress_any
from repro.compression import entropy as entropy_module
from repro.compression import vector_lz as vector_lz_module
from repro.compression.base import ROW_DECODE_MAX_ROWS
from repro.model import DLRM, DLRMConfig
from repro.serve import EmbeddingShardServer


def make_table(rows=200, dim=16, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(rows, dim)).astype(np.float32)


class TestRowGranularLookups:
    def test_lookup_matches_full_decode(self):
        table = make_table()
        server = EmbeddingShardServer({0: table}, error_bounds=1e-2, rows_per_block=32)
        ids = np.array([0, 5, 31, 32, 63, 64, 199, 5])
        rows = server.lookup_rows(0, ids)
        assert rows.shape == (ids.size, 16)
        full = server.table_array(0)
        np.testing.assert_array_equal(rows, full[ids])

    def test_lookup_within_error_bound(self):
        table = make_table()
        bound = 5e-3
        server = EmbeddingShardServer({0: table}, error_bounds=bound)
        ids = np.arange(200)
        rows = server.lookup_rows(0, ids)
        assert np.max(np.abs(rows - table)) <= bound * (1 + 1e-6)

    def test_error_bound_zero_is_bit_identical_to_raw(self):
        """The satellite contract: at bound 0 the shard stores losslessly,
        so compressed lookups equal the raw rows bit for bit."""
        table = make_table(rows=150, dim=8)
        server = EmbeddingShardServer({0: table}, error_bounds=0.0, rows_per_block=37)
        ids = np.array([0, 1, 36, 37, 74, 149, 0])
        np.testing.assert_array_equal(server.lookup_rows(0, ids), table[ids])
        assert server.codec(0) == "lz4_like"
        np.testing.assert_array_equal(server.table_array(0), table)

    def test_pull_accounts_touched_blocks_only(self):
        table = make_table(rows=256)
        server = EmbeddingShardServer({0: table}, rows_per_block=64)
        pull = server.pull(0, np.array([0, 1, 2, 70]))  # blocks 0 and 1
        assert pull.blocks_touched == 2
        assert 0 < pull.compressed_nbytes < server.compressed_nbytes(0)
        assert pull.raw_nbytes == 2 * 64 * 16 * 4
        whole = server.pull(0, np.arange(256))
        assert whole.blocks_touched == 4
        assert whole.compressed_nbytes == server.compressed_nbytes(0)

    def test_partial_last_block(self):
        table = make_table(rows=100)
        server = EmbeddingShardServer({0: table}, error_bounds=0.0, rows_per_block=64)
        pull = server.pull(0, np.array([99]))
        assert pull.blocks_touched == 1
        assert pull.raw_nbytes == 36 * 16 * 4  # last block holds 36 rows
        np.testing.assert_array_equal(pull.rows[0], table[99])

    def test_empty_pull(self):
        server = EmbeddingShardServer({0: make_table()})
        pull = server.pull(0, np.array([], dtype=np.int64))
        assert pull.n_rows == 0 and pull.blocks_touched == 0
        assert pull.compressed_nbytes == 0


def make_hot_table(rows=200, dim=16, seed=0):
    """Rows drawn from a few distinct vectors: vector-LZ blocks full of
    back-references, some of them chains."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.1, size=(5, dim))[rng.integers(0, 5, size=rows)].astype(np.float32)


class TestRowGranularDecode:
    """The block is the unit of storage and of pull accounting; the row is
    the unit of decode."""

    @pytest.mark.parametrize(
        "codec,bound",
        [("vector_lz", 1e-2), ("entropy", 1e-2), ("hybrid", 1e-2), ("lz4_like", 0.0)],
    )
    def test_pull_equals_a_per_block_decode_loop(self, codec, bound):
        """Rows *and* accounting of ``pull`` are what decoding every touched
        block whole gives — 200 rows in 64-row blocks, so the last block is
        ragged (8 rows)."""
        table = make_hot_table()
        server = EmbeddingShardServer({0: table}, bound, codec, rows_per_block=64)
        blocks = server._tables[0].blocks
        decoded = [decompress_any(block) for block in blocks]
        assert [d.shape[0] for d in decoded] == [64, 64, 64, 8]
        requests = [
            [199],
            [3],
            [0, 63],
            [130, 129, 129, 191],
            list(range(64, 64 + ROW_DECODE_MAX_ROWS + 2)),  # one block, past the crossover
            [64, 5, 199, 5, 130],
            list(range(200)),
            [],
        ]
        for ids in requests:
            pull = server.pull(0, np.array(ids, dtype=np.int64))
            touched = sorted({i // 64 for i in ids})
            expected = np.array([decoded[i // 64][i % 64] for i in ids], dtype=np.float32)
            assert pull.rows.dtype == np.float32
            np.testing.assert_array_equal(pull.rows, expected.reshape(len(ids), 16))
            assert pull.blocks_touched == len(touched)
            assert pull.compressed_nbytes == sum(len(blocks[b]) for b in touched)
            assert pull.raw_nbytes == sum(decoded[b].nbytes for b in touched)

    @pytest.mark.parametrize(
        "codec,module,attr",
        [
            ("vector_lz", vector_lz_module, "_resolve_stack"),
            ("entropy", entropy_module, "huffman_decode"),
        ],
    )
    def test_a_single_row_pull_never_runs_the_block_decoder(self, monkeypatch, codec, module, attr):
        """Few rows of a block go to the codec's row kernel; from the
        crossover up the vectorised block decode (then an index) is the
        faster one and is what runs."""
        block_decode = getattr(module, attr)
        calls = []

        def counted(*args, **kwargs):
            calls.append(attr)
            return block_decode(*args, **kwargs)

        server = EmbeddingShardServer({0: make_hot_table()}, 1e-2, codec, rows_per_block=64)
        full = server.table_array(0)
        monkeypatch.setattr(module, attr, counted)
        np.testing.assert_array_equal(server.pull(0, np.array([70])).rows, full[[70]])
        few = np.arange(64, 64 + ROW_DECODE_MAX_ROWS - 1)
        np.testing.assert_array_equal(server.pull(0, few).rows, full[few])
        assert calls == []
        many = np.arange(64, 64 + ROW_DECODE_MAX_ROWS)
        np.testing.assert_array_equal(server.pull(0, many).rows, full[many])
        assert calls == [attr]


class TestCompressionAccounting:
    def test_compressible_table_shrinks(self):
        # Concentrated values quantize to few symbols -> real compression.
        server = EmbeddingShardServer({0: make_table(scale=0.02)}, error_bounds=1e-2)
        assert server.compressed_nbytes() < server.raw_nbytes()
        assert server.compression_ratio() > 1.5

    def test_per_table_bounds_and_codecs(self):
        tables = {0: make_table(seed=1), 3: make_table(seed=2)}
        server = EmbeddingShardServer(
            tables,
            error_bounds={0: 1e-2, 3: 0.0},
            codecs={0: "vector_lz", 3: "entropy"},
        )
        assert server.codec(0) == "vector_lz"
        assert server.codec(3) == "lz4_like"  # bound 0 forces lossless
        assert server.error_bound(0) == 1e-2
        assert server.table_ids() == (0, 3)

    def test_from_model_with_controller(self):
        from repro.adaptive import AdaptiveController, OfflineAnalyzer

        config = DLRMConfig(
            n_dense=4, table_cardinalities=(120, 90), embedding_dim=8, seed=3
        )
        model = DLRM(config)
        samples = {
            t: model.lookup(t, np.arange(60) % config.table_cardinalities[t])
            for t in range(2)
        }
        controller = AdaptiveController(OfflineAnalyzer().analyze(samples))
        server = EmbeddingShardServer.from_model(model, [0, 1], controller)
        for t in range(2):
            assert server.codec(t) == controller.compressor_name(t)
            assert server.error_bound(t) == controller.error_bound(t, 0)
            stored = server.table_array(t)
            raw = model.tables[t].weight.data.astype(np.float32)
            assert np.max(np.abs(stored - raw)) <= server.error_bound(t) * (1 + 1e-6)


class TestUpdates:
    def test_set_table_replaces_contents(self):
        table = make_table()
        server = EmbeddingShardServer({0: table}, error_bounds=0.0)
        new = table + 1.0
        server.set_table(0, new)
        np.testing.assert_array_equal(server.table_array(0), new)

    @pytest.mark.parametrize(
        "codec,poison",
        [("hybrid", np.nan), ("hybrid", 1e9), ("vector_lz", np.nan), ("entropy", 1e9)],
    )
    def test_rejected_set_table_keeps_serving_the_old_table(self, codec, poison):
        """A table the quantizer rejects part-way (every block changed, the
        poison sits in the third of four) must leave the previous blocks
        live: same rows bit for bit, no released lease behind ``pull``,
        nothing leaked from the pool — and the previous digests, so the old
        values still read as unchanged."""
        table = make_table()
        server = EmbeddingShardServer({0: table}, 1e-2, codec, rows_per_block=64)
        before = server.table_array(0)
        live = server.pool.stats.live
        bad = table + 0.25
        bad[150, 3] = poison
        with pytest.raises(ValueError, match="quantize"):
            server.set_table(0, bad)
        np.testing.assert_array_equal(server.table_array(0), before)
        ids = np.array([0, 70, 150, 199])
        np.testing.assert_array_equal(server.lookup_rows(0, ids), before[ids])
        assert server.pool.stats.live == live
        checkouts = server.pool.stats.checkouts
        server.set_table(0, table)
        assert server.pool.stats.checkouts == checkouts  # nothing re-encoded
        # ...and the table still accepts the next good publication, with the
        # arenas of the replaced round recycling.
        server.set_table(0, table + 0.5)
        server.set_table(0, table)
        np.testing.assert_array_equal(server.table_array(0), before)
        assert server.pool.stats.live == live
        assert server.pool.stats.reuses > 0

    def test_set_table_shape_mismatch(self):
        server = EmbeddingShardServer({0: make_table()})
        with pytest.raises(ValueError, match="expected shape"):
            server.set_table(0, np.zeros((3, 3), dtype=np.float32))


class TestValidation:
    def test_unknown_table(self):
        server = EmbeddingShardServer({2: make_table()})
        with pytest.raises(KeyError, match="not sharded here"):
            server.pull(0, np.array([0]))

    def test_out_of_range_rows(self):
        server = EmbeddingShardServer({0: make_table(rows=10)})
        with pytest.raises(IndexError):
            server.pull(0, np.array([10]))

    def test_needs_tables(self):
        with pytest.raises(ValueError, match="at least one table"):
            EmbeddingShardServer({})

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="error_bound"):
            EmbeddingShardServer({0: make_table()}, error_bounds=-1.0)
