"""Incremental shard re-encode: ``set_table`` recompresses only the row
blocks whose exact float32 bytes changed.

Three contracts:

* **byte oracle** — for the stateless codecs (``vector_lz``, and the
  lossless ``lz4_like`` a bound of 0 selects) a server driven through any
  sequence of updates holds, block for block, the bytes a fresh server
  built from the final values holds.  The keyed codecs (``hybrid``,
  ``entropy``) age their pin/codebook caches per call, so skipping calls
  may pick another encoder leg: for them the served values stay within the
  table's bound after every round;
* **work proportionality** — an unchanged table costs no encode call, k
  dirty blocks cost k block encodes (one ``compress_stack`` call where the
  codec batches);
* **atomicity and pool hygiene** — a rejected table changes nothing (blocks,
  digests, pulls), replaced leases go back, untouched ones are left alone.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import EmbeddingShardServer

DIM = 8
OPS = ("same", "one", "some", "all", "tail", "signflip")


def make_table(rows, seed=0, dim=DIM):
    table = np.random.default_rng(seed).normal(0.0, 0.1, size=(rows, dim)).astype(np.float32)
    table[0, 0] = 0.0  # the zero whose sign "signflip" toggles
    return table


def apply_op(values, op, rng, rows_per_block):
    """The next publication's exact values: a sparse row update of ``values``."""
    new = values.copy()
    n = len(values)
    if op == "same":
        return new
    if op == "signflip":  # -0.0 <-> +0.0: equal as floats, different bytes
        new[0, 0] = np.float32(0.0) if np.signbit(new[0, 0]) else np.float32(-0.0)
        return new
    if op == "one":
        rows = rng.integers(n, size=1)
    elif op == "some":
        rows = rng.choice(n, size=max(1, n // 10), replace=False)
    elif op == "all":
        rows = np.arange(n)
    else:  # only the (possibly ragged) last block
        rows = np.arange((n - 1) // rows_per_block * rows_per_block, n)
    new[rows] += rng.normal(0.0, 0.05, size=(len(rows), values.shape[1])).astype(np.float32)
    if op == "all":
        new[0, 0] = values[0, 0]  # keep the zero for later sign flips
    return new


def block_bytes(server, table_id=0):
    return [bytes(block) for block in server._table(table_id).blocks]


def count_encodes(monkeypatch, server, table_id=0):
    """Count the codec calls ``set_table`` makes for one table: per-block
    ``compress`` calls and the block count of each ``compress_stack`` call."""
    codec = server._table(table_id)._codec
    calls = {"compress": 0, "stacks": []}
    real_compress = codec.compress

    def compress(*args, **kwargs):
        calls["compress"] += 1
        return real_compress(*args, **kwargs)

    monkeypatch.setattr(codec, "compress", compress)
    if hasattr(codec, "compress_stack"):
        real_stack = codec.compress_stack

        def compress_stack(stack, *args, **kwargs):
            calls["stacks"].append(len(stack))
            return real_stack(stack, *args, **kwargs)

        monkeypatch.setattr(codec, "compress_stack", compress_stack)
    return calls


#: rows: below one block, exactly one block, ragged tail, several blocks
geometry = st.tuples(st.integers(1, 150), st.sampled_from((16, 64)))
op_lists = st.lists(st.sampled_from(OPS), min_size=1, max_size=6)
EVERY_OP = ["same", "signflip", "one", "tail", "some", "signflip", "all", "same", "one"]


class TestByteOracle:
    @pytest.mark.parametrize("codec,bound", [("vector_lz", 1e-2), ("lz4_like", 0.0)])
    @settings(max_examples=25, deadline=None)
    @given(geometry=geometry, ops=op_lists, seed=st.integers(0, 2**16))
    @example(geometry=(150, 16), ops=EVERY_OP, seed=1)  # ragged tail (150 = 9 * 16 + 6)
    @example(geometry=(128, 64), ops=EVERY_OP, seed=2)  # whole blocks only
    @example(geometry=(10, 64), ops=EVERY_OP, seed=3)  # cardinality < rows_per_block
    def test_stateless_codecs_match_a_fresh_build(self, codec, bound, geometry, ops, seed):
        rows, rows_per_block = geometry
        rng = np.random.default_rng(seed)
        values = make_table(rows, seed)
        server = EmbeddingShardServer({0: values}, bound, codec, rows_per_block=rows_per_block)
        for op in ops:
            values = apply_op(values, op, rng, rows_per_block)
            server.set_table(0, values)
            fresh = EmbeddingShardServer({0: values}, bound, codec, rows_per_block=rows_per_block)
            assert block_bytes(server) == block_bytes(fresh), op
        if bound == 0.0:  # lossless: lookups carry the exact bits, -0.0 included
            served = server.lookup_rows(0, np.arange(rows))
            np.testing.assert_array_equal(served.view(np.uint32), values.view(np.uint32))

    @pytest.mark.parametrize("codec", ["hybrid", "entropy"])
    @settings(max_examples=15, deadline=None)
    @given(geometry=geometry, ops=op_lists, seed=st.integers(0, 2**16))
    @example(geometry=(150, 16), ops=EVERY_OP, seed=1)
    def test_keyed_codecs_stay_within_the_bound(self, codec, geometry, ops, seed):
        rows, rows_per_block = geometry
        bound = 1e-2
        rng = np.random.default_rng(seed)
        values = make_table(rows, seed)
        server = EmbeddingShardServer({0: values}, bound, codec, rows_per_block=rows_per_block)
        for op in ops:
            values = apply_op(values, op, rng, rows_per_block)
            server.set_table(0, values)
            error = np.max(np.abs(server.table_array(0).astype(np.float64) - values))
            assert error <= bound * (1 + 1e-6), op


class TestWorkProportionality:
    @pytest.mark.parametrize(
        "codec,bound", [("vector_lz", 1e-2), ("hybrid", 1e-2), ("entropy", 1e-2), ("lz4_like", 0.0)]
    )
    def test_unchanged_table_makes_no_encode_call(self, monkeypatch, codec, bound):
        table = make_table(200)
        server = EmbeddingShardServer({0: table}, bound, codec, rows_per_block=64)
        before = block_bytes(server)
        calls = count_encodes(monkeypatch, server)
        size = server.set_table(0, table.copy())
        assert calls == {"compress": 0, "stacks": []}
        assert block_bytes(server) == before
        assert size == server.compressed_nbytes(0)

    @pytest.mark.parametrize("codec", ["hybrid", "entropy"])
    def test_keyed_codec_encodes_each_dirty_block_once(self, monkeypatch, codec):
        table = make_table(200)  # blocks 0..2 full, block 3 ragged (8 rows)
        server = EmbeddingShardServer({0: table}, 1e-2, codec, rows_per_block=64)
        calls = count_encodes(monkeypatch, server)
        update = table.copy()
        update[[5, 130, 199]] += 0.25  # blocks 0, 2 and the ragged 3
        server.set_table(0, update)
        assert calls == {"compress": 3, "stacks": []}

    @pytest.mark.parametrize(
        "dirty_rows,expected",
        [
            ([70], {"compress": 1, "stacks": []}),  # one block: no batch to form
            ([5, 70, 130], {"compress": 0, "stacks": [3]}),  # contiguous run
            ([5, 130], {"compress": 0, "stacks": [2]}),  # gap: gathered stack
            ([5, 130, 199], {"compress": 1, "stacks": [2]}),  # + the ragged tail
            ([199], {"compress": 1, "stacks": []}),
        ],
    )
    def test_vector_lz_batches_the_dirty_full_blocks(self, monkeypatch, dirty_rows, expected):
        table = make_table(200)
        server = EmbeddingShardServer({0: table}, 1e-2, "vector_lz", rows_per_block=64)
        calls = count_encodes(monkeypatch, server)
        update = table.copy()
        update[dirty_rows] += 0.25
        server.set_table(0, update)
        assert calls == expected
        fresh = EmbeddingShardServer({0: update}, 1e-2, "vector_lz", rows_per_block=64)
        assert block_bytes(server) == block_bytes(fresh)

    def test_first_build_is_the_all_dirty_case_of_the_same_code(self, monkeypatch):
        from repro.compression.vector_lz import VectorLZCompressor

        stacks = []
        real_stack = VectorLZCompressor.compress_stack

        def compress_stack(self, stack, *args, **kwargs):
            stacks.append(len(stack))
            return real_stack(self, stack, *args, **kwargs)

        monkeypatch.setattr(VectorLZCompressor, "compress_stack", compress_stack)
        EmbeddingShardServer({0: make_table(200)}, 1e-2, "vector_lz", rows_per_block=64)
        assert stacks == [3]


class TestAtomicity:
    @pytest.mark.parametrize(
        "codec,poison",
        [("hybrid", np.nan), ("hybrid", 1e9), ("vector_lz", np.nan), ("entropy", 1e9)],
    )
    def test_rejected_update_changes_nothing(self, monkeypatch, codec, poison):
        """Three blocks are dirty and valid, the poison sits in a fourth:
        none of the four may be swapped in."""
        table = make_table(300)
        server = EmbeddingShardServer({0: table}, 1e-2, codec, rows_per_block=64)
        stored = server._table(0)
        blocks, digests = list(stored.blocks), list(stored._digests)
        payloads = block_bytes(server)
        served = server.table_array(0)
        live = server.pool.stats.live
        bad = table.copy()
        bad[[5, 70, 250]] += 0.25
        bad[150, 3] = poison
        with pytest.raises(ValueError, match="quantize"):
            server.set_table(0, bad)
        assert all(now is was for now, was in zip(stored.blocks, blocks))
        assert stored._digests == digests
        assert block_bytes(server) == payloads
        ids = np.array([0, 5, 70, 150, 250, 299])
        np.testing.assert_array_equal(server.lookup_rows(0, ids), served[ids])
        assert server.pool.stats.live == live
        # the digests survived too: the old values are still "unchanged"
        calls = count_encodes(monkeypatch, server)
        server.set_table(0, table)
        assert calls == {"compress": 0, "stacks": []}


class TestPoolAccounting:
    def test_no_leak_and_untouched_blocks_keep_their_memory(self):
        rng = np.random.default_rng(7)
        tables = {0: make_table(200, seed=1), 1: make_table(150, seed=2), 2: make_table(90, seed=3)}
        codecs = {0: "vector_lz", 1: "hybrid", 2: "entropy"}
        server = EmbeddingShardServer(tables, 1e-2, codecs, rows_per_block=64)
        n_blocks = sum(server._table(t).n_blocks for t in tables)
        assert server.pool.stats.live == n_blocks == 4 + 3 + 2
        ops = [OPS[i % len(OPS)] for i in range(20)]
        for round_index, op in enumerate(ops):
            for table_id in tables:
                stored = server._table(table_id)
                before = list(stored.blocks)
                new = apply_op(tables[table_id], op, rng, 64)
                # blocks whose bytes differ from the last accepted values
                changed = {
                    b
                    for b in range(stored.n_blocks)
                    if new[b * 64 : (b + 1) * 64].tobytes()
                    != tables[table_id][b * 64 : (b + 1) * 64].tobytes()
                }
                server.set_table(table_id, new)
                tables[table_id] = new
                for b, (was, now) in enumerate(zip(before, stored.blocks)):
                    assert (now is not was) == (b in changed), (round_index, op, table_id, b)
            assert server.pool.stats.live == n_blocks
        assert server.pool.stats.dirty_releases == 0
        assert server.pool.stats.reuses > 0
