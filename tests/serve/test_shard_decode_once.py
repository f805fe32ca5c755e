"""Decode once per stored payload: a shard block is decoded whole on its
first pull after each (re-)encode, and every later pull indexes the kept
rows.

Two contracts:

* **decode-once** — N pulls of one block run ``decompress_any`` once; a
  ``set_table`` that re-encodes the block costs exactly one more decode,
  and the next pull serves the new payload's rows; a block whose bytes did
  not change keeps its decoded rows; the kept rows are read-only and a
  caller writing into ``pull.rows`` never reaches a later pull;
* **never stale** — over any interleaving of updates (sub-bound deltas,
  ``-0.0``, a rejected NaN table) and pulls, every pull equals
  ``decompress_any(current block)[rows]`` bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import decompress_any
from repro.serve import EmbeddingShardServer
from repro.serve import shard_server as shard_server_module
from tests.conftest import decoded_table

CODECS = [("vector_lz", 1e-2), ("entropy", 1e-2), ("hybrid", 1e-2), ("lz4_like", 0.0)]
STEP = 64
ROWS = 150  # 64-row blocks: two full ones and a ragged tail of 22
DIM = 8


def make_table(rows=ROWS, seed=0):
    table = np.random.default_rng(seed).normal(0.0, 0.1, size=(rows, DIM)).astype(np.float32)
    table[0, 0] = 0.0  # the zero whose sign a "signflip" update toggles
    return table


def make_server(codec, bound, table=None):
    table = make_table() if table is None else table
    return EmbeddingShardServer({0: table}, bound, codec, rows_per_block=STEP)


def count_decodes(monkeypatch):
    """The payloads the shard server hands to ``decompress_any``, in order."""
    calls = []
    real = shard_server_module.decompress_any

    def counted(payload, *args, **kwargs):
        calls.append(payload)
        return real(payload, *args, **kwargs)

    monkeypatch.setattr(shard_server_module, "decompress_any", counted)
    return calls


def expected_rows(server, ids):
    """What decoding the touched blocks as they are stored now gives."""
    blocks = server._table(0).blocks
    decoded = {b: decompress_any(blocks[b]) for b in {i // STEP for i in ids}}
    rows = [decoded[i // STEP][i % STEP] for i in ids]
    return np.array(rows, dtype=np.float32).reshape(len(ids), DIM)


def assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype == np.float32
    np.testing.assert_array_equal(actual.view(np.uint32), expected.view(np.uint32))


@pytest.mark.parametrize("codec,bound", CODECS)
class TestDecodeOnce:
    def test_pulls_of_one_block_decode_it_once(self, monkeypatch, codec, bound):
        server = make_server(codec, bound)
        block = server._table(0).blocks[1]
        calls = count_decodes(monkeypatch)
        requests = [[70], [64, 127], [70], list(range(64, 128)), [100, 65, 100], [127]]
        for ids in requests * 3:
            assert_bitwise_equal(server.pull(0, np.array(ids)).rows, expected_rows(server, ids))
        assert calls == [block]

    def test_pull_and_full_decode_share_the_kept_rows(self, monkeypatch, codec, bound):
        """A full-table decode reads the same kept rows: it decodes only
        the blocks no pull has decoded yet, and a pull after it none."""
        server = make_server(codec, bound)
        blocks = server._table(0).blocks
        calls = count_decodes(monkeypatch)
        server.pull(0, np.array([5, 140]))  # blocks 0 and 2
        full = decoded_table(server, 0)
        assert calls == [blocks[0], blocks[2], blocks[1]]
        assert_bitwise_equal(full, np.concatenate([decompress_any(b) for b in blocks]))
        server.pull(0, np.arange(ROWS))
        assert len(calls) == 3

    def test_a_reencoded_block_decodes_once_more(self, monkeypatch, codec, bound):
        table = make_table()
        server = make_server(codec, bound, table)
        stored = server._table(0)
        calls = count_decodes(monkeypatch)
        server.pull(0, np.array([3, 70]))  # blocks 0 and 1
        kept = stored._decoded[1]
        new = table.copy()
        new[3] += 0.25  # block 0 only
        server.set_table(0, new)
        new_block = stored.blocks[0]
        for _ in range(4):
            pulled = server.pull(0, np.array([3, 10])).rows
            assert_bitwise_equal(pulled, expected_rows(server, [3, 10]))
        assert calls[2:] == [new_block]
        assert_bitwise_equal(server.pull(0, np.array([3])).rows, decompress_any(new_block)[[3]])
        server.pull(0, np.array([70, 71]))  # the unchanged block: no decode
        assert len(calls) == 3
        assert stored._decoded[1] is kept

    def test_an_unchanged_block_keeps_its_kept_rows(self, monkeypatch, codec, bound):
        """Re-publishing equal values, or values changed in another block,
        neither drops nor re-decodes a block's rows."""
        table = make_table()
        server = make_server(codec, bound, table)
        stored = server._table(0)
        decoded_table(server, 0)
        kept = list(stored._decoded)
        calls = count_decodes(monkeypatch)
        server.set_table(0, table.copy())
        new = table.copy()
        new[140] += 0.25  # the ragged tail block only
        server.set_table(0, new)
        assert stored._decoded[0] is kept[0] and stored._decoded[1] is kept[1]
        assert stored._decoded[2] is None
        server.pull(0, np.array([1, 64, 127]))
        assert calls == []

    def test_writing_into_a_pull_never_reaches_a_later_pull(self, codec, bound):
        server = make_server(codec, bound)
        requests = [[70], [64, 65, 64], [3, 70, 149], list(range(ROWS))]
        for ids in requests:
            ids = np.array(ids)
            first = server.pull(0, ids).rows
            before = first.copy()
            first[:] = 7.0
            assert_bitwise_equal(server.pull(0, ids).rows, before)
        assert_bitwise_equal(decoded_table(server, 0)[[70]], expected_rows(server, [70]))

    def test_kept_rows_are_read_only_and_never_handed_out(self, codec, bound):
        server = make_server(codec, bound)
        stored = server._table(0)
        pulls = [server.pull(0, np.array([70])), server.pull(0, np.array([3, 149]))]
        full = decoded_table(server, 0)
        kept = stored._decoded
        assert all(rows is not None and not rows.flags.writeable for rows in kept)
        with pytest.raises(ValueError, match="read-only"):
            kept[1][6] = 0.0
        for rows in [pull.rows for pull in pulls] + [full]:
            assert rows.flags.writeable
            assert not any(np.shares_memory(rows, block_rows) for block_rows in kept)


#: update kinds: an exact no-op, a change below the bound on a few rows, a
#: sign flip of one zero (equal as floats, different bytes), a large change,
#: and a NaN (rejected by the error-bounded codecs, stored by the lossless one)
UPDATES = ("same", "sub_bound", "signflip", "large", "nan")
steps = st.lists(
    st.tuples(st.sampled_from(("pull",) * 3 + UPDATES), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=14,
)


def updated(values, kind, rng, bound):
    new = values.copy()
    if kind == "signflip":
        new[0, 0] = np.float32(0.0) if np.signbit(new[0, 0]) else np.float32(-0.0)
    elif kind == "nan":
        new[rng.integers(ROWS), rng.integers(DIM)] = np.nan
    elif kind != "same":
        rows = rng.choice(ROWS, size=int(rng.integers(1, 6)), replace=False)
        scale = 0.25 * (bound or 1e-6) if kind == "sub_bound" else 0.05
        signs = rng.choice([-1.0, 1.0], size=(len(rows), DIM)).astype(np.float32)
        new[rows] += np.float32(scale) * signs
    return new


def pulled_ids(rng):
    """One block (the common request) or several, repeats allowed."""
    if rng.random() < 0.5:
        block = int(rng.integers(0, -(-ROWS // STEP)))
        stop = min(ROWS, (block + 1) * STEP)
        return rng.integers(block * STEP, stop, size=int(rng.integers(1, 8))).tolist()
    return rng.integers(0, ROWS, size=int(rng.integers(1, 12))).tolist()


class TestNeverStale:
    @settings(max_examples=60, deadline=None)
    @given(codec=st.sampled_from(CODECS), steps=steps)
    def test_every_pull_is_the_current_block_decoded(self, codec, steps):
        name, bound = codec
        values = make_table()
        server = make_server(name, bound, values)
        for kind, seed in steps:
            rng = np.random.default_rng(seed)
            if kind == "pull":
                ids = pulled_ids(rng)
                assert_bitwise_equal(server.pull(0, np.array(ids)).rows, expected_rows(server, ids))
                continue
            new = updated(values, kind, rng, bound)
            if kind == "nan" and bound > 0:
                blocks = list(server._table(0).blocks)
                with pytest.raises(ValueError):
                    server.set_table(0, new)
                assert server._table(0).blocks == blocks
                continue
            server.set_table(0, new)
            values = new
        assert_bitwise_equal(decoded_table(server, 0), expected_rows(server, list(range(ROWS))))
