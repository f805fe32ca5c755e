"""A shard pull is its blocks decoded whole and indexed — for every codec.

The one decode path (``decompress_any(block)``, kept per payload) serves
every registered codec, so the row-selection law is stated once per codec
against an oracle that decodes each stored block afresh:

* **indexing** — over tables whose rows are distinct, few and repeated, or
  all equal (the shapes of stream that give vector-LZ its longest
  back-reference chains), any set of ids (empty, one, unsorted with
  duplicates, every row descending, unsigned) pulls exactly
  ``concat(decompress_any(b) for b in blocks)[ids]``, bit for bit, with
  the accounting of the touched blocks;
* **contract** — what a pull returns keeps the codec's promise: lossless
  codecs give the stored table back bit for bit, error-bounded ones stay
  within the table's bound, and the other lossy codecs give what a fresh
  instance of the codec round-trips from the same raw rows;
* **rejection** — ids outside the table or not 1-D are refused before
  anything is read, and the table keeps serving.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import available_compressors, decompress_any, get_compressor
from repro.serve import EmbeddingShardServer

BOUND = 1e-2


def _table(kind: str, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "constant":  # one literal, every other row a match
        return np.full((n, d), 0.25, dtype=np.float32)
    if kind == "hot":  # a few distinct rows, long back-reference chains
        return rng.normal(0.0, 0.1, size=(3, d))[rng.integers(0, 3, size=n)].astype(np.float32)
    return rng.normal(0.0, 0.1, size=(n, d)).astype(np.float32)


def _id_sets(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    few = rng.integers(0, n, size=int(rng.integers(1, 12)))
    return [
        np.zeros(0, dtype=np.int64),
        np.array([n - 1]),
        few,  # unsorted
        np.repeat(few[:2], 2),  # duplicated
        np.arange(n - 1, -1, -1),  # every row, descending
        np.arange(n, dtype=np.uint16),
    ]


def _block_decodes(server: EmbeddingShardServer) -> list[np.ndarray]:
    """Each stored block decoded afresh, not through the kept rows."""
    return [decompress_any(block) for block in server._table(0).blocks]


@pytest.mark.parametrize("codec", available_compressors())
class TestEveryCodecPull:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 130),
        d=st.integers(1, 16),
        step=st.sampled_from([1, 7, 64]),
        kind=st.sampled_from(["gaussian", "hot", "constant"]),
        seed=st.integers(0, 2**31),
    )
    def test_pull_equals_the_block_decodes_indexed(self, codec, n, d, step, kind, seed):
        rng = np.random.default_rng(seed)
        server = EmbeddingShardServer({0: _table(kind, n, d, rng)}, BOUND, codec, step)
        blocks = server._table(0).blocks
        decoded = _block_decodes(server)
        full = np.concatenate(decoded, axis=0)
        assert full.shape == (n, d)
        for ids in _id_sets(n, rng):
            pull = server.pull(0, ids)
            expected = full[ids]
            assert pull.rows.dtype == np.float32
            assert pull.rows.shape == expected.shape
            assert pull.rows.tobytes() == expected.tobytes(), ids.tolist()
            touched = sorted({int(i) // step for i in ids})
            assert pull.blocks_touched == len(touched)
            assert pull.compressed_nbytes == sum(len(blocks[b]) for b in touched)
            assert pull.raw_nbytes == sum(decoded[b].nbytes for b in touched)

    def test_pull_keeps_the_codec_contract(self, codec):
        """150 rows in 64-row blocks: two full blocks and a short one of 22."""
        table = np.random.default_rng(1).normal(0.0, 0.1, size=(150, 8)).astype(np.float32)
        server = EmbeddingShardServer({0: table}, BOUND, codec, rows_per_block=64)
        rows = server.pull(0, np.arange(150)).rows
        reference = get_compressor(codec)
        if not reference.lossy:
            assert rows.tobytes() == table.tobytes()
        elif reference.error_bounded:
            assert np.max(np.abs(rows.astype(np.float64) - table)) <= BOUND
        else:
            blocks = [table[b : b + 64] for b in range(0, 150, 64)]
            expected = [reference.decompress(reference.compress(b, BOUND)) for b in blocks]
            assert rows.tobytes() == np.concatenate(expected, axis=0).tobytes()


class TestRejectedIds:
    @pytest.fixture
    def server(self) -> EmbeddingShardServer:
        table = np.random.default_rng(2).normal(0.0, 0.1, size=(12, 4)).astype(np.float32)
        return EmbeddingShardServer({0: table}, BOUND, "vector_lz", rows_per_block=5)

    def test_out_of_range_ids_raise_index_error(self, server):
        before = server.pull(0, np.arange(12)).rows
        # one id (the single-row branch), one block, several blocks, every row + 1
        for bad in ([12], [-1], [-13], [3, 12], [0, 5, 12], [-1, 11], list(range(13))):
            with pytest.raises(IndexError, match=r"out of range \[0, 12\)"):
                server.pull(0, np.array(bad))
        np.testing.assert_array_equal(server.pull(0, np.arange(12)).rows, before)

    def test_ids_must_be_one_dimensional(self, server):
        for bad in (np.array([[0, 1]]), np.zeros((2, 1), dtype=np.int64), np.int64(3)):
            with pytest.raises(ValueError, match="row_ids must be 1-D"):
                server.pull(0, bad)
