"""``decompress_any(payload, rows=...)``: the row selector of the one decode
entry point.

One law for every registered codec — ``decompress_any(p, rows)`` is
``decompress_any(p)[rows]`` bit for bit — plus, for the two codecs that
really decode row by row (vector-LZ, entropy), the differential oracle
against the frozen seed decoders and the decoder contract on hostile bytes:
a row decode ends, and fails with ``ValueError``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import available_compressors, decompress_any, get_compressor
from repro.compression.base import ROW_DECODE_MAX_ROWS, frame_payload, parse_payload
from repro.compression.huffman import (
    HuffmanEncoded,
    _reference_huffman_decode,
    huffman_decode,
    huffman_decode_rows,
    huffman_encode,
)
from repro.compression.serialization import frame_with_checksum
from repro.compression.vector_lz import (
    _reference_vector_lz_decode,
    vector_lz_decode_rows,
    vector_lz_encode,
)

#: beside every registered codec at its defaults: the shapes of stream the
#: row kernels find hardest — every match one row back (the longest chains),
#: and chunks so short that a row straddles several of them
VARIANTS = (("vector_lz", {"window": 1}), ("entropy", {"chunk_symbols": 37}))


def _codecs():
    named = [(name, {}) for name in available_compressors()]
    return [(name, get_compressor(name, **kwargs)) for name, kwargs in (*named, *VARIANTS)]


def _table(kind: str, n: int, d: int, dtype, rng: np.random.Generator) -> np.ndarray:
    if kind == "constant":  # one literal, every other row a match
        return np.full((n, d), 0.25, dtype=dtype)
    if kind == "hot":  # a few distinct rows, long back-reference chains
        return rng.normal(0.0, 0.1, size=(3, d))[rng.integers(0, 3, size=n)].astype(dtype)
    return rng.normal(0.0, 0.1, size=(n, d)).astype(dtype)


def _row_sets(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    few = rng.integers(-n, n, size=int(rng.integers(1, ROW_DECODE_MAX_ROWS)))
    return [
        np.zeros(0, dtype=np.int64),
        np.array([n - 1]),
        few,  # below the crossover: unsorted, negative from the end
        np.repeat(few[:2], 2),  # duplicated
        np.arange(n - 1, -1, -1),  # every row, descending: past the crossover for most n
        np.arange(n, dtype=np.uint16),
    ]


class TestRegistryWideLaw:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 130),
        d=st.integers(1, 64),
        dtype=st.sampled_from([np.float32, np.float64]),
        kind=st.sampled_from(["gaussian", "hot", "constant"]),
        checksum=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_rows_equal_the_full_decode_indexed(self, n, d, dtype, kind, checksum, seed):
        rng = np.random.default_rng(seed)
        table = _table(kind, n, d, dtype, rng)
        row_sets = _row_sets(n, rng)
        for name, codec in _codecs():
            payload = codec.compress(table, 0.01 if codec.error_bounded else None)
            if checksum:
                payload = frame_with_checksum(payload)
            full = decompress_any(payload)
            for rows in row_sets:
                picked = decompress_any(payload, rows=rows)
                expected = full[rows]
                assert picked.dtype == expected.dtype, name
                assert picked.shape == expected.shape, name
                assert picked.tobytes() == expected.tobytes(), (name, rows.tolist())

    def test_out_of_range_rows_raise_index_error(self):
        table = np.random.default_rng(0).normal(0.0, 0.1, size=(12, 4)).astype(np.float32)
        for name, codec in _codecs():
            payload = codec.compress(table, 0.01 if codec.error_bounded else None)
            for bad in ([12], [-13], [0, 5, 12], list(range(13))):
                with pytest.raises(IndexError):
                    decompress_any(payload, rows=np.array(bad))

    def test_rows_must_be_one_dimensional_integers(self):
        payload = get_compressor("vector_lz").compress(np.zeros((4, 2), np.float32), 0.01)
        for bad in (np.array([[0, 1]]), np.array([0.0]), np.array([True, False, True, False])):
            with pytest.raises(TypeError, match="1-D integer"):
                decompress_any(payload, rows=bad)

    def test_row_codecs_are_the_two_real_kernels(self):
        """Which codecs decode row by row is a class attribute beside
        ``lossy`` / ``error_bounded``; hybrid frames carry the inner
        codec's name, so they reach those two."""
        flagged = {name for name, codec in _codecs() if codec.decodes_rows}
        assert flagged == {"vector_lz", "entropy"}
        hybrid = get_compressor("hybrid").compress(np.zeros((4, 2), np.float32), 0.01)
        assert parse_payload(hybrid)[0]["codec"] in flagged


class TestDifferentialOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 130),
        d=st.integers(0, 20),
        distinct=st.integers(1, 6),
        alphabet=st.sampled_from([1, 2, 37, 1 << 20, 1 << 56]),
        window=st.sampled_from([1, 3, 255]),
        seed=st.integers(0, 2**31),
    )
    def test_vector_lz_rows_match_the_seed_decoder(self, n, d, distinct, alphabet, window, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, alphabet, size=(distinct, d))[rng.integers(0, distinct, size=n)]
        encoded = vector_lz_encode(codes, window)
        reference = _reference_vector_lz_decode(encoded)
        rows = rng.integers(0, n, size=int(rng.integers(0, 12))).tolist()
        picked = vector_lz_decode_rows(encoded, rows)
        assert picked.dtype == np.int64
        np.testing.assert_array_equal(picked, reference[rows])
        np.testing.assert_array_equal(vector_lz_decode_rows(encoded, list(range(n))), reference)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 20),
        alphabet=st.integers(1, 300),
        chunk_symbols=st.sampled_from([1, 7, 64, 4096]),
        seed=st.integers(0, 2**31),
    )
    def test_huffman_rows_match_the_seed_decoder(self, n, d, alphabet, chunk_symbols, seed):
        rng = np.random.default_rng(seed)
        # a skewed alphabet, so code lengths differ
        symbols = np.minimum(rng.zipf(1.4, size=n * d) - 1, alphabet - 1)
        encoded = huffman_encode(symbols, alphabet, chunk_symbols=chunk_symbols)
        reference = _reference_huffman_decode(encoded).reshape(n, d)
        rows = rng.integers(0, n, size=int(rng.integers(0, 12))).tolist()
        picked = huffman_decode_rows(encoded, rows, d)
        assert picked.dtype == np.int64
        np.testing.assert_array_equal(picked, reference[rows])
        np.testing.assert_array_equal(huffman_decode_rows(encoded, list(range(n)), d), reference)


def _reframe(payload: bytes, **overrides) -> bytes:
    """Rebuild a frame with header fields and/or the body replaced."""
    header, body = parse_payload(payload)
    body = overrides.pop("body", bytes(body))
    shape = overrides.pop("shape", tuple(header["shape"]))
    meta = {k: v for k, v in header.items() if k not in ("codec", "dtype", "shape")}
    meta.update(overrides)
    return frame_payload(header["codec"], shape, np.dtype(header["dtype"]), meta, body)


def _first_match(payload: bytes) -> int:
    header, body = parse_payload(payload)
    flags = np.unpackbits(np.frombuffer(body[: header["flags_len"]], np.uint8))
    return int(np.flatnonzero(flags)[0])


class TestHostileVectorLZ:
    """Every corruption the block decoder names is named by a row decode
    of the affected row too, as the same ``ValueError``."""

    @pytest.fixture()
    def payload(self):
        rng = np.random.default_rng(11)
        table = rng.normal(0.0, 0.1, size=(4, 6))[rng.integers(0, 4, size=24)].astype(np.float32)
        return get_compressor("vector_lz").compress(table, 0.01)

    def test_a_zero_back_reference_ends_the_walk(self, payload):
        """Offset 0 makes a row copy itself: the naive chain walk would
        spin on it for ever."""
        header, body = parse_payload(payload)
        body = bytearray(body)
        body[header["flags_len"]] = 0
        looping = _reframe(payload, body=bytes(body))
        with pytest.raises(ValueError, match="unresolvable match chain"):
            decompress_any(looping, rows=np.array([_first_match(payload)]))
        with pytest.raises(ValueError, match="unresolvable match chain"):
            decompress_any(looping)

    def test_a_back_reference_may_not_leave_the_block(self, payload):
        header, body = parse_payload(payload)
        row = _first_match(payload)
        body = bytearray(body)
        body[header["flags_len"]] = row + 5
        hostile = _reframe(payload, body=bytes(body))
        with pytest.raises(ValueError, match="back-reference before row 0"):
            decompress_any(hostile, rows=np.array([row]))
        with pytest.raises(ValueError, match="back-reference before row 0"):
            decompress_any(hostile)

    def test_flag_count_must_match_the_header(self, payload):
        header, _ = parse_payload(payload)
        lying = _reframe(payload, n_matches=header["n_matches"] - 1)
        with pytest.raises(ValueError, match="flag map marks"):
            decompress_any(lying, rows=np.array([0]))

    def test_short_sections_are_too_short(self, payload):
        header, _ = parse_payload(payload)
        for hostile in (
            payload[:-3],  # the literal section loses its tail
            _reframe(payload, offsets_len=header["offsets_len"] - 1),
            _reframe(payload, offset_width=40),
        ):
            with pytest.raises(ValueError, match="stream too short"):
                decompress_any(hostile, rows=np.array([0]))
        with pytest.raises(ValueError, match=r"width must be in \[0, 57\]"):
            decompress_any(_reframe(payload, literal_width=58), rows=np.array([0]))

    def test_section_lengths_are_checked_against_the_body(self, payload):
        _, body = parse_payload(payload)
        too_long = ({"flags_len": len(body) + 1}, {"offsets_len": len(body)}, {"flags_len": -1})
        for overrides in too_long:
            hostile = _reframe(payload, **overrides)
            with pytest.raises(ValueError, match="flag and offset bytes"):
                decompress_any(hostile, rows=np.array([0]))
            with pytest.raises(ValueError, match="flag and offset bytes"):
                decompress_any(hostile)

    def test_a_declared_shape_the_bytes_cannot_hold_allocates_nothing(self, payload):
        """2**40 declared rows: the row decode must answer from the bytes
        present (the block decoder would try to allocate the flag map)."""
        with pytest.raises(ValueError, match="stream too short"):
            decompress_any(_reframe(payload, shape=(1 << 40, 6)), rows=np.array([1 << 39]))
        with pytest.raises(ValueError, match="not an int64"):
            decompress_any(_reframe(payload, code_min=1 << 64), rows=np.array([0]))


class TestHostileHuffman:
    @pytest.fixture()
    def payload(self):
        table = np.random.default_rng(5).normal(0.0, 0.05, size=(24, 6)).astype(np.float32)
        return get_compressor("entropy", chunk_symbols=50).compress(table, 0.01)

    def test_a_zero_step_is_an_unassigned_code(self):
        """Lengths (1, 2) leave the prefix ``11`` without a code: the first
        peek of an all-ones payload steps by zero."""
        gap = HuffmanEncoded(
            payload=np.full(4, 0xFF, dtype=np.uint8),
            code_lengths=np.array([1, 2]),
            chunk_bit_offsets=np.zeros(1, dtype=np.uint64),
            chunk_symbol_counts=np.array([8]),
            total_symbols=8,
        )
        for rows in ([0], [3], [1, 2]):
            with pytest.raises(ValueError, match="peek hit an unassigned code"):
                huffman_decode_rows(gap, rows, 2)
        with pytest.raises(ValueError, match="peek hit an unassigned code"):
            huffman_decode(gap)

    def test_a_walk_that_runs_off_the_bits_is_an_unassigned_code(self, payload):
        header, body = parse_payload(payload)
        half = _reframe(  # one chunk claiming every symbol, over half the bits
            payload,
            body=bytes(body[: len(body) // 2]),
            chunk_bit_offsets=header["chunk_bit_offsets"][:1],
            chunk_symbol_counts=np.array([24 * 6]),
        )
        with pytest.raises(ValueError, match="peek hit an unassigned code"):
            decompress_any(half, rows=np.array([23]))

    def test_chunk_table_is_checked_against_the_body(self, payload):
        header, body = parse_payload(payload)
        offsets = header["chunk_bit_offsets"].copy()
        offsets[1] = len(body) * 8 + 1
        with pytest.raises(ValueError, match="chunk offset outside payload"):
            decompress_any(_reframe(payload, chunk_bit_offsets=offsets), rows=np.array([0]))
        counts = header["chunk_symbol_counts"].copy()
        counts[0] = 0
        with pytest.raises(ValueError, match="chunk without symbols"):
            decompress_any(_reframe(payload, chunk_symbol_counts=counts), rows=np.array([0]))
        with pytest.raises(ValueError, match="fewer symbols than rows"):
            decompress_any(
                _reframe(
                    payload,
                    chunk_symbol_counts=header["chunk_symbol_counts"][:-1],
                    chunk_bit_offsets=header["chunk_bit_offsets"][:-1],
                ),
                rows=np.array([23]),
            )
        with pytest.raises(ValueError, match="no chunks"):
            decompress_any(
                _reframe(payload, chunk_bit_offsets=np.zeros(0, np.uint64)), rows=np.array([0])
            )

    def test_a_declared_shape_the_symbols_cannot_fill_allocates_nothing(self, payload):
        with pytest.raises(ValueError, match="cannot fill shape"):
            decompress_any(_reframe(payload, shape=(1 << 40, 6)), rows=np.array([1 << 39]))
        with pytest.raises(ValueError, match="not an int64"):
            decompress_any(_reframe(payload, code_min=-(1 << 64)), rows=np.array([0]))
