"""Batched vector-LZ kernels vs the per-slice paths they replace.

``VectorLZCompressor.compress_stack`` / ``decompress_stack`` encode and
decode all slices of an ``(S, n, d)`` stack in one vectorized pass.  The
contract is byte identity: payload ``s`` equals ``compress(stack[s])`` —
which is itself pinned here to the frozen per-slice oracle
(``reference_codecs.reference_vector_lz_encode``: dictionary scan + one
``pack_fixed`` per section) — and the batched decode equals per-payload ``decompress_any`` bit
for bit, on well-formed and on hostile payloads alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import vector_lz
from repro.compression.base import frame_payload, parse_payload
from repro.compression.bitstream import (
    pack_fixed,
    pack_fixed_segments,
    unpack_fixed,
    unpack_fixed_segments,
)
from repro.compression.quantizer import quantize
from repro.compression.registry import decompress_any
from repro.compression.serialization import CorruptPayloadError
from repro.compression.vector_lz import (
    VectorLZCompressor,
    vector_lz_decode_stack,
    vector_lz_encode,
    vector_lz_encode_stack,
)
from tests.compression.reference_codecs import reference_vector_lz_encode


def _reference_compress(array: np.ndarray, error_bound: float, window: int) -> bytes:
    """The payload the pre-batching compressor produced for one slice."""
    codes = quantize(array, error_bound)  # no alphabet cap, like vector-LZ's own
    code_min = int(codes.min()) if codes.size else 0
    encoded = reference_vector_lz_encode(codes - code_min, window)
    meta = {
        "eb": float(error_bound),
        "code_min": code_min,
        "window": encoded.window,
        "n_matches": encoded.n_matches,
        "offset_width": encoded.offset_width,
        "literal_width": encoded.literal_width,
        "flags_len": int(encoded.flags.size),
        "offsets_len": int(encoded.offsets.size),
    }
    body = [encoded.flags, encoded.offsets, encoded.literals]
    return frame_payload("vector_lz", array.shape, array.dtype, meta, body)


def _stack(rng, n_slices, n, d, n_distinct, scale, dtype=np.float32) -> np.ndarray:
    """Slices drawing their rows from per-slice pools of ``n_distinct`` rows
    (so matches recur) at per-slice value scales (so ``code_min`` and
    ``literal_width`` differ between slices)."""
    out = np.empty((n_slices, n, d), dtype=dtype)
    for s in range(n_slices):
        pool = rng.normal(size=(max(1, n_distinct), d)) * scale * (1 + 3 * s)
        out[s] = pool[rng.integers(0, max(1, n_distinct), size=n)]
    return out


def _assert_identical(stack: np.ndarray, error_bound: float, window: int) -> list[bytes]:
    codec = VectorLZCompressor(window=window)
    batched = codec.compress_stack(stack, error_bound)
    assert batched == [codec.compress(s, error_bound) for s in stack]
    assert batched == [_reference_compress(s, error_bound, window) for s in stack]
    decoded = codec.decompress_stack(batched)
    if len(batched) > 0:
        for got, payload in zip(decoded, batched):
            want = decompress_any(payload)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    return batched


class TestBatchIdentity:
    @pytest.mark.parametrize("n_slices", [1, 2, 32])
    @pytest.mark.parametrize("n", [0, 1, 128])
    @pytest.mark.parametrize("d", [1, 7, 64])
    def test_shape_grid(self, n_slices, n, d):
        rng = np.random.default_rng(n_slices * 1000 + n * 10 + d)
        stack = _stack(rng, n_slices, n, d, n_distinct=9, scale=0.1)
        _assert_identical(stack, 0.01, window=255)

    @settings(max_examples=60, deadline=None)
    @given(
        n_slices=st.integers(1, 6),
        n=st.integers(0, 40),
        d=st.integers(1, 9),
        n_distinct=st.integers(1, 40),
        window=st.integers(1, 48),
        log_eb=st.integers(-5, -1),
        seed=st.integers(0, 2**31),
    )
    def test_random_stacks(self, n_slices, n, d, n_distinct, window, log_eb, seed):
        stack = _stack(np.random.default_rng(seed), n_slices, n, d, n_distinct, scale=0.3)
        _assert_identical(stack, 10.0**log_eb, window)

    def test_window_smaller_than_batch(self):
        rng = np.random.default_rng(3)
        stack = _stack(rng, 4, 128, 8, n_distinct=5, scale=0.1)
        # A row's nearest twin further back than the window is a literal
        # again, yet still refreshes the "last seen" position.
        payloads = _assert_identical(stack, 0.01, window=3)
        assert any(parse_payload(p)[0]["n_matches"] < 123 for p in payloads)

    def test_all_identical_and_all_distinct_rows(self):
        same = np.full((3, 64, 16), 0.25, dtype=np.float32)
        for payload in _assert_identical(same, 0.01, window=255):
            assert parse_payload(payload)[0]["n_matches"] == 63
        distinct = np.arange(3 * 64 * 16, dtype=np.float32).reshape(3, 64, 16)
        for payload in _assert_identical(distinct, 0.25, window=255):
            assert parse_payload(payload)[0]["n_matches"] == 0

    def test_float64_input(self):
        stack = _stack(np.random.default_rng(5), 3, 32, 7, 6, 0.1, dtype=np.float64)
        payloads = _assert_identical(stack, 1e-3, window=255)
        assert VectorLZCompressor().decompress_stack(payloads)[0].dtype == np.float64

    def test_mixed_and_wide_literal_widths(self):
        # Tight bound + growing per-slice scale: widths differ per slice
        # and exceed one byte, and 7 * width is not a multiple of 8.
        stack = _stack(np.random.default_rng(6), 5, 24, 7, 20, scale=1.0)
        payloads = _assert_identical(stack, 1e-4, window=255)
        widths = {parse_payload(p)[0]["literal_width"] for p in payloads}
        assert len(widths) > 1 and max(widths) > 8

    def test_views_and_non_contiguous_stack(self):
        table = _stack(np.random.default_rng(7), 1, 256, 16, 12, 0.1)[0]
        strided = np.stack([table[lo : lo + 64] for lo in range(0, 256, 64)])[:, ::2]
        assert not strided.flags["C_CONTIGUOUS"]
        _assert_identical(strided, 0.01, window=255)

    def test_forced_hash_collisions_use_exact_fallback(self, monkeypatch):
        monkeypatch.setattr(
            vector_lz, "_hash_multipliers", lambda dim: np.zeros(dim, dtype=np.uint64)
        )
        rng = np.random.default_rng(8)
        _assert_identical(_stack(rng, 4, 64, 8, n_distinct=6, scale=0.1), 0.01, window=255)
        _assert_identical(_stack(rng, 3, 40, 5, n_distinct=40, scale=0.1), 0.01, window=7)

    def test_kernel_level_stack_equals_per_slice(self):
        rng = np.random.default_rng(9)
        codes = rng.integers(0, 9, size=(6, 30, 5))
        codes[:, 10:20] = codes[:, 0:10]
        streams = vector_lz_encode_stack(codes)
        for s, stream in enumerate(streams):
            single = vector_lz_encode(codes[s])
            oracle = reference_vector_lz_encode(codes[s])
            for other in (single, oracle):
                assert stream.flags.tobytes() == other.flags.tobytes()
                assert stream.offsets.tobytes() == other.offsets.tobytes()
                assert stream.literals.tobytes() == other.literals.tobytes()
                assert (stream.n_matches, stream.literal_width) == (
                    other.n_matches,
                    other.literal_width,
                )
        np.testing.assert_array_equal(vector_lz_decode_stack(streams), codes)


class TestBatchErrors:
    def test_validation_matches_per_slice(self):
        codec = VectorLZCompressor()
        good = np.zeros((2, 4, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="3-D"):
            codec.compress_stack(good[0], 0.1)
        with pytest.raises(TypeError, match="float32/float64"):
            codec.compress_stack(good.astype(np.int32), 0.1)
        with pytest.raises(ValueError, match="positive error_bound"):
            codec.compress_stack(good, 0.0)
        bad = good.copy()
        bad[1, 2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN/inf"):
            codec.compress_stack(bad, 0.1)

    def test_alphabet_cap_is_per_slice(self):
        codec = VectorLZCompressor()
        stack = np.zeros((2, 2, 2), dtype=np.float64)
        stack[1, 0, 0], stack[1, 1, 1] = -1e15, 1e15  # 1e18 bins > 2**57, inside int64
        with pytest.raises(ValueError, match="alphabet"):
            codec.compress(stack[1], 1e-3)
        with pytest.raises(ValueError, match="alphabet"):
            codec.compress_stack(stack, 1e-3)

    def test_non_stack_batches_decline(self):
        from repro.compression.entropy import EntropyCompressor
        from repro.compression.serialization import frame_with_checksum

        codec = VectorLZCompressor()
        rows = _stack(np.random.default_rng(10), 1, 16, 4, 5, 0.1)[0]
        lz = codec.compress(rows, 0.01)
        assert codec.decompress_stack([]) is None
        assert codec.decompress_stack([EntropyCompressor().compress(rows, 0.01), lz]) is None
        assert codec.decompress_stack([lz, codec.compress(rows[:8], 0.01)]) is None
        assert codec.decompress_stack([lz, codec.compress(rows.astype(np.float64), 0.01)]) is None
        assert codec.decompress_stack([frame_with_checksum(lz), lz]) is None
        assert codec.decompress_stack([b"", lz]) is None


def _reframe(payload: bytes, **overrides) -> bytes:
    """Rebuild a vector-LZ frame with header fields and/or body replaced."""
    header, body = parse_payload(payload)
    body = overrides.pop("body", bytes(body))
    meta = {k: v for k, v in header.items() if k not in ("codec", "dtype", "shape")}
    meta.update(overrides)
    return frame_payload("vector_lz", tuple(header["shape"]), np.dtype(header["dtype"]), meta, body)


class TestHostilePayloads:
    def _payloads(self):
        rng = np.random.default_rng(11)
        stack = _stack(rng, 3, 16, 4, n_distinct=4, scale=0.1)
        return VectorLZCompressor().compress_stack(stack, 0.01)

    def test_back_reference_may_not_leave_its_slice(self):
        codec = VectorLZCompressor()
        payloads = self._payloads()
        header, body = parse_payload(payloads[1])
        flags_len, n_matches = header["flags_len"], header["n_matches"]
        assert n_matches > 0
        # Point the first match of slice 1 far before its own row 0: in the
        # global row index that lands inside slice 0.
        body = bytearray(body)
        first_match = int(np.flatnonzero(np.unpackbits(np.frombuffer(body[:flags_len], np.uint8)))[0])
        body[flags_len] = first_match + 5
        hostile = _reframe(payloads[1], body=bytes(body))
        with pytest.raises(ValueError, match="back-reference before row 0"):
            decompress_any(hostile)
        with pytest.raises(ValueError, match="back-reference before row 0"):
            codec.decompress_stack([payloads[0], hostile, payloads[2]])

    def test_truncated_sections_are_too_short(self):
        codec = VectorLZCompressor()
        payloads = self._payloads()
        for cut in (1, 3):
            short = payloads[2][:-cut]  # literal section loses its tail
            with pytest.raises(ValueError, match="stream too short"):
                decompress_any(short)
            with pytest.raises(ValueError, match="stream too short"):
                codec.decompress_stack([payloads[0], payloads[1], short])
        header, body = parse_payload(payloads[0])
        assert header["n_matches"] > 1
        # Offsets section declared one byte shorter than its matches need.
        clipped = _reframe(payloads[0], offsets_len=header["offsets_len"] - 1)
        with pytest.raises(ValueError, match="stream too short"):
            decompress_any(clipped)
        with pytest.raises(ValueError, match="stream too short"):
            codec.decompress_stack([clipped, payloads[1]])

    def test_flag_count_must_match_header(self):
        codec = VectorLZCompressor()
        payloads = self._payloads()
        header, body = parse_payload(payloads[0])
        # Padded so the literal section holds the extra row the lie declares.
        lying = _reframe(payloads[0], n_matches=header["n_matches"] - 1, body=bytes(body) + bytes(64))
        with pytest.raises(CorruptPayloadError, match="flag map marks"):
            decompress_any(lying)
        with pytest.raises(CorruptPayloadError, match="flag map marks"):
            codec.decompress_stack([lying, payloads[1]])

    def test_self_reference_is_unresolvable(self):
        codec = VectorLZCompressor()
        payloads = self._payloads()
        header, body = parse_payload(payloads[0])
        body = bytearray(body)
        body[header["flags_len"]] = 0  # offset 0: the row copies itself
        looping = _reframe(payloads[0], body=bytes(body))
        with pytest.raises(ValueError, match="unresolvable match chain"):
            decompress_any(looping)
        with pytest.raises(ValueError, match="unresolvable match chain"):
            codec.decompress_stack([looping, payloads[1]])


class TestSegmentPacking:
    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(1, 57),
        counts=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        seed=st.integers(0, 2**31),
    )
    def test_segments_equal_independent_packs(self, width, counts, seed):
        rng = np.random.default_rng(seed)
        runs = [rng.integers(0, 1 << width, size=c, dtype=np.uint64) for c in counts]
        packed, bounds = pack_fixed_segments(np.concatenate(runs), width, counts)
        segments = [packed[bounds[s] : bounds[s + 1]] for s in range(len(runs))]
        for run, segment in zip(runs, segments):
            assert segment.tobytes() == pack_fixed(run, width)[0].tobytes()
        values = unpack_fixed_segments(segments, counts, width)
        np.testing.assert_array_equal(values, np.concatenate(runs))
        for run, segment in zip(runs, segments):
            np.testing.assert_array_equal(unpack_fixed(segment, run.size, width), run)

    def test_width_and_fit_errors(self):
        with pytest.raises(ValueError, match=r"width must be in \[0, 57\]"):
            pack_fixed_segments(np.zeros(2, np.uint64), 58, [2])
        with pytest.raises(ValueError, match="does not fit"):
            pack_fixed_segments(np.array([8], np.uint64), 3, [1])
        with pytest.raises(ValueError, match="stream too short: need 24 bits, have 16"):
            unpack_fixed_segments([np.zeros(4, np.uint8), np.zeros(2, np.uint8)], [2, 3], 8)
        packed, bounds = pack_fixed_segments(np.zeros(3, np.uint64), 0, [1, 2])
        assert packed.size == 0 and bounds.tolist() == [0, 0, 0]
