"""The corruption law: no damaged frame decodes, on any decode path.

Every frame carries a CRC32 of all its bytes but the CRC field, checked
before any other field is read.  For every registered codec this law takes
one small frame and damages it every way one bit or one cut can: each
single-bit flip and each truncation must raise ``CorruptPayloadError``

* through ``decompress_any``, for every codec;
* through ``VectorLZCompressor.decompress_stack``, beside a clean
  vector-LZ frame on either side;
* through ``agg_sum``, beside a clean ``quant_sum`` leaf in both orders.

Before the CRC joined the prelude, the fuzz census decoded 1 434 of its
2 000 corruptions silently wrong; this law fails on any one of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import agg_sum, available_compressors, decompress_any, get_compressor
from repro.compression.serialization import CorruptPayloadError

ERROR_BOUND = 1e-2


def _block() -> np.ndarray:
    """8x4 float32: six normal(0, 0.1) rows, then the first two again (so
    vector-LZ finds matches)."""
    rows = np.random.default_rng(0).normal(0.0, 0.1, size=(6, 4)).astype(np.float32)
    return np.concatenate([rows, rows[:2]])


def _frame(name: str) -> bytes:
    codec = get_compressor(name)
    return codec.compress(_block(), ERROR_BOUND if codec.error_bounded else None)


def _damaged(frame: bytes):
    """``(label, bytes)`` for every single-bit flip, then every truncation."""
    for bit in range(len(frame) * 8):
        flipped = bytearray(frame)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"flip {bit}", bytes(flipped)
    for cut in range(len(frame)):
        yield f"cut {cut}", frame[:cut]


def _escapes(frame: bytes, decode) -> list[str]:
    """The damaged versions of ``frame`` that ``decode`` does not reject
    with ``CorruptPayloadError``, each with what it did instead."""
    escapes = []
    for label, damaged in _damaged(frame):
        try:
            decode(damaged)
        except CorruptPayloadError:
            continue
        except Exception as exc:  # the outcome under test, whatever it is
            escapes.append(f"{label}: {type(exc).__name__}: {exc}"[:160])
        else:
            escapes.append(f"{label}: decoded")
    return escapes


@pytest.mark.parametrize("name", available_compressors())
def test_every_flip_and_cut_is_corrupt_through_decompress_any(name):
    assert _escapes(_frame(name), decompress_any) == []


@pytest.mark.parametrize("side", ["first", "last"])
def test_every_flip_and_cut_is_corrupt_through_decompress_stack(side):
    codec = get_compressor("vector_lz")
    clean = _frame("vector_lz")

    def decode(damaged: bytes):
        return codec.decompress_stack([damaged, clean] if side == "first" else [clean, damaged])

    assert _escapes(clean, decode) == []


@pytest.mark.parametrize("order", ["damaged + clean", "clean + damaged"])
def test_every_flip_and_cut_is_corrupt_through_agg_sum(order):
    leaf = _frame("quant_sum")

    def aggregate(damaged: bytes):
        return agg_sum(damaged, leaf) if order == "damaged + clean" else agg_sum(leaf, damaged)

    assert _escapes(leaf, aggregate) == []


@pytest.mark.parametrize("name", available_compressors())
def test_the_clean_frame_decodes_on_every_path(name):
    """The law's frames are intact: each decodes, and the vector-LZ and
    ``quant_sum`` frames pass their other paths too."""
    frame = _frame(name)
    decoded = decompress_any(frame)
    assert decoded.shape == _block().shape
    if name == "vector_lz":
        stacked = get_compressor(name).decompress_stack([frame, frame])
        assert all(np.array_equal(s, decoded) for s in stacked)
    if name == "quant_sum":
        np.testing.assert_array_equal(decompress_any(agg_sum(frame, frame)), 2 * decoded)
