"""Failure-injection tests: corrupt and truncated payloads.

A compressor used inside a training loop must fail loudly on mangled
input — silently decoding garbage would corrupt the model.  These tests
verify that every codec raises a Python-level exception (never hangs,
never returns a wrong-shaped array) for a family of corruptions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import available_compressors, decompress_any, get_compressor
from repro.compression.base import MAGIC, parse_payload
from tests.conftest import make_hot_batch


#: through ``decompress_any(..., rows=)``: one row (a row-kernel walk), a few
#: unsorted ones, and every row (the full decode, indexed)
ROW_SETS = (np.array([0]), np.array([127, 5, 64]), np.arange(128))


def _check_row_decodes(original: bytes, mangled: bytes, shape: tuple[int, int]) -> None:
    """The same mangled bytes through the row selector: rows of the declared
    width or a ``ValueError`` (``CorruptPayloadError`` is one) — never a
    hang, never a failure class the full decode does not have.

    Bytes that reach a row kernel (header intact, vector-LZ or entropy frame)
    get exactly that.  A mangled *header* fails in the tagged-dict parser
    first, in that parser's own ways (``IndexError``, ``KeyError``, ...:
    ROADMAP direction 2), and a codec without a row kernel decodes the whole
    frame as before; there the demand is that the row decode fails the way
    the full decode of the same bytes does.
    """
    header, body = parse_payload(original)
    body_start = len(original) - len(body)
    header_intact = mangled[:body_start] == original[:body_start]
    strict = header_intact and get_compressor(header["codec"]).decodes_rows
    try:
        full = decompress_any(mangled)
    except Exception as exc:
        full = exc
    for rows in ROW_SETS:
        try:
            picked = decompress_any(mangled, rows=rows)
        except ValueError:
            continue
        except Exception as exc:
            assert not strict and type(exc) is type(full), (header["codec"], rows, exc, full)
            continue
        assert picked.shape == (rows.size, shape[1]), header["codec"]


@pytest.fixture(scope="module")
def payloads():
    rng = np.random.default_rng(99)
    batch = make_hot_batch(rng, batch=128, dim=16)
    out = {}
    for name in available_compressors():
        codec = get_compressor(name)
        out[name] = (codec, codec.compress(batch, 0.01 if codec.error_bounded else None), batch)
    return out


class TestCorruptPayloads:
    def test_bad_magic_rejected_every_codec(self, payloads):
        for name, (codec, payload, _) in payloads.items():
            mangled = bytes([MAGIC ^ 0xFF]) + payload[1:]
            with pytest.raises(ValueError, match="magic"):
                codec.decompress(mangled)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            decompress_any(b"")

    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
    def test_truncation_never_hangs_or_misshapes(self, payloads, fraction):
        """Truncated payloads raise; they never return a wrong result."""
        for name, (codec, payload, batch) in payloads.items():
            cut = max(1, int(len(payload) * fraction))
            truncated = payload[:cut]
            _check_row_decodes(payload, truncated, batch.shape)
            try:
                result = codec.decompress(truncated)
            except Exception:
                continue  # loud failure: exactly what we want
            # If decode "succeeded", framing must have been complete and the
            # shape contract must still hold.
            assert result.shape == batch.shape, name

    def test_header_tag_corruption_rejected(self, payloads):
        codec, payload, _ = payloads["entropy"]
        # Flip a byte inside the header region (just past the magic byte).
        mangled = bytearray(payload)
        mangled[1] ^= 0xFF
        with pytest.raises(Exception):
            codec.decompress(bytes(mangled))

    def test_cross_codec_payload_rejected(self, payloads):
        lz_codec, lz_payload, _ = payloads["vector_lz"]
        entropy_codec, _, _ = payloads["entropy"]
        with pytest.raises(ValueError, match="produced by codec"):
            entropy_codec.decompress(lz_payload)

    def test_parse_payload_roundtrip_headers(self, payloads):
        for name, (_, payload, batch) in payloads.items():
            header, body = parse_payload(payload)
            assert tuple(int(s) for s in header["shape"]) == batch.shape
            assert len(body) <= len(payload)

    def test_body_bitflip_huffman_detected_or_bounded(self, payloads):
        """A flipped bit in the entropy body either raises or decodes to the
        declared shape (the jump-chain guard prevents hangs)."""
        codec, payload, batch = payloads["entropy"]
        header, body = parse_payload(payload)
        body_start = len(payload) - len(body)
        for offset in (0, len(body) // 2, len(body) - 1):
            mangled = bytearray(payload)
            mangled[body_start + offset] ^= 0x55
            _check_row_decodes(payload, bytes(mangled), batch.shape)
            try:
                result = codec.decompress(bytes(mangled))
            except Exception:
                continue
            assert result.shape == batch.shape

    @pytest.mark.parametrize("name", ["vector_lz", "entropy"])
    def test_body_corruption_reaches_the_row_kernels_typed(self, payloads, name):
        """Seeded sweep of body bit flips and overwritten bytes over the two
        codecs that decode row by row: the header parses, so every outcome
        is the row kernel's own — declared-width rows or ``ValueError``."""
        _, payload, batch = payloads[name]
        body_start = len(payload) - len(parse_payload(payload)[1])
        rng = np.random.default_rng(7)
        for trial in range(150):
            mangled = bytearray(payload)
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(body_start, len(payload)))
                flipped = mangled[at] ^ (1 << int(rng.integers(8)))
                mangled[at] = int(rng.integers(256)) if trial % 2 else flipped
            _check_row_decodes(payload, bytes(mangled), batch.shape)
