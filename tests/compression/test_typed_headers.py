"""The typed-header law: a header field of the wrong type is corrupt.

For every registered codec, every header field its encoder writes, and
each wrong-typed value of that field's kind — ``1.5``, ``'x'`` or
``2**70`` for an int, ``'x'`` or an array for a float, ``1`` or ``'x'`` for
an array — the re-framed payload goes through every decode path of its
codec: ``decompress_any``, ``VectorLZCompressor.decompress_stack`` (alone
and beside a clean frame) and :func:`agg_sum` in both operand orders for
the homomorphic ``quant_sum`` (its result decoded by ``decompress_any``).  Each
path either raises ``CorruptPayloadError`` or, when it reads nothing of
that field, decodes bit-identically to the clean payload: never an untyped
exception and never a silently different decode.

String fields (``codec``, ``dtype``, ``cdtype``) are parsed as names, not
typed as numbers; their checks live beside the reads and in
``test_robustness.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import available_compressors, decompress_any, get_compressor
from repro.compression.base import frame_payload, parse_payload
from repro.compression.homomorphic import agg_sum
from repro.compression.serialization import CorruptPayloadError

ERROR_BOUND = 1e-2

#: the wrong-typed values of each field kind, keyed by the type the
#: encoder writes
WRONG_VALUES = {
    int: (1.5, "x", 2**70),
    float: ("x", np.arange(3, dtype=np.float64)),
    np.ndarray: (1, "x"),
}


def _block() -> np.ndarray:
    """64x32 float32: 54 normal(0, 0.1) rows, then the first 10 again (so
    vector-LZ finds matches)."""
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 0.1, size=(54, 32)).astype(np.float32)
    return np.concatenate([rows, rows[:10]])


def _payload(name: str) -> bytes:
    codec = get_compressor(name)
    return codec.compress(_block(), ERROR_BOUND if codec.error_bounded else None)


def _reframe(payload: bytes, key: str, value) -> bytes:
    """``payload`` framed anew with header field ``key`` set to ``value``
    (a framing field such as ``shape`` included: the meta entry overrides
    it in place)."""
    header, body = parse_payload(payload)
    meta = {k: v for k, v in header.items() if k not in ("codec", "dtype", "shape")}
    meta[key] = value
    shape = tuple(header["shape"].tolist())
    return frame_payload(header["codec"], shape, np.dtype(header["dtype"]), meta, bytes(body))


def _decode_paths(name: str, good: bytes):
    """``(label, decode)`` pairs: each ``decode`` maps a frame of ``name``
    to an array through one path."""
    paths = [("decompress_any", decompress_any)]
    if name == "vector_lz":
        codec = get_compressor(name)
        paths += [
            ("decompress_stack alone", lambda p: codec.decompress_stack([p])[0]),
            ("decompress_stack beside a clean frame", lambda p: codec.decompress_stack([p, good])[0]),
        ]
    if name == "quant_sum":
        paths += [
            ("agg_sum(bad, good)", lambda p: decompress_any(agg_sum(p, good))),
            ("agg_sum(good, bad)", lambda p: decompress_any(agg_sum(good, p))),
        ]
    return paths


def _cases():
    for name in available_compressors():
        header, _ = parse_payload(_payload(name))
        for key, clean in header.items():
            for value in WRONG_VALUES.get(type(clean), ()):
                yield pytest.param(name, key, value, id=f"{name}.{key}={value!r}")


@pytest.mark.parametrize("name, key, value", list(_cases()))
def test_a_mistyped_header_field_is_corrupt_or_unread(name, key, value):
    good = _payload(name)
    bad = _reframe(good, key, value)
    for label, decode in _decode_paths(name, good):
        clean = decode(good)
        try:
            decoded = decode(bad)
        except CorruptPayloadError:
            continue
        assert decoded.dtype == clean.dtype and decoded.shape == clean.shape, label
        assert decoded.tobytes() == clean.tobytes(), f"{label}: silently wrong decode"


def test_every_kind_and_codec_is_covered():
    """The law reaches every codec that writes a field, and every kind."""
    cases = [param.values for param in _cases()]
    assert {name for name, _, _ in cases} == set(available_compressors())
    kinds = {type(parse_payload(_payload(name))[0][key]) for name, key, _ in cases}
    assert kinds == set(WRONG_VALUES)
