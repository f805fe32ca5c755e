"""The frame-layout law: every field of a frame has one type, set by the format.

A frame is the fixed prelude of ``repro.compression.serialization`` (magic,
codec name, dtype code, rows, columns, CRC32) and the codec's own tail
struct (``Compressor.tail``).  A field can only hold a value of its type, so what
is left to check is its range.  For every registered codec this law builds
frames that are truncated inside the header, flip a bit of the magic byte,
name a codec no one registers, carry a dtype code (or a ``quant_sum`` code
dtype) outside its table, declare a dimension of 0, 2**31 or 2**32 - 1 (the
bit pattern of -1), or hold a tail field at either extreme of its type.  Each
goes through every decode path:

* ``decompress_any`` raises ``CorruptPayloadError`` or returns an array of
  the declared shape and dtype;
* ``VectorLZCompressor.decompress_stack`` (the frame twice, and beside a
  clean frame on either side) raises ``CorruptPayloadError``, declines the
  batch (``None``: not one vector-LZ stack), or returns arrays bit-identical
  to ``decompress_any`` of each frame;
* :func:`agg_sum` beside a clean ``quant_sum`` leaf, in both orders, raises
  ``CorruptPayloadError``, refuses with the plain ``ValueError`` of misuse
  (a frame of another codec, another scale, too many leaves), or returns
  byte-identical frames in both orders that ``decompress_any`` decodes.

The header-level corruptions (a truncation, a magic flip, an unregistered
name, a code outside its table) raise ``CorruptPayloadError`` through
``decompress_any`` outright.  Every hostile frame carries a valid CRC32
(``frames.seal``), so each reaches the range check meant to catch it; the
CRC itself has its own law in ``test_corruption_law.py``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.compression import agg_sum, available_compressors, decompress_any, get_compressor
from repro.compression.base import MAGIC, parse_payload
from repro.compression.serialization import PRELUDE, CorruptPayloadError
from tests.compression.frames import TAIL_FIELDS, build, reframe, seal, split

ERROR_BOUND = 1e-2
CODECS = available_compressors()

#: the extremes of every struct field type a tail uses
EXTREMES = {
    "B": (0, 2**8 - 1),
    "I": (0, 2**32 - 1),
    "Q": (0, 2**64 - 1),
    "q": (-(2**63), 2**63 - 1),
    "d": (0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan),
}

#: dimensions no encoder writes for this block: empty, and past any body
DIMENSIONS = (0, 2**31, 2**32 - 1)


def _block() -> np.ndarray:
    """64x32 float32: 54 normal(0, 0.1) rows, then the first 10 again (so
    vector-LZ finds matches)."""
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 0.1, size=(54, 32)).astype(np.float32)
    return np.concatenate([rows, rows[:10]])


_PAYLOADS: dict[str, bytes] = {}


def _payload(name: str) -> bytes:
    if name not in _PAYLOADS:
        codec = get_compressor(name)
        _PAYLOADS[name] = codec.compress(_block(), ERROR_BOUND if codec.error_bounded else None)
    return _PAYLOADS[name]


def _header_size(payload: bytes) -> int:
    """Prelude plus the tail of the codec the frame names."""
    return PRELUDE.size + get_compressor(parse_payload(payload)[0].codec).tail.size


def _outcome(call):
    """``"corrupt"``, ``"misuse"`` (a plain ``ValueError``) or the result."""
    try:
        return call()
    except CorruptPayloadError:
        return "corrupt"
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        return "misuse"


def _check_decode_paths(frame: bytes) -> object:
    """Run every decode path on ``frame`` and check each against the law;
    return ``decompress_any``'s outcome."""
    decoded = _outcome(lambda: decompress_any(frame))
    assert not isinstance(decoded, str) or decoded == "corrupt", decoded
    if not isinstance(decoded, str):
        prelude, _ = parse_payload(frame)
        assert decoded.shape == prelude.shape and decoded.dtype == prelude.dtype

    lz = get_compressor("vector_lz")
    clean = _payload("vector_lz")
    for batch in ([frame, frame], [frame, clean], [clean, frame]):
        stacked = _outcome(lambda: lz.decompress_stack(batch))
        if stacked is None or stacked == "corrupt":
            continue
        assert not isinstance(decoded, str), "decompress_stack decoded a frame decompress_any rejects"
        for got, payload in zip(stacked, batch):
            want = decompress_any(payload)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    leaf = _payload("quant_sum")
    forward = _outcome(lambda: agg_sum(frame, leaf))
    backward = _outcome(lambda: agg_sum(leaf, frame))
    assert isinstance(forward, str) == isinstance(backward, str)
    if isinstance(forward, str):
        assert forward in ("corrupt", "misuse") and backward in ("corrupt", "misuse")
    else:
        assert forward == backward, "agg_sum is not commutative on this frame"
        total = decompress_any(forward)
        assert total.shape == parse_payload(frame)[0].shape
    return decoded


def _cases():
    """``(name, label, frame builder)`` for every codec and corruption."""
    for name in CODECS:
        payload = _payload(name)
        prelude, tail, body = split(payload)
        codec = prelude["codec"]  # hybrid ships its winning leg's frame
        for cut in range(_header_size(payload)):
            yield name, f"cut-{cut}", "corrupt", lambda p=payload, cut=cut: seal(p[:cut])
        for bit in range(8):
            yield name, f"magic-bit-{bit}", "corrupt", lambda p=payload, bit=bit: seal(bytes([MAGIC ^ 1 << bit]) + p[1:])
        for label, raw in (("empty", b""), ("flipped", bytes([ord(codec[0]) ^ 4]) + codec[1:].encode()), ("high", b"\xff" * 16)):
            yield name, f"name-{label}", "corrupt", lambda p=payload, raw=raw: seal(p[:1] + raw.ljust(16, b"\0") + p[17:])
        for code in (2, 255):
            yield name, f"dtype-code-{code}", "corrupt", lambda p=payload, code=code: reframe(p, dtype_code=code)
        for axis in (0, 1):
            for dim in DIMENSIONS:
                shape = list(prelude["shape"])
                shape[axis] = dim
                yield name, f"dim{axis}-{dim}", None, lambda p=payload, s=tuple(shape): reframe(p, shape=s)
        fmt = get_compressor(codec).tail.format.lstrip("<")
        for field, kind in zip(TAIL_FIELDS[codec], fmt):
            for value in EXTREMES[kind]:
                expect = "corrupt" if field == "code_dtype" and value == 255 else None
                yield name, f"{field}={value!r}", expect, lambda p=payload, f=field, v=value: reframe(p, **{f: v})


CASES = list(_cases())


@pytest.mark.parametrize(
    "name, build_frame, expect",
    [pytest.param(name, make, expect, id=f"{name}.{label}") for name, label, expect, make in CASES],
)
def test_a_hostile_header_is_corrupt_or_decodes_alike_on_every_path(name, build_frame, expect):
    with np.errstate(all="ignore"):  # a tail at its extremes may dequantize to inf
        decoded = _check_decode_paths(build_frame())
    if expect is not None:
        assert isinstance(decoded, str) and decoded == expect


def test_every_codec_and_field_type_is_covered():
    """The law reaches every registered codec, every tail field of every
    codec, and every struct type a tail uses."""
    assert set(TAIL_FIELDS) == set(CODECS)
    kinds = set()
    for name in CODECS:
        tail = get_compressor(name).tail
        assert len(TAIL_FIELDS[name]) == len(tail.unpack(bytes(tail.size))), name
        kinds |= set(tail.format.lstrip("<"))
    assert kinds == set(EXTREMES)
    assert {name for name, *_ in CASES} == set(CODECS)


@pytest.mark.parametrize("name", CODECS)
def test_a_frame_round_trips_through_the_builder(name):
    """``split`` then ``build`` gives back the encoder's bytes."""
    payload = _payload(name)
    prelude, tail, body = split(payload)
    rebuilt = build(prelude["codec"], prelude["shape"], tail, body, prelude["dtype_code"])
    assert rebuilt == payload
    assert len(payload) - len(body) == _header_size(payload)


def test_the_old_magic_is_corrupt():
    """A frame of the old variable-length header (magic byte 0xDC) is no
    frame of this format."""
    old = bytes([0xDC]) + _payload("vector_lz")[1:]
    with pytest.raises(CorruptPayloadError, match="bad magic byte 0xdc"):
        decompress_any(old)


def test_struct_fields_hold_only_their_type():
    """The format itself refuses a value outside a field's type, so no
    decoder sees one."""
    with pytest.raises(struct.error):
        get_compressor("vector_lz").tail.pack(1e-2, 0, -1, 8, 8)
    with pytest.raises(struct.error):
        get_compressor("quant_sum").tail.pack(0.02, 1, 0, 2**64)
