"""The fixed frame header every codec payload starts with.

Every codec in this library produces a *self-describing* byte payload: the
compressed ratio accounting includes the real header cost, not just the
entropy-coded body.  A frame is one fixed little-endian layout:

==========  =======  ================================================
offset      type     field
==========  =======  ================================================
0           ``B``    :data:`MAGIC`
1           ``16s``  codec name, ASCII, NUL-padded
17          ``B``    dtype code: 0 = float32, 1 = float64
18          ``I``    rows
22          ``I``    columns
26          ``I``    CRC32 of every byte of the frame but these four
30          codec    the codec's tail: one ``struct`` of its own fields
..          codec    the codec's body sections
==========  =======  ================================================

The 30-byte *prelude* is packed by :func:`pack_meta` and read by
:func:`unpack_meta`, each one precompiled :data:`PRELUDE`.  A codec
declares its tail as a ``struct.Struct`` (``Compressor.tail``), so every
field has exactly one type, set by the format: a frame either parses to
well-typed values or is too short, and a decoder checks only ranges.

**Every frame is checked.**  The framer fills the CRC32 once
(:func:`frame_with_checksum`) and :func:`unpack_meta` checks it once
(:func:`verify_checksum_frame`) before any other field is read, so every
decode path — ``decompress_any``, a codec's ``decompress``, the stacked
vector-LZ decode, ``agg_sum`` operands, shard-block pulls and publisher
delivery — meets the same check, and a frame damaged in transit raises
:class:`CorruptPayloadError` instead of decoding silently wrong.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAGIC",
    "PRELUDE",
    "FRAME_DTYPES",
    "Prelude",
    "pack_meta",
    "unpack_meta",
    "CorruptPayloadError",
    "frame_with_checksum",
    "verify_checksum_frame",
]

#: frame marker of a codec payload
MAGIC = 0xD1

#: magic, codec name, dtype code, rows, columns, CRC32
PRELUDE = struct.Struct("<B16sBIII")

#: offset of the CRC32 field: the prelude's last four bytes
_CRC_AT = PRELUDE.size - 4
_CRC = struct.Struct("<I")

#: the dtypes a frame declares, indexed by their code
FRAME_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_DTYPE_CODES = {dtype: code for code, dtype in enumerate(FRAME_DTYPES)}


class CorruptPayloadError(ValueError):
    """A payload's bytes cannot be what an encoder wrote.

    Raised when a frame has the wrong magic byte, ends inside its prelude
    or tail, fails its CRC32 (the message reports the stored vs computed
    digest), or declares a dtype code outside :data:`FRAME_DTYPES`, when a
    tail field is out of its range, when a body decodes to a shape other
    than the prelude declares, and when ``decompress_any`` meets a codec
    name that is not registered.  A caller that knows more (the table, the
    iteration, the row block) raises its own ``CorruptPayloadError`` naming
    it, chained ``from`` this one.
    """


def frame_with_checksum(parts: list) -> list:
    """Fill the CRC32 field of a frame held as buffer parts, and return them.

    ``parts[0]`` is a ``bytearray`` that starts with the prelude; the CRC
    runs over every byte of every part except the field itself, and is
    written into ``parts[0]`` in place, so the body is neither copied nor
    joined here."""
    head = memoryview(parts[0])
    crc = zlib.crc32(head[PRELUDE.size :], zlib.crc32(head[:_CRC_AT]))
    for part in parts[1:]:
        crc = zlib.crc32(part, crc)
    _CRC.pack_into(head, _CRC_AT, crc)
    return parts


def verify_checksum_frame(data: memoryview) -> None:
    """Raise :class:`CorruptPayloadError` unless the CRC32 field of the
    frame ``data`` (at least a prelude long) matches its other bytes."""
    (stored,) = _CRC.unpack_from(data, _CRC_AT)
    actual = zlib.crc32(data[PRELUDE.size :], zlib.crc32(data[:_CRC_AT]))
    if actual != stored:
        raise CorruptPayloadError(
            f"frame checksum mismatch: stored CRC32 0x{stored:08x} != computed "
            f"0x{actual:08x} over {len(data) - _CRC.size} bytes — payload corrupted in transit"
        )


class Prelude(NamedTuple):
    """The fixed fields every frame starts with."""

    codec: str
    dtype: np.dtype
    shape: tuple[int, int]


def pack_meta(codec: str, dtype: np.dtype, shape: tuple[int, int]) -> bytearray:
    """The :data:`PRELUDE` of a ``codec`` frame of a 2-D ``dtype`` batch,
    its CRC32 field zero until :func:`frame_with_checksum` fills it."""
    name = codec.encode("ascii")
    if len(name) > 16:
        raise ValueError(f"codec name {codec!r} is longer than 16 bytes")
    try:
        return bytearray(PRELUDE.pack(MAGIC, name, _DTYPE_CODES[np.dtype(dtype)], *shape, 0))
    except (KeyError, struct.error):
        raise ValueError(f"{codec}: a {dtype} batch of shape {shape} does not fit a frame") from None


def unpack_meta(data: bytes | memoryview) -> tuple[Prelude, int]:
    """The :class:`Prelude` at the start of a frame, and where it ends.

    ``data`` is the whole frame: its CRC32 is checked before any field is
    read.  Raises :class:`CorruptPayloadError` when ``data`` is empty, has
    the wrong magic byte, ends inside the prelude, fails its CRC32 or
    declares a dtype code outside :data:`FRAME_DTYPES`.  The codec name is
    read as Latin-1, so any bytes give a name; one no codec registers is
    the caller's to reject."""
    if len(data) == 0:
        raise CorruptPayloadError("empty payload")
    if data[0] != MAGIC:
        raise CorruptPayloadError(f"bad magic byte 0x{data[0]:02x}, expected 0x{MAGIC:02x}")
    if len(data) < PRELUDE.size:
        raise CorruptPayloadError(
            f"truncated frame: {len(data)} bytes, the prelude needs {PRELUDE.size}"
        )
    verify_checksum_frame(memoryview(data))
    _, name, code, rows, cols, _ = PRELUDE.unpack_from(data)
    if code >= len(FRAME_DTYPES):
        raise CorruptPayloadError(f"dtype code {code} at byte 17 is not float32 (0) or float64 (1)")
    return Prelude(name.rstrip(b"\0").decode("latin-1"), FRAME_DTYPES[code], (rows, cols)), PRELUDE.size
