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
26          codec    the codec's tail: one ``struct`` of its own fields
..          codec    the codec's body sections
==========  =======  ================================================

The 26-byte *prelude* is packed by :func:`pack_meta` and read by
:func:`unpack_meta`, each one precompiled :data:`PRELUDE`.  A codec
declares its tail as a ``struct.Struct`` (``Compressor.tail``), so every
field has exactly one type, set by the format: a frame either parses to
well-typed values or is too short, and a decoder checks only ranges.

**Checksummed frames (opt-in).**  Codec payloads are self-describing but
carry no integrity check — a flipped bit on a faulty fabric decodes into
silently-wrong embedding rows.  :func:`frame_with_checksum` wraps any
payload in a 5-byte CRC32 envelope; :func:`verify_checksum_frame` strips
it, raising :class:`CorruptPayloadError` on mismatch, which is what the
fault injector's corruption faults (and the publisher's retry loop) key
off.  The envelope is opt-in so every existing byte-exact payload stays
pinned bit for bit.
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
    "CHECKSUM_MAGIC",
    "frame_with_checksum",
    "verify_checksum_frame",
]

#: frame marker of a codec payload
MAGIC = 0xD1

#: frame marker of a CRC32-checksummed payload envelope (distinct from the
#: codec frame's :data:`MAGIC`, so the two framings cannot be confused)
CHECKSUM_MAGIC = 0xC5

#: magic, codec name, dtype code, rows, columns
PRELUDE = struct.Struct("<B16sBII")

#: the dtypes a frame declares, indexed by their code
FRAME_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_DTYPE_CODES = {dtype: code for code, dtype in enumerate(FRAME_DTYPES)}


class CorruptPayloadError(ValueError):
    """A payload's bytes cannot be what an encoder wrote.

    Raised when a checksummed frame fails CRC32 verification (the message
    reports the stored vs computed digest), when a frame has the wrong
    magic byte, ends inside its prelude or tail, or declares a dtype code
    outside :data:`FRAME_DTYPES`, when a tail field is out of its range,
    when a body decodes to a shape other than the prelude declares, and
    when ``decompress_any`` meets a codec name that is not registered.  An
    unframed payload is never rejected for lacking a checksum — integrity
    is opt-in.
    """


def frame_with_checksum(payload: bytes | bytearray | memoryview) -> bytes:
    """Wrap a payload in a 5-byte CRC32 envelope: magic + digest + body.

    The envelope is opt-in: nothing in the codec stack emits it by
    default, so byte-exact payload tests stay pinned.  Callers that ship
    payloads over a faultable fabric (the delta publisher, the fault
    injector's corruption tests) wrap before sending and
    :func:`verify_checksum_frame` on receipt.

    The CRC is computed directly over the caller's buffer and the body is
    copied exactly once, into the final frame (``b"".join`` of views — no
    intermediate ``bytes(payload)`` round-trip).
    """
    view = memoryview(payload)
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    header = struct.pack("<BI", CHECKSUM_MAGIC, zlib.crc32(view) & 0xFFFFFFFF)
    return b"".join((header, view))


def _reference_verify_checksum_frame(data: bytes | bytearray | memoryview) -> bytes:
    """Frozen seed implementation (copies the body out); oracle for the
    zero-copy differential tests and the reference of the perfbench
    ``checksum.verify`` rows."""
    view = memoryview(data)
    if len(view) < 5 or view[0] != CHECKSUM_MAGIC:
        raise ValueError(
            "not a checksummed frame (missing CRC32 envelope); "
            "wrap payloads with frame_with_checksum() before verifying"
        )
    (stored,) = struct.unpack_from("<I", view, 1)
    body = bytes(view[5:])
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != stored:
        raise CorruptPayloadError(
            f"payload checksum mismatch: stored CRC32 0x{stored:08x} != computed "
            f"0x{actual:08x} over {len(body)} bytes — payload corrupted in transit"
        )
    return body


def verify_checksum_frame(data: bytes | bytearray | memoryview) -> memoryview:
    """Verify a checksummed frame and return the inner payload.

    Raises :class:`CorruptPayloadError` when the body's CRC32 does not
    match the stored digest (a corrupted or truncated frame), and a plain
    :class:`ValueError` when ``data`` is not a checksummed frame at all.

    The returned payload is a :class:`memoryview` into ``data`` — the CRC
    runs over the view and the envelope is stripped without copying the
    body.  Downstream consumers (``parse_payload``, ``decompress_any``,
    ``np.frombuffer``) all accept views; call ``bytes(...)`` on the result
    only if an owning copy is genuinely needed.
    """
    view = memoryview(data)
    if len(view) < 5 or view[0] != CHECKSUM_MAGIC:
        raise ValueError(
            "not a checksummed frame (missing CRC32 envelope); "
            "wrap payloads with frame_with_checksum() before verifying"
        )
    (stored,) = struct.unpack_from("<I", view, 1)
    body = view[5:]
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != stored:
        raise CorruptPayloadError(
            f"payload checksum mismatch: stored CRC32 0x{stored:08x} != computed "
            f"0x{actual:08x} over {len(body)} bytes — payload corrupted in transit"
        )
    return body


class Prelude(NamedTuple):
    """The fixed fields every frame starts with."""

    codec: str
    dtype: np.dtype
    shape: tuple[int, int]


def pack_meta(codec: str, dtype: np.dtype, shape: tuple[int, int]) -> bytes:
    """The :data:`PRELUDE` of a ``codec`` frame of a 2-D ``dtype`` batch."""
    name = codec.encode("ascii")
    if len(name) > 16:
        raise ValueError(f"codec name {codec!r} is longer than 16 bytes")
    try:
        return PRELUDE.pack(MAGIC, name, _DTYPE_CODES[np.dtype(dtype)], *shape)
    except (KeyError, struct.error):
        raise ValueError(f"{codec}: a {dtype} batch of shape {shape} does not fit a frame") from None


def unpack_meta(data: bytes | memoryview) -> tuple[Prelude, int]:
    """The :class:`Prelude` at the start of a frame, and where it ends.

    Raises :class:`CorruptPayloadError` when ``data`` is empty, has the
    wrong magic byte, ends inside the prelude or declares a dtype code
    outside :data:`FRAME_DTYPES`.  The codec name is read as Latin-1, so
    any bytes give a name; one no codec registers is the caller's to
    reject."""
    if len(data) == 0:
        raise CorruptPayloadError("empty payload")
    if data[0] != MAGIC:
        raise CorruptPayloadError(f"bad magic byte 0x{data[0]:02x}, expected 0x{MAGIC:02x}")
    if len(data) < PRELUDE.size:
        raise CorruptPayloadError(
            f"truncated frame: {len(data)} bytes, the prelude needs {PRELUDE.size}"
        )
    _, name, code, rows, cols = PRELUDE.unpack_from(data)
    if code >= len(FRAME_DTYPES):
        raise CorruptPayloadError(f"dtype code {code} at byte 17 is not float32 (0) or float64 (1)")
    return Prelude(name.rstrip(b"\0").decode("latin-1"), FRAME_DTYPES[code], (rows, cols)), PRELUDE.size
