"""Compact binary serialization for compressor headers.

Every codec in this library produces a *self-describing* byte payload:
the compressed ratio accounting includes the real header cost, not just the
entropy-coded body.  Headers are dictionaries of simple typed values packed
with a small tag-length-value format:

==========  =============================================
tag         value encoding
==========  =============================================
``I``       signed integer, zig-zag varint
``F``       float64, 8 bytes little-endian
``S``       UTF-8 string, varint length prefix
``B``       raw bytes, varint length prefix
``A``       ndarray: dtype string, ndim, shape, raw bytes
==========  =============================================

Keys are packed as varint-length-prefixed UTF-8.  The format is sequential
and order-preserving; no alignment padding.  :func:`unpack_meta` checks
every declared length against the bytes present, so a truncated or
bit-flipped header either parses or raises :class:`CorruptPayloadError`
naming the byte offset — never an untyped error, never a short value.

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
from typing import Any

import numpy as np

__all__ = [
    "pack_meta",
    "unpack_meta",
    "write_varint",
    "read_varint",
    "CorruptPayloadError",
    "CHECKSUM_MAGIC",
    "frame_with_checksum",
    "has_checksum",
    "verify_checksum_frame",
]


#: frame marker of a CRC32-checksummed payload envelope (distinct from the
#: codec frame's ``MAGIC`` 0xDC, so the two framings cannot be confused)
CHECKSUM_MAGIC = 0xC5


class CorruptPayloadError(ValueError):
    """A payload's bytes cannot be what an encoder wrote.

    Raised when a checksummed frame fails CRC32 verification (the message
    reports the stored vs computed digest) and when a header does not
    parse: a varint, string, byte, array or dtype field that is truncated
    or malformed (the message names the byte offset).  Also raised when a
    codec reads a header field that is absent (the message names the key)
    and when a body decodes to a shape other than the header declares.  An
    unframed payload is never rejected for lacking a checksum — integrity
    is opt-in.
    """


def _reference_frame_with_checksum(payload: bytes | bytearray | memoryview) -> bytes:
    """Frozen seed implementation (copies the body twice); oracle for the
    zero-copy differential tests."""
    body = bytes(payload)
    return bytes([CHECKSUM_MAGIC]) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF) + body


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


def has_checksum(data: bytes | bytearray | memoryview) -> bool:
    """Whether ``data`` carries the checksum envelope."""
    view = memoryview(data)
    return len(view) >= 5 and view[0] == CHECKSUM_MAGIC


def _reference_verify_checksum_frame(data: bytes | bytearray | memoryview) -> bytes:
    """Frozen seed implementation (copies the body out); oracle for the
    zero-copy differential tests and the ``zero_copy`` perfbench rows."""
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


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise ValueError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes | memoryview, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint at ``pos``; return ``(value, new_pos)``."""
    start = pos
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptPayloadError(f"truncated varint at byte {start}")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise CorruptPayloadError(f"varint too long at byte {start}")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= -(2**63) else (value << 1) ^ -1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _pack_value(out: bytearray, value: Any) -> None:
    if isinstance(value, bool):
        raise TypeError("bool meta values are ambiguous; use int 0/1")
    if isinstance(value, (int, np.integer)):
        out.append(ord("I"))
        write_varint(out, _zigzag(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(ord("F"))
        out.extend(struct.pack("<d", float(value)))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(ord("S"))
        write_varint(out, len(encoded))
        out.extend(encoded)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        view = memoryview(value)
        out.append(ord("B"))
        write_varint(out, view.nbytes)
        out.extend(view)
    elif isinstance(value, np.ndarray):
        out.append(ord("A"))
        dtype_str = value.dtype.str.encode("ascii")
        write_varint(out, len(dtype_str))
        out.extend(dtype_str)
        write_varint(out, value.ndim)
        for dim in value.shape:
            write_varint(out, dim)
        contiguous = np.ascontiguousarray(value)
        raw = memoryview(contiguous).cast("B") if contiguous.nbytes else b""
        write_varint(out, len(raw))
        out.extend(raw)
    else:
        raise TypeError(f"unsupported meta value type: {type(value).__name__}")


def _truncated(data: memoryview, pos: int, length: int, field: str) -> CorruptPayloadError:
    return CorruptPayloadError(
        f"truncated {field} at byte {pos}: {length} bytes declared, {len(data) - pos} present"
    )


def _field_end(data: memoryview, pos: int, length: int, field: str) -> int:
    """End offset of a ``length``-byte ``field`` starting at ``pos``,
    checked against the bytes present."""
    end = pos + length
    if end > len(data):
        raise _truncated(data, pos, length, field)
    return end


def _read_text(
    data: memoryview, pos: int, length: int, field: str, encoding: str = "utf-8"
) -> tuple[str, int]:
    """The ``length``-byte ``field`` at ``pos`` decoded, and its end offset
    (the bounds check is inlined: keys and strings are most of a header)."""
    end = pos + length
    if end > len(data):
        raise _truncated(data, pos, length, field)
    try:
        return str(data[pos:end], encoding), end
    except UnicodeDecodeError:
        raise CorruptPayloadError(f"{field} at byte {pos} is not {encoding}") from None


def _unpack_value(data: memoryview, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise CorruptPayloadError(f"truncated header: no value tag at byte {pos}")
    tag = chr(data[pos])
    pos += 1
    if tag == "I":
        raw, pos = read_varint(data, pos)
        return _unzigzag(raw), pos
    if tag == "F":
        end = _field_end(data, pos, 8, "float")
        (value,) = struct.unpack_from("<d", data, pos)
        return value, end
    if tag == "S":
        length, pos = read_varint(data, pos)
        return _read_text(data, pos, length, "string")
    if tag == "B":
        length, pos = read_varint(data, pos)
        end = _field_end(data, pos, length, "bytes")
        return bytes(data[pos:end]), end
    if tag == "A":
        start = pos - 1
        dlen, pos = read_varint(data, pos)
        dtype_str, pos = _read_text(data, pos, dlen, "array dtype", "ascii")
        ndim, pos = read_varint(data, pos)
        shape = []
        for _ in range(ndim):
            dim, pos = read_varint(data, pos)
            shape.append(dim)
        blen, pos = read_varint(data, pos)
        end = _field_end(data, pos, blen, "array body")
        try:
            array = np.frombuffer(data[pos:end], dtype=np.dtype(dtype_str)).reshape(shape)
        except (TypeError, ValueError, SyntaxError) as exc:
            raise CorruptPayloadError(f"malformed array at byte {start}: {exc}") from None
        return array.copy(), end
    raise CorruptPayloadError(f"unknown meta tag {tag!r} at byte {pos - 1}")


def pack_meta(meta: dict[str, Any]) -> bytes:
    """Serialize a header dictionary to compact bytes."""
    out = bytearray()
    write_varint(out, len(meta))
    for key, value in meta.items():
        encoded_key = key.encode("utf-8")
        write_varint(out, len(encoded_key))
        out.extend(encoded_key)
        _pack_value(out, value)
    return bytes(out)


class _Header(dict):
    """A parsed header.  A codec reads the fields its encoder always
    writes, so a missing one means the bytes were corrupted."""

    __slots__ = ()

    def __missing__(self, key: str):
        raise CorruptPayloadError(f"header has no {key!r} field")


def unpack_meta(data: bytes | memoryview, pos: int = 0) -> tuple[dict[str, Any], int]:
    """Deserialize a header at ``pos``; return ``(meta, new_pos)``.

    Raises :class:`CorruptPayloadError` (a ``ValueError``) naming the byte
    offset when any field is truncated or malformed.  Indexing the returned
    header by a key it does not hold raises :class:`CorruptPayloadError`
    naming the key."""
    view = memoryview(data)
    count, pos = read_varint(view, pos)
    meta: dict[str, Any] = _Header()
    for _ in range(count):
        klen, pos = read_varint(view, pos)
        key, pos = _read_text(view, pos, klen, "key")
        meta[key], pos = _unpack_value(view, pos)
    return meta, pos
