"""The frame builder of the hostile-frame tests.

A codec frame is the fixed prelude (``serialization.PRELUDE``: magic,
codec name, dtype code, rows, columns, CRC32), the codec's tail
(``Compressor.tail``) and its body.  :func:`split` takes a frame apart,
naming the tail fields; :func:`build` packs one from parts with any field
set to any value its type holds, including the ones no encoder writes (a
dtype code outside the table, a zero or 2**32 - 1 dimension, a tail field
at its type's extreme); :func:`reframe` replaces some fields of a frame.
Both write a valid CRC32 (:func:`seal`), so a hostile field reaches the
range check that is meant to catch it, not the checksum.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from repro.compression.base import MAGIC, parse_payload
from repro.compression.registry import get_compressor
from repro.compression.serialization import FRAME_DTYPES, PRELUDE

#: where a frame's CRC32 field starts: bytes 26-29 are the prelude's last four
CRC_AT = 26

#: every registered codec's tail fields, in ``Compressor.tail`` order
#: (``hybrid`` ships its winning leg's frame, so it has none of its own)
TAIL_FIELDS: dict[str, tuple[str, ...]] = {
    "cusz_like": ("eb", "res_min", "n_lengths"),
    "deflate_like": ("lz_size",),
    "entropy": ("eb", "code_min", "n_lengths"),
    "fp16": (),
    "fp8": (),
    "fzgpu_like": ("eb",),
    "hybrid": (),
    "lz4_like": (),
    "quant_sum": ("scale", "terms", "code_dtype", "cmax"),
    "vector_lz": ("eb", "code_min", "n_matches", "offset_width", "literal_width"),
}


def seal(frame: bytes) -> bytes:
    """``frame`` with the CRC32 of every byte but its CRC field written
    there (computed here from ``zlib``, not by the library); a frame that
    ends inside its prelude has no CRC field and comes back as it is."""
    if len(frame) < PRELUDE.size:
        return bytes(frame)
    crc = zlib.crc32(frame[PRELUDE.size :], zlib.crc32(frame[:CRC_AT]))
    return bytes(frame[:CRC_AT]) + struct.pack("<I", crc) + bytes(frame[PRELUDE.size :])


def split(payload: bytes) -> tuple[dict[str, Any], dict[str, Any], bytes]:
    """``(prelude fields, tail fields, body after the tail)`` of a frame."""
    prelude, body = parse_payload(payload)
    tail = get_compressor(prelude.codec).tail
    fields = {
        "codec": prelude.codec,
        "dtype_code": FRAME_DTYPES.index(prelude.dtype),
        "shape": prelude.shape,
    }
    return fields, dict(zip(TAIL_FIELDS[prelude.codec], tail.unpack_from(body))), bytes(body[tail.size :])


def build(
    codec: str,
    shape: tuple[int, int],
    tail: dict[str, Any],
    body: bytes,
    dtype_code: int = 0,
    magic: int = MAGIC,
) -> bytes:
    """A frame packed field by field: ``tail`` names every field of the
    tail of the registered codec ``codec``."""
    values = [tail[field] for field in TAIL_FIELDS[codec]]
    prelude = PRELUDE.pack(magic, codec.encode("latin-1"), dtype_code, *shape, 0)
    return seal(prelude + get_compressor(codec).tail.pack(*values) + bytes(body))


def reframe(payload: bytes, **changes) -> bytes:
    """``payload`` with prelude fields (``codec``, ``dtype_code``,
    ``shape``), tail fields and/or the ``body`` after the tail replaced."""
    prelude, tail, body = split(payload)
    body = changes.pop("body", body)
    for key in [key for key in changes if key in prelude]:
        prelude[key] = changes.pop(key)
    unknown = set(changes) - set(tail)
    assert not unknown, f"{prelude['codec']} has no tail fields {unknown}"
    tail.update(changes)
    return build(prelude["codec"], prelude["shape"], tail, body, prelude["dtype_code"])
