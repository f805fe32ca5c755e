"""Common compressor interface and payload framing.

All compressors in this library — the paper's hybrid compressor and every
baseline — share one contract:

* :meth:`Compressor.compress` takes a 2-D float32 batch of embedding vectors
  ``(batch, dim)`` plus an absolute error bound, and returns a single
  *self-describing* ``bytes`` payload (header + body).  Compression ratios
  are therefore honest: they account for all metadata a receiver needs.
* :meth:`Compressor.decompress` inverts it exactly (lossless codecs) or
  within the error bound (lossy codecs).

Lossless codecs ignore the error bound argument; fixed-rate codecs (FP16,
FP8) ignore it too but remain lossy.  The payload begins with the fixed
30-byte prelude of :mod:`~repro.compression.serialization` (magic byte,
codec name, dtype code, the two dimensions, the frame's CRC32), then the
codec's *tail* — one ``struct.Struct`` of its own fields,
:attr:`Compressor.tail` — then the body.  ``_compress_body`` returns the
tail values and ``_decompress_body`` receives them unpacked; a frame whose
CRC32 fails or that ends inside its tail raises ``CorruptPayloadError``,
and each codec checks its fields' ranges before it allocates anything
from them.
"""

from __future__ import annotations

import math
import struct
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.compression.serialization import (
    MAGIC,
    CorruptPayloadError,
    Prelude,
    frame_with_checksum,
    pack_meta,
    unpack_meta,
)

__all__ = [
    "Compressor",
    "frame_payload",
    "frame_parts",
    "parse_payload",
    "MAGIC",
    "check_body_nbytes",
]

#: body types a codec may return: a single buffer or a list of buffer parts
#: (each part is anything exposing the buffer protocol — bytes, memoryview,
#: a contiguous ndarray).  Multi-part bodies let codecs hand their sections
#: to the framer without first concatenating them into an intermediate
#: ``bytes``; the framer performs the single final copy.
Body = "bytes | bytearray | memoryview | np.ndarray | list"


def _as_buffer(part) -> memoryview | bytes:
    """Normalise one body part to a joinable flat byte buffer (no copy)."""
    if isinstance(part, np.ndarray):
        part = np.ascontiguousarray(part)
        if part.nbytes == 0:  # empty views cannot be cast
            return b""
        return memoryview(part).cast("B")
    if isinstance(part, memoryview):
        if part.nbytes == 0:
            return b""
        return part if part.ndim == 1 and part.format == "B" else part.cast("B")
    return part


def frame_parts(
    codec: str, array_shape: tuple[int, int], array_dtype: np.dtype, tail: bytes, body
) -> list:
    """Prelude + packed ``tail`` + body as a list of buffer parts (no
    concatenation yet), the prelude's CRC32 filled over all of them."""
    parts: list = [pack_meta(codec, array_dtype, array_shape) + tail]
    if isinstance(body, (list, tuple)):
        parts.extend(_as_buffer(p) for p in body)
    else:
        parts.append(_as_buffer(body))
    return frame_with_checksum(parts)


def frame_payload(
    codec: str, array_shape: tuple[int, int], array_dtype: np.dtype, tail: bytes, body
) -> bytes:
    """Assemble the standard self-describing payload.

    ``body`` may be a single buffer or a sequence of buffer parts; either
    way the payload is assembled with one copy (``bytes.join`` over views).
    """
    return b"".join(frame_parts(codec, array_shape, array_dtype, tail, body))


def check_body_nbytes(codec: str, body, shape: tuple[int, ...], itemsize: int) -> None:
    """Raise :class:`CorruptPayloadError` unless ``body`` holds exactly
    ``prod(shape) * itemsize`` bytes — checked before NumPy views the bytes,
    whose own errors name neither the codec nor the sizes."""
    expected = math.prod(shape) * itemsize
    if len(body) != expected:
        raise CorruptPayloadError(f"{codec}: body holds {len(body)} bytes, expected {expected}")


def _wrong_codec_error(codec: str, expected: str) -> ValueError:
    """The error for a frame of ``codec`` handed to the ``expected`` codec's
    decoder: a registered codec's well-formed frame is the caller's misuse
    (a plain ``ValueError``); a name no codec registers is a corrupt frame."""
    from repro.compression.registry import available_compressors  # it imports every codec

    if codec not in available_compressors():
        return CorruptPayloadError(f"payload codec {codec!r} is not registered")
    return ValueError(
        f"payload was produced by codec {codec!r}, not {expected!r};"
        " use repro.compression.registry.decompress_any"
    )


def parse_payload(payload: bytes | memoryview) -> tuple[Prelude, memoryview]:
    """Split a framed payload into ``(prelude, body_view)``; the body view
    starts with the codec's tail.  Every call parses afresh; a corrupt
    prelude raises on every call."""
    view = memoryview(payload)
    prelude, pos = unpack_meta(view)
    return prelude, view[pos:]


class Compressor(ABC):
    """Abstract base for batch-of-embedding-vector compressors.

    Subclasses set :attr:`name` (registry key), :attr:`lossy` and
    :attr:`tail`, and implement ``_compress_body`` / ``_decompress_body``
    over the tail values.  The public entry points validate inputs and
    handle framing.
    """

    #: registry key, e.g. ``"hybrid"`` or ``"fp16"``
    name: str = "abstract"
    #: whether reconstruction may differ from the input
    lossy: bool = True
    #: whether the codec honours the ``error_bound`` argument
    error_bounded: bool = False
    #: the codec's own header fields, packed at the front of its body
    tail: struct.Struct = struct.Struct("<")

    def _validate(self, array: np.ndarray, error_bound: float | None) -> np.ndarray:
        array = np.ascontiguousarray(array)
        if array.ndim != 2:
            raise ValueError(f"{self.name}: expected 2-D (batch, dim) array, got shape {array.shape}")
        if array.dtype not in (np.float32, np.float64):
            raise TypeError(f"{self.name}: expected float32/float64 input, got {array.dtype}")
        if self.error_bounded:
            if error_bound is None or not 0.0 < error_bound < math.inf:
                raise ValueError(
                    f"{self.name}: requires a finite, positive error_bound, got {error_bound!r}"
                )
        return array

    def compress(self, array: np.ndarray, error_bound: float | None = None) -> bytes:
        """Compress a 2-D float batch into a self-describing payload.  No
        codec keeps state between calls: the bytes depend on ``array`` and
        ``error_bound`` alone."""
        array = self._validate(array, error_bound)
        tail, body = self._compress_body(array, error_bound)
        return b"".join(frame_parts(self.name, array.shape, array.dtype, self.tail.pack(*tail), body))

    def decompress(self, payload: bytes | memoryview) -> np.ndarray:
        """Reconstruct the batch from a payload produced by :meth:`compress`."""
        prelude, body = parse_payload(payload)
        if prelude.codec != self.name:
            raise _wrong_codec_error(prelude.codec, self.name)
        return self._decode_frame(prelude, body)

    def _read_tail(self, body: memoryview) -> tuple:
        """The tail values at the front of a frame's ``body``."""
        if len(body) < self.tail.size:
            raise CorruptPayloadError(
                f"{self.name}: frame ends {len(body)} bytes into its {self.tail.size}-byte tail"
            )
        return self.tail.unpack_from(body)

    def _decode_frame(self, prelude: Prelude, body: memoryview) -> np.ndarray:
        """Decode an already-parsed frame of this codec (no second prelude
        parse: :func:`~repro.compression.registry.decompress_any` parses to
        find the codec, then dispatches here)."""
        tail = self._read_tail(body)
        array = self._decompress_body(tail, body[self.tail.size :], prelude.shape, prelude.dtype)
        if array.shape != prelude.shape:
            raise CorruptPayloadError(f"{self.name}: decoded shape {array.shape} != {prelude.shape}")
        return array

    @abstractmethod
    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[tuple, Any]:
        """Return ``(tail values, body)`` for a validated input.

        ``body`` is a single buffer (bytes/memoryview/contiguous ndarray)
        or a list of such parts; the framer joins parts with one copy.
        """

    @abstractmethod
    def _decompress_body(
        self, tail: tuple, body: memoryview, shape: tuple[int, int], dtype: np.dtype
    ) -> np.ndarray:
        """Reconstruct the array from the unpacked tail and the body after it."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} lossy={self.lossy}>"
