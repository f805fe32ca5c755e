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
FP8) ignore it too but remain lossy.  The payload begins with a magic byte,
a codec-name string and the original dtype/shape, followed by codec-specific
metadata and the body.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.compression.serialization import CorruptPayloadError, pack_meta, unpack_meta

__all__ = [
    "Compressor",
    "frame_payload",
    "frame_parts",
    "parse_payload",
    "MAGIC",
    "check_body_nbytes",
    "check_element_count",
]

MAGIC = 0xDC  # "DLRM Compression" frame marker

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
    codec: str,
    array_shape: tuple[int, ...],
    array_dtype: np.dtype,
    meta: dict[str, Any],
    body,
) -> list:
    """Header + body as a list of buffer parts (no concatenation yet)."""
    header = {
        "codec": codec,
        "dtype": np.dtype(array_dtype).str,
        "shape": np.asarray(array_shape, dtype=np.int64),
        **meta,
    }
    packed = bytearray([MAGIC])
    packed += pack_meta(header)
    parts: list = [bytes(packed)]
    if isinstance(body, (list, tuple)):
        parts.extend(_as_buffer(p) for p in body)
    else:
        parts.append(_as_buffer(body))
    return parts


def frame_payload(
    codec: str,
    array_shape: tuple[int, ...],
    array_dtype: np.dtype,
    meta: dict[str, Any],
    body,
) -> bytes:
    """Assemble the standard self-describing payload.

    ``body`` may be a single buffer or a sequence of buffer parts; either
    way the payload is assembled with one copy (``bytes.join`` over views),
    byte-identical to the historical ``header + body`` concatenation.
    """
    return b"".join(frame_parts(codec, array_shape, array_dtype, meta, body))


def check_body_nbytes(codec: str, body, shape: tuple[int, ...], itemsize: int) -> None:
    """Raise :class:`CorruptPayloadError` unless ``body`` holds exactly
    ``prod(shape) * itemsize`` bytes — checked before NumPy views the bytes,
    whose own errors name neither the codec nor the sizes."""
    expected = math.prod(shape) * itemsize
    if len(body) != expected:
        raise CorruptPayloadError(f"{codec}: body holds {len(body)} bytes, expected {expected}")


def check_element_count(codec: str, count: int, shape: tuple[int, ...]) -> None:
    """Raise :class:`CorruptPayloadError` unless ``count`` values — a
    header's element count, checked before anything is allocated from it —
    fill ``shape`` exactly; NumPy's own ``reshape`` error names neither the
    codec nor the sizes."""
    expected = math.prod(shape)
    if count != expected:
        raise CorruptPayloadError(
            f"{codec}: {count} values cannot fill shape {shape} of {expected} values"
        )


#: the dtypes an encoder frames (:meth:`Compressor.compress` takes no other)
_FRAME_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _frame_layout(codec: str, header: dict[str, Any]) -> tuple[tuple[int, ...], np.dtype]:
    """The ``(shape, dtype)`` a frame declares.  An encoder writes a float32
    or float64 dtype and a 1-D array of non-negative dimensions; anything
    else is corrupt."""
    try:
        dtype = np.dtype(header["dtype"])
    except (TypeError, ValueError, SyntaxError) as exc:
        raise CorruptPayloadError(f"{codec}: malformed dtype {header['dtype']!r}: {exc}") from None
    if dtype not in _FRAME_DTYPES:
        raise CorruptPayloadError(f"{codec}: dtype {header['dtype']!r} is not float32 or float64")
    shape = header["shape"]
    if not (isinstance(shape, np.ndarray) and shape.ndim == 1 and shape.dtype.kind in "iu"):
        raise CorruptPayloadError(f"{codec}: malformed shape {shape!r}")
    dims = tuple(shape.tolist())
    if min(dims, default=0) < 0:
        raise CorruptPayloadError(f"{codec}: negative shape {dims}")
    return dims, dtype


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


def parse_payload(payload: bytes | memoryview) -> tuple[dict[str, Any], memoryview]:
    """Split a framed payload into ``(header, body_view)``.

    Every call parses afresh and returns its own header (arrays included);
    a corrupt frame raises on every call."""
    view = memoryview(payload)
    if len(view) == 0:
        raise CorruptPayloadError("empty payload")
    if view[0] != MAGIC:
        raise CorruptPayloadError(f"bad magic byte 0x{view[0]:02x}, expected 0x{MAGIC:02x}")
    header, pos = unpack_meta(view, 1)
    return header, view[pos:]


class Compressor(ABC):
    """Abstract base for batch-of-embedding-vector compressors.

    Subclasses set :attr:`name` (registry key) and :attr:`lossy`, and
    implement ``_compress_body`` / ``_decompress_body`` over the framed
    metadata.  The public entry points validate inputs and handle framing.
    """

    #: registry key, e.g. ``"hybrid"`` or ``"fp16"``
    name: str = "abstract"
    #: whether reconstruction may differ from the input
    lossy: bool = True
    #: whether the codec honours the ``error_bound`` argument
    error_bounded: bool = False

    def _validate(self, array: np.ndarray, error_bound: float | None) -> np.ndarray:
        array = np.ascontiguousarray(array)
        if array.ndim != 2:
            raise ValueError(f"{self.name}: expected 2-D (batch, dim) array, got shape {array.shape}")
        if array.dtype not in (np.float32, np.float64):
            raise TypeError(f"{self.name}: expected float32/float64 input, got {array.dtype}")
        if self.error_bounded:
            if error_bound is None or not error_bound > 0:
                raise ValueError(f"{self.name}: requires a positive error_bound, got {error_bound!r}")
        return array

    def compress(self, array: np.ndarray, error_bound: float | None = None) -> bytes:
        """Compress a 2-D float batch into a self-describing payload.  No
        codec keeps state between calls: the bytes depend on ``array`` and
        ``error_bound`` alone."""
        array = self._validate(array, error_bound)
        meta, body = self._compress_body(array, error_bound)
        return b"".join(frame_parts(self.name, array.shape, array.dtype, meta, body))

    def decompress(self, payload: bytes | memoryview) -> np.ndarray:
        """Reconstruct the batch from a payload produced by :meth:`compress`."""
        header, body = parse_payload(payload)
        if header["codec"] != self.name:
            raise _wrong_codec_error(header["codec"], self.name)
        return self._decode_frame(header, body)

    def _decode_frame(self, header: dict[str, Any], body: memoryview) -> np.ndarray:
        """Decode an already-parsed frame of this codec (no second header
        parse: :func:`~repro.compression.registry.decompress_any` parses to
        find the codec, then dispatches here)."""
        shape, dtype = _frame_layout(self.name, header)
        array = self._decompress_body(header, body, shape, dtype)
        if array.shape != shape:
            raise CorruptPayloadError(f"{self.name}: decoded shape {array.shape} != {shape}")
        return array

    @abstractmethod
    def _compress_body(
        self, array: np.ndarray, error_bound: float | None
    ) -> tuple[dict[str, Any], Any]:
        """Return ``(codec_meta, body)`` for a validated input.

        ``body`` is a single buffer (bytes/memoryview/contiguous ndarray)
        or a list of such parts; the framer joins parts with one copy.
        """

    @abstractmethod
    def _decompress_body(
        self,
        header: dict[str, Any],
        body: memoryview,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        """Reconstruct the array from header + body."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} lossy={self.lossy}>"
