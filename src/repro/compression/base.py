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
from functools import lru_cache
from typing import Any

import numpy as np

from repro.compression.serialization import CorruptPayloadError, _Header, pack_meta, unpack_meta

__all__ = [
    "Compressor",
    "frame_payload",
    "frame_parts",
    "parse_payload",
    "MAGIC",
    "ROW_DECODE_MAX_ROWS",
    "check_body_nbytes",
]

MAGIC = 0xDC  # "DLRM Compression" frame marker

#: a ``rows=`` decode of fewer rows than this runs the codec's row kernel
#: (where it has one); from here up it is the vectorised full decode, then an
#: index.  A row kernel costs per requested row (vector-LZ: ~30 us for the
#: first, ~4 us for each further one), the full decode mostly per call
#: (~90-130 us for a 64-row block of 32 values a row); for vector-LZ the two
#: meet between 12 rows (a constant block, every row a chain) and 20 (no
#: matches), and entropy's walk stays ahead for longer, so vector-LZ binds.
#: The ``shard_pull`` perfbench rows sit on either side: ``row1`` at 2.4-3.2x,
#: ``rows32`` on the full decode at ~1x (vector-LZ's row kernel: ~0.7x there).
ROW_DECODE_MAX_ROWS = 12

#: ``bytes`` frames whose parse :func:`parse_payload` keeps.  A shard serves
#: each stored block many times over: 250 requests of the ``publish_serve``
#: world parse ~2 600 times but only ~300 distinct blocks of the 446 its
#: shards hold, so this covers a whole serving tier of that size.
PARSE_CACHE_ENTRIES = 512
#: the largest frame the memo keeps (it keeps the payload alive as its key).
#: A stored block is ~1 kB; a frame this large decodes for far longer than
#: its header parses, so the cap bounds the memo at 32 MiB and costs nothing.
PARSE_CACHE_MAX_BYTES = 1 << 16

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


def _parse_view(view: memoryview) -> tuple[dict[str, Any], int]:
    """``(header, body offset)`` of the frame in ``view``."""
    if len(view) == 0 or view[0] != MAGIC:
        raise ValueError("not a repro compression payload (bad magic byte)")
    return unpack_meta(view, 1)


@lru_cache(maxsize=PARSE_CACHE_ENTRIES)
def _parse_frame(payload: bytes) -> tuple[dict[str, Any], int]:
    """:func:`_parse_view` memoised by content (an exception is not cached).
    Every hit shares the header's arrays, so they are made read-only."""
    header, pos = _parse_view(memoryview(payload))
    for value in header.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return header, pos


def parse_payload(payload: bytes | memoryview) -> tuple[dict[str, Any], memoryview]:
    """Split a framed payload into ``(header, body_view)``.

    A ``bytes`` payload of up to :data:`PARSE_CACHE_MAX_BYTES` is parsed
    once per distinct content while it stays among the last
    :data:`PARSE_CACHE_ENTRIES` parsed: each call returns a fresh header
    mapping (changing it never reaches the next parse) whose arrays are
    read-only.  A corrupt frame raises on every call.  Any other buffer (a
    ``memoryview`` into a checksum envelope, a ``bytearray``) can change
    under a key, so it is parsed afresh and its arrays are writable, as are
    those of a larger frame.
    """
    if type(payload) is bytes and len(payload) <= PARSE_CACHE_MAX_BYTES:
        header, pos = _parse_frame(payload)
        return _Header(header), memoryview(payload)[pos:]
    view = memoryview(payload)
    header, pos = _parse_view(view)
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
    #: whether ``_decompress_body`` takes ``rows=`` and decodes only those
    #: rows (codecs without a partial decoder decode the frame, then index)
    decodes_rows: bool = False

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

    def compress(self, array: np.ndarray, error_bound: float | None = None, *, key=None) -> bytes:
        """Compress a 2-D float batch into a self-describing payload.

        ``key`` is a stable per-stream identity (e.g. a table id), so callers
        that serve any codec (the shard server, the publisher) can pass it
        uniformly.  Its one reader is :class:`~repro.compression.hybrid.HybridCompressor`,
        whose pin cache replays a table's winning leg; every other codec
        ignores it, and the bytes stay self-describing either way.
        """
        array = self._validate(array, error_bound)
        meta, body = self._compress_body(array, error_bound)
        return b"".join(frame_parts(self.name, array.shape, array.dtype, meta, body))

    def decompress(self, payload: bytes | memoryview) -> np.ndarray:
        """Reconstruct the batch from a payload produced by :meth:`compress`."""
        header, body = parse_payload(payload)
        if header["codec"] != self.name:
            raise ValueError(
                f"payload was produced by codec {header['codec']!r}, not {self.name!r};"
                " use repro.compression.registry.decompress_any"
            )
        return self._decode_frame(header, body)

    def _decode_frame(
        self, header: dict[str, Any], body: memoryview, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Decode an already-parsed frame of this codec (no second header
        parse: :func:`~repro.compression.registry.decompress_any` parses to
        find the codec, then dispatches here).

        With ``rows`` (1-D integer indices) the result is bit-identical to
        ``_decode_frame(header, body)[rows]``.  Few rows of a codec that
        :attr:`decodes_rows` go to its row kernel; everything else is the
        full decode, indexed."""
        shape, dtype = _frame_layout(self.name, header)
        if rows is not None:
            rows = np.asarray(rows)
            if rows.ndim != 1 or rows.dtype.kind not in "iu":
                raise TypeError(
                    f"rows must be a 1-D integer array, got {rows.dtype} of shape {rows.shape}"
                )
            if self.decodes_rows and shape and rows.size < ROW_DECODE_MAX_ROWS:
                n = shape[0]
                # NumPy's own indexing rule: negative indices count from the end.
                wanted = [row + n if row < 0 else row for row in rows.tolist()]
                if not all(0 <= row < n for row in wanted):
                    raise IndexError(f"row indices {rows.tolist()} are out of bounds for {n} rows")
                array = self._decompress_body(header, body, shape, dtype, rows=wanted)
                if array.shape != (len(wanted), *shape[1:]):
                    raise CorruptPayloadError(
                        f"{self.name}: decoded shape {array.shape} != {(len(wanted), *shape[1:])}"
                    )
                return array
        array = self._decompress_body(header, body, shape, dtype)
        if array.shape != shape:
            raise CorruptPayloadError(f"{self.name}: decoded shape {array.shape} != {shape}")
        return array if rows is None else array[rows]

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
        """Reconstruct the array from header + body.  A codec that sets
        :attr:`decodes_rows` also takes ``rows=None``: a list of indices in
        ``[0, shape[0])`` whose rows alone it returns, in that order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} lossy={self.lossy}>"
