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

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.compression.serialization import pack_meta, unpack_meta

__all__ = [
    "Compressor",
    "frame_payload",
    "frame_parts",
    "parse_payload",
    "MAGIC",
    "ROW_DECODE_MAX_ROWS",
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


def parse_payload(payload: bytes | memoryview) -> tuple[dict[str, Any], memoryview]:
    """Split a framed payload into ``(header, body_view)``."""
    view = memoryview(payload)
    if len(view) == 0 or view[0] != MAGIC:
        raise ValueError("not a repro compression payload (bad magic byte)")
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

    def compress(self, array: np.ndarray, error_bound: float | None = None, *, key=None, pool=None):
        """Compress a 2-D float batch into a self-describing payload.

        ``key`` is a stable per-stream identity (e.g. a table id): stateful
        codecs reuse work across calls with the same key (cached codebooks,
        pinned encoder choices), stateless codecs ignore it, and the bytes
        stay self-describing either way.

        ``pool`` (a :class:`~repro.compression.parallel.BitstreamPool`)
        switches the return from ``bytes`` to a live ``Lease`` holding the
        same bytes, framed directly into a pooled arena — once the pool is
        warm, steady-state compression allocates no payload ``bytes``.  The
        caller owns the lease and releases it when done with the payload.
        """
        array = self._validate(array, error_bound)
        meta, body = self._compress_body(array, error_bound, key)
        parts = frame_parts(self.name, array.shape, array.dtype, meta, body)
        if pool is None:
            return b"".join(parts)
        lease = pool.checkout(sum(len(part) for part in parts))
        pos = 0
        for part in parts:  # flat byte buffers (see _as_buffer)
            lease.view[pos : pos + len(part)] = part
            pos += len(part)
        return lease

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
        shape = tuple(int(s) for s in header["shape"])
        dtype = np.dtype(header["dtype"])
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
                    raise AssertionError(
                        f"{self.name}: decoded shape {array.shape} != {(len(wanted), *shape[1:])}"
                    )
                return array
        array = self._decompress_body(header, body, shape, dtype)
        if array.shape != shape:
            raise AssertionError(f"{self.name}: decoded shape {array.shape} != {shape}")
        return array if rows is None else array[rows]

    @abstractmethod
    def _compress_body(
        self, array: np.ndarray, error_bound: float | None, key=None
    ) -> tuple[dict[str, Any], Any]:
        """Return ``(codec_meta, body)`` for a validated input.

        ``key`` is :meth:`compress`'s per-stream identity (``None`` when the
        caller gave none); only codecs that keep per-stream state read it.
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
