"""Error-bounded linear-scaling quantization.

This is the first stage of the paper's hybrid compressor: floating-point
embedding values are mapped to integer bin indices such that reconstruction
error never exceeds the user's absolute error bound.  With bin width
``2 * eb`` and round-to-nearest,

    codes = round(x / (2 * eb))        reconstruction: 2 * eb * codes

satisfies ``|x - x_hat| <= eb`` (up to one float32 ULP when casting the
reconstruction back to the input dtype).  This matches the SZ-family
"linear-scaling quantization" the paper builds on, minus prediction — the
paper's observation ❶ (*false prediction*) is precisely that Lorenzo-style
prediction hurts embedding batches, so the hybrid compressor quantizes raw
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.compression.serialization import CorruptPayloadError

__all__ = [
    "quantize",
    "dequantize",
    "check_error_bound",
    "QuantizedBatch",
    "quantize_batch",
    "DEFAULT_MAX_ALPHABET",
]

#: Largest quantization alphabet the lossless encoders accept.  An error
#: bound tiny relative to the value range explodes the bin count, and a
#: multi-million-symbol alphabet silently turns Huffman codebook
#: construction into a memory/time bomb — fail fast instead.
DEFAULT_MAX_ALPHABET = 1 << 22


def quantize(array: np.ndarray, error_bound: float) -> np.ndarray:
    """Quantize floats to int64 bin indices with absolute bound ``error_bound``.

    Raises ``ValueError`` on non-finite input: embedding lookups are always
    finite, and silently quantizing NaN would corrupt training.  So is a
    bound that is not finite and > 0: an infinite one maps every value to
    bin 0 and reconstructs NaN.
    """
    if not 0.0 < error_bound < math.inf:
        raise ValueError(f"error_bound must be finite and > 0, got {error_bound!r}")
    array = np.asarray(array)
    if not np.isfinite(array).all():
        raise ValueError("quantize: input contains NaN/inf")
    # Work in float64 so the bin computation itself adds no error beyond
    # rounding; the bound then holds to within one output-dtype ULP.  One
    # private float64 buffer, updated in place: fresh temporaries cost more
    # than the arithmetic on exchange-sized batches.
    scaled = np.array(array, dtype=np.float64)
    scaled /= 2.0 * error_bound
    np.rint(scaled, out=scaled)
    return scaled.astype(np.int64)


def check_error_bound(error_bound: object) -> None:
    """Raise ``CorruptPayloadError`` unless ``error_bound``, read from a
    frame header, is a finite number > 0 (no encoder writes another)."""
    if not (isinstance(error_bound, (int, float)) and 0.0 < error_bound < math.inf):
        raise CorruptPayloadError(f"error bound {error_bound!r} is not finite and > 0")


def dequantize(codes: np.ndarray, error_bound, dtype: np.dtype) -> np.ndarray:
    """Invert :func:`quantize`: bin centres ``2 * error_bound * codes``,
    computed in float64 and cast to ``dtype``.  ``error_bound`` may be an
    array broadcasting against ``codes`` (one bound per stream row).

    The bound is read from a frame header, so one that is not finite and
    > 0 (no encoder writes it) raises ``CorruptPayloadError``.
    """
    if not isinstance(error_bound, np.ndarray):
        check_error_bound(error_bound)
    elif not bool(((error_bound > 0.0) & (error_bound < math.inf)).all()):
        raise CorruptPayloadError(f"error bound {error_bound!r} is not finite and > 0")
    return (codes.astype(np.float64) * (2.0 * error_bound)).astype(dtype)


@dataclass(frozen=True)
class QuantizedBatch:
    """A quantized 2-D batch plus everything needed to reconstruct it.

    ``codes`` are *offset-shifted* to be non-negative (``raw_code - code_min``)
    so downstream lossless encoders can treat them as a dense unsigned
    alphabet of size ``alphabet_size``.
    """

    codes: np.ndarray
    code_min: int
    error_bound: float
    shape: tuple[int, ...]
    dtype: np.dtype

    @property
    def alphabet_size(self) -> int:
        return int(self.codes.max()) + 1 if self.codes.size else 1


def quantize_batch(array: np.ndarray, error_bound: float) -> QuantizedBatch:
    """Quantize a 2-D float batch into a :class:`QuantizedBatch`.

    Raises ``ValueError`` when the implied alphabet (``max - min + 1`` over
    the quantized bins) exceeds :data:`DEFAULT_MAX_ALPHABET`: an error bound
    that is tiny relative to the value range would otherwise hand the
    downstream entropy coder a multi-million-symbol alphabet.
    """
    array = np.asarray(array)
    codes = quantize(array, error_bound)
    code_min = int(codes.min()) if codes.size else 0
    if codes.size:
        alphabet = int(codes.max()) - code_min + 1
        if alphabet > DEFAULT_MAX_ALPHABET:
            raise ValueError(
                f"quantize_batch: error_bound={error_bound!r} yields an alphabet of "
                f"{alphabet} symbols (> max_alphabet={DEFAULT_MAX_ALPHABET}); the bound is "
                "too tight for this value range — loosen it"
            )
    shifted = (codes - code_min).astype(np.int64)
    return QuantizedBatch(
        codes=shifted,
        code_min=code_min,
        error_bound=float(error_bound),
        shape=array.shape,
        dtype=array.dtype,
    )
