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

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "quantize",
    "dequantize",
    "QuantizedBatch",
    "quantize_batch",
    "relative_to_absolute_bound",
    "DEFAULT_MAX_ALPHABET",
]

#: Largest quantization alphabet the lossless encoders accept.  An error
#: bound tiny relative to the value range explodes the bin count, and a
#: multi-million-symbol alphabet silently turns Huffman codebook
#: construction into a memory/time bomb — fail fast instead.
DEFAULT_MAX_ALPHABET = 1 << 22


def relative_to_absolute_bound(array: np.ndarray, relative_bound: float) -> float:
    """Convert a value-range-relative bound to the absolute bound SZ-style
    compressors take: ``abs_eb = rel_eb * (max - min)``.

    The paper configures absolute bounds; this helper supports the common
    alternative convention so callers can express tolerance as a fraction
    of each table's value range.  Degenerate (constant) inputs fall back to
    scaling the magnitude, so the result is always positive.
    """
    check_positive("relative_bound", relative_bound)
    array = np.asarray(array)
    if array.size == 0:
        raise ValueError("cannot derive a bound from an empty array")
    if not np.isfinite(array).all():
        raise ValueError("relative_to_absolute_bound: input contains NaN/inf")
    value_range = float(array.max() - array.min())
    if value_range == 0.0:
        value_range = max(abs(float(array.ravel()[0])), 1.0)
    return relative_bound * value_range


def quantize(array: np.ndarray, error_bound: float) -> np.ndarray:
    """Quantize floats to int64 bin indices with absolute bound ``error_bound``.

    Raises ``ValueError`` on non-finite input: embedding lookups are always
    finite, and silently quantizing NaN would corrupt training.
    """
    check_positive("error_bound", error_bound)
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


def dequantize(
    codes: np.ndarray, error_bound: float, dtype: np.dtype | type = np.float32
) -> np.ndarray:
    """Reconstruct bin centres from :func:`quantize` output."""
    check_positive("error_bound", error_bound)
    centres = np.asarray(codes, dtype=np.float64) * (2.0 * error_bound)
    return centres.astype(dtype)


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

    def reconstruct(self) -> np.ndarray:
        """Invert the offset shift and dequantize back to the input dtype."""
        raw = self.codes.astype(np.int64) + self.code_min
        return dequantize(raw, self.error_bound, self.dtype).reshape(self.shape)


def quantize_batch(
    array: np.ndarray,
    error_bound: float,
    max_alphabet: int = DEFAULT_MAX_ALPHABET,
) -> QuantizedBatch:
    """Quantize a 2-D float batch into a :class:`QuantizedBatch`.

    Raises ``ValueError`` when the implied alphabet (``max - min + 1`` over
    the quantized bins) exceeds ``max_alphabet``: an error bound that is
    tiny relative to the value range would otherwise hand the downstream
    entropy coder a multi-million-symbol alphabet.  Pass a larger
    ``max_alphabet`` to override.
    """
    array = np.asarray(array)
    codes = quantize(array, error_bound)
    code_min = int(codes.min()) if codes.size else 0
    if codes.size:
        alphabet = int(codes.max()) - code_min + 1
        if alphabet > max_alphabet:
            raise ValueError(
                f"quantize_batch: error_bound={error_bound!r} yields an alphabet of "
                f"{alphabet} symbols (> max_alphabet={max_alphabet}); the bound is too "
                "tight for this value range — loosen it or raise max_alphabet"
            )
    shifted = (codes - code_min).astype(np.int64)
    return QuantizedBatch(
        codes=shifted,
        code_min=code_min,
        error_bound=float(error_bound),
        shape=array.shape,
        dtype=array.dtype,
    )
