"""ZFP-family baseline: block transform + fixed-rate coefficient coding.

The paper's background (Section II-B) contrasts two scientific-compressor
families: prediction-based error-bounded (SZ/cuSZ) and transform-based
fixed-rate (ZFP/cuZFP) — "ZFP in fixed-rate mode tends to offer
consistently higher throughput, whereas SZ in error-bounded mode achieves
superior compression ratios."  This codec implements the fixed-rate family
so the selection pool (Algorithm 2 accepts "theoretically any compression
algorithm") contains both:

1. values are grouped in 1-D blocks of 4 (row-major, rows padded);
2. each block is converted to block-floating-point integers under a shared
   exponent;
3. a Walsh-Hadamard-style integer transform decorrelates the block;
4. coefficients are stored sign-magnitude, magnitudes truncated to a
   shared per-block width, so every block spends exactly ``4 * rate``
   bits plus a small header.

Being fixed-rate, it offers **no** absolute error bound (``error_bounded
= False``) — exactly the limitation the paper's error-bounded design
removes — but its ratio is perfectly predictable: ``32 / rate`` for
float32 input, minus header overhead.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compression.base import Compressor
from repro.compression.bitstream import pack_fixed, unpack_fixed

__all__ = ["ZfpLikeCompressor", "block_transform", "inverse_block_transform"]

_BLOCK = 4
#: fixed-point fraction bits under the per-block shared exponent
_FRACTION_BITS = 21


def block_transform(block: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of 4-value integer blocks (exact, +2 bits).

    ``block`` has shape (n_blocks, 4); output coefficients are ordered
    [sum, low-frequency difference, two high-frequency differences].
    """
    a, b, c, d = (block[:, i].astype(np.int64) for i in range(4))
    s1, d1 = a + d, a - d
    s2, d2 = b + c, b - c
    return np.stack([s1 + s2, s1 - s2, d1, d2], axis=1)


def inverse_block_transform(coeffs: np.ndarray) -> np.ndarray:
    """Invert :func:`block_transform` (in float64: truncated coefficients
    do not preserve the parity the exact integer inverse would need)."""
    ss, sd, d1, d2 = (coeffs[:, i].astype(np.float64) for i in range(4))
    s1 = (ss + sd) / 2.0
    s2 = (ss - sd) / 2.0
    a = (s1 + d1) / 2.0
    d = (s1 - d1) / 2.0
    b = (s2 + d2) / 2.0
    c = (s2 - d2) / 2.0
    return np.stack([a, b, c, d], axis=1)


class ZfpLikeCompressor(Compressor):
    """Fixed-rate transform codec (cuZFP family).

    Parameters
    ----------
    rate:
        Stored bits per value (2..28): one sign bit plus ``rate - 1``
        magnitude bits per coefficient.  Compression ratio on float32 input
        is ~``32 / rate``.
    """

    name = "zfp_like"
    lossy = True
    error_bounded = False

    def __init__(self, rate: int = 8):
        if not 2 <= rate <= 28:
            raise ValueError(f"rate must be in [2, 28] bits/value, got {rate}")
        self.rate = int(rate)

    def _compress_body(self, array: np.ndarray, error_bound: float | None, key=None) -> tuple[dict[str, Any], bytes]:
        flat = array.astype(np.float64).ravel()
        if not np.isfinite(flat).all():
            raise ValueError("zfp_like: input contains NaN/inf")
        pad = (-flat.size) % _BLOCK
        padded = np.concatenate([flat, np.zeros(pad)])
        blocks = padded.reshape(-1, _BLOCK)
        # Block-floating point: shared exponent per block.
        max_abs = np.abs(blocks).max(axis=1)
        exponents = np.where(
            max_abs > 0, np.ceil(np.log2(np.maximum(max_abs, 1e-300))), 0.0
        ).astype(np.int64)
        if exponents.size and (exponents.min() < -128 or exponents.max() > 127):
            raise ValueError("zfp_like: value magnitudes outside representable exponent range")
        scales = np.exp2(exponents - _FRACTION_BITS)
        ints = np.rint(blocks / scales[:, None]).astype(np.int64)
        coeffs = block_transform(ints)
        signs = (coeffs < 0).astype(np.uint64)
        mags = np.abs(coeffs).astype(np.uint64)
        # Shared truncation shift per block: the widest magnitude must fit
        # in rate-1 bits (the top bit of each field carries the sign).
        widest = mags.max(axis=1)
        bitlen = np.zeros(blocks.shape[0], dtype=np.int64)
        nonzero = widest > 0
        bitlen[nonzero] = np.floor(
            np.log2(widest[nonzero].astype(np.float64))
        ).astype(np.int64) + 1
        shifts = np.maximum(bitlen - (self.rate - 1), 0).astype(np.uint64)
        fields = (signs << np.uint64(self.rate - 1)) | (mags >> shifts[:, None])
        payload_bits, _ = pack_fixed(fields.ravel(), self.rate)
        meta = {
            "rate": self.rate,
            "n_blocks": int(blocks.shape[0]),
            "pad": int(pad),
            "exponents": exponents.astype(np.int8),
            "shifts": shifts.astype(np.uint8),
        }
        return meta, payload_bits

    def _decompress_body(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        rate = header["rate"]
        n_blocks = header["n_blocks"]
        fields = unpack_fixed(
            np.frombuffer(body, dtype=np.uint8), n_blocks * _BLOCK, rate
        ).reshape(n_blocks, _BLOCK)
        sign_bit = np.uint64(rate - 1)
        signs = (fields >> sign_bit).astype(bool)
        mags = fields & np.uint64((1 << (rate - 1)) - 1)
        shifts = header["shifts"].astype(np.uint64)[:, None]
        # Restore magnitude with midpoint rounding inside the lost bits.
        restored = (mags << shifts).astype(np.int64)
        half = ((np.uint64(1) << np.maximum(shifts, 1)) >> np.uint64(1)).astype(np.int64)
        restored = restored + np.where((shifts > 0) & (mags > 0), half, 0)
        coeffs = np.where(signs, -restored, restored)
        blocks = inverse_block_transform(coeffs)
        scales = np.exp2(header["exponents"].astype(np.int64) - _FRACTION_BITS)
        values = (blocks * scales[:, None]).ravel()
        if header["pad"]:
            values = values[: -header["pad"]]
        return values.reshape(shape).astype(dtype)
