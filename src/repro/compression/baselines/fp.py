"""Low-precision casting baselines: FP16 and FP8 (E4M3).

These are the paper's "low-precision approach" baselines: fixed-rate (2x and
4x from float32), no error bound, no adaptivity.  FP8 uses the E4M3 format
of Micikevicius et al. (1 sign, 4 exponent bits with bias 7, 3 mantissa
bits; max finite 448; no infinities).  Conversion rounds to the nearest
representable value, implemented exactly via the 256-entry value table.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compression.base import Compressor, check_body_nbytes

__all__ = ["Fp16Compressor", "Fp8Compressor", "e4m3_value_table", "float32_to_e4m3", "e4m3_to_float32"]


def e4m3_value_table() -> np.ndarray:
    """The 256 E4M3 code values as float32; NaN codes map to NaN."""
    codes = np.arange(256, dtype=np.uint16)
    sign = np.where(codes & 0x80, -1.0, 1.0)
    exp_field = ((codes >> 3) & 0xF).astype(np.int64)
    man_field = (codes & 0x7).astype(np.float64)
    subnormal = exp_field == 0
    values = np.where(
        subnormal,
        man_field / 8.0 * 2.0**-6,
        (1.0 + man_field / 8.0) * 2.0 ** (exp_field - 7.0),
    )
    values = sign * values
    # S.1111.111 encodes NaN in E4M3 (there is no infinity).
    values[(exp_field == 15) & (man_field == 7)] = np.nan
    return values.astype(np.float32)


_E4M3_VALUES = e4m3_value_table()
_FINITE_MASK = np.isfinite(_E4M3_VALUES)
_SORTED_VALUES = np.sort(_E4M3_VALUES[_FINITE_MASK])
_SORTED_CODES = np.argsort(_E4M3_VALUES[_FINITE_MASK], kind="stable")
_FINITE_CODES = np.flatnonzero(_FINITE_MASK).astype(np.uint8)


def float32_to_e4m3(array: np.ndarray) -> np.ndarray:
    """Encode float32 values to E4M3 codes, rounding to nearest value.

    Out-of-range magnitudes saturate to +/-448 (no infinities in E4M3).
    """
    array = np.asarray(array, dtype=np.float32)
    if not np.isfinite(array).all():
        raise ValueError("float32_to_e4m3: input contains NaN/inf")
    flat = array.ravel().astype(np.float64)
    clipped = np.clip(flat, -448.0, 448.0)
    idx = np.searchsorted(_SORTED_VALUES, clipped)
    idx = np.clip(idx, 1, _SORTED_VALUES.size - 1)
    left = _SORTED_VALUES[idx - 1].astype(np.float64)
    right = _SORTED_VALUES[idx].astype(np.float64)
    pick_left = (clipped - left) <= (right - clipped)
    chosen_sorted = np.where(pick_left, idx - 1, idx)
    codes = _FINITE_CODES[_SORTED_CODES[chosen_sorted]]
    return codes.reshape(array.shape)


def e4m3_to_float32(codes: np.ndarray) -> np.ndarray:
    """Decode E4M3 codes back to float32 values."""
    codes = np.asarray(codes, dtype=np.uint8)
    return _E4M3_VALUES[codes.astype(np.int64)]


class Fp16Compressor(Compressor):
    """Cast to IEEE half precision: fixed 2x reduction from float32."""

    name = "fp16"
    lossy = True
    error_bounded = False

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[dict[str, Any], bytes]:
        return {}, array.astype(np.float16)

    def _decompress_body(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        check_body_nbytes(self.name, body, shape, 2)
        return np.frombuffer(body, dtype=np.float16).reshape(shape).astype(dtype)


class Fp8Compressor(Compressor):
    """Cast to E4M3 8-bit floats: fixed 4x reduction from float32."""

    name = "fp8"
    lossy = True
    error_bounded = False

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[dict[str, Any], bytes]:
        return {}, float32_to_e4m3(array.astype(np.float32))

    def _decompress_body(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        check_body_nbytes(self.name, body, shape, 1)
        codes = np.frombuffer(body, dtype=np.uint8).reshape(shape)
        return e4m3_to_float32(codes).astype(dtype)
