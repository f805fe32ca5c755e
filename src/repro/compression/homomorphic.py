"""The aggregation-friendly (homomorphic) codec for the dense all-reduce.

THC and the lossless-homomorphic-compression line of work (PAPERS.md)
observe that an all-reduce over *compressed* gradients only works when the
compressed representation sums: ``decode(agg_sum(e(a), e(b))) ~ a + b``.
Ordinary error-bounded codecs force every intermediate rank (or switch hop)
to decompress, sum, and recompress; a homomorphic codec aggregates payloads
directly, so a reduction of ``k`` leaves pays **one** encode per leaf and
**one** decode at the end, no matter how many hops the fabric inserts.

``quant_sum`` is uniform quantization on a *shared scale*:
``codes = round(x / (2 eb))`` stored in the narrowest integer dtype that
fits.  Payload aggregation is exact integer addition of codes, so the
per-leaf bound composes in closed form: a payload holding ``terms``
aggregated leaves reconstructs within ``terms * eb`` of the exact sum —
independent of fold order and hop count, because integer addition is
associative and commutative.  On inputs that sit on the grid the sum is
exact.  The overflow guard ``cmax`` composes by integer addition too, so
aggregated payload *bytes* are a pure function of the leaf multiset — the
Hypothesis laws in ``tests/compression/test_homomorphic_laws.py`` pin
commutativity, associativity, fold-order/hop-count independence, bound
composition, and the ``k = 1`` degeneracy at the byte level.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.compression.base import (
    Compressor,
    _frame_layout,
    frame_payload,
    header_float,
    header_int,
    parse_payload,
)
from repro.compression.quantizer import quantize
from repro.compression.serialization import CorruptPayloadError

__all__ = ["QuantSumCompressor", "agg_sum", "agg_fold"]

#: aggregation headroom: payloads refuse to aggregate past this many leaves
#: (the composed ``cmax`` guard keeps the int64 code sums from wrapping)
MAX_TERMS = 1 << 29

#: overflow guard ceiling for composed code magnitude bounds
_GUARD_LIMIT = 1 << 62


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _narrowest_int(codes: np.ndarray) -> np.ndarray:
    """Store integer codes in the narrowest signed dtype that fits."""
    peak = int(np.abs(codes).max()) if codes.size else 0
    for candidate in (np.int8, np.int16, np.int32):
        if peak <= np.iinfo(candidate).max:
            return codes.astype(candidate)
    return codes.astype(np.int64)


class QuantSumCompressor(Compressor):
    """Shared-scale uniform-quantized integers that sum in compressed space.

    Leaf encode rounds to the grid ``2 * error_bound`` (error <= eb per
    leaf); aggregation adds the integer codes exactly, so a ``terms``-leaf
    payload decodes within ``terms * eb`` of the exact sum.  Payloads with
    different scales refuse to aggregate (the shared scale *is* the
    homomorphism).
    """

    name = "quant_sum"
    lossy = True
    error_bounded = True

    def _compress_body(
        self, array: np.ndarray, error_bound: float | None
    ) -> tuple[dict[str, Any], Any]:
        if array.size:
            peak = float(np.abs(array).max()) / (2.0 * float(error_bound))
            _require(
                peak < float(_GUARD_LIMIT),
                f"{self.name}: |x|/scale up to {peak:.3g} exceeds the int64 code range; "
                "raise error_bound",
            )
        codes = quantize(array, error_bound)
        narrow = _narrowest_int(codes)
        cmax = int(np.abs(codes).max()) if codes.size else 0
        meta = {
            "scale": 2.0 * float(error_bound),
            "terms": 1,
            "cdtype": narrow.dtype.str,
            "cmax": cmax,
        }
        return meta, narrow

    def _decompress_body(
        self,
        header: dict[str, Any],
        body: memoryview,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        centres = self._codes(header, body, shape).astype(np.float64) * self._scale(header)
        return centres.astype(dtype).reshape(shape)

    def _codes(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...]
    ) -> np.ndarray:
        """The body read as the header's codes, one per element of ``shape``
        (counted in Python integers, so no declared shape wraps to 0)."""
        count = math.prod(shape)
        cdtype = self._code_dtype(header)
        if len(body) != count * cdtype.itemsize:
            raise CorruptPayloadError(
                f"{self.name}: body holds {len(body)} bytes, but {count} {cdtype.str} "
                f"codes end at byte {count * cdtype.itemsize}"
            )
        return np.frombuffer(body, dtype=cdtype)

    def _scale(self, header: dict[str, Any]) -> float:
        """The header's grid step ``2 * eb``, which must be finite and > 0."""
        scale = header_float(self.name, header, "scale")
        if not 0.0 < scale < math.inf:
            raise CorruptPayloadError(f"{self.name}: scale {scale!r} is not finite and > 0")
        return scale

    def _code_dtype(self, header: dict[str, Any]) -> np.dtype:
        """The header's code dtype, which must be a signed integer."""
        try:
            cdtype = np.dtype(header["cdtype"])
        except (TypeError, ValueError):
            cdtype = None
        if cdtype is None or cdtype.kind != "i":
            raise CorruptPayloadError(
                f"{self.name}: code dtype {header['cdtype']!r} is not a signed integer"
            )
        return cdtype

    def _terms(self, header: dict[str, Any]) -> int:
        """The header's leaf count, an integer in ``[1, MAX_TERMS]``."""
        terms = header_int(self.name, header, "terms")
        if not 1 <= terms <= MAX_TERMS:
            raise CorruptPayloadError(
                f"{self.name}: terms {terms!r} is not an integer in [1, {MAX_TERMS}]"
            )
        return terms

    def _cmax(self, header: dict[str, Any]) -> int:
        """The header's code magnitude bound, an integer ``>= 0``."""
        cmax = header_int(self.name, header, "cmax")
        if cmax < 0:
            raise CorruptPayloadError(f"{self.name}: cmax {cmax!r} is negative")
        return cmax

    def agg_payloads(self, payload_a, payload_b) -> bytes:
        """Sum two payloads without decoding either; returns a framed payload.

        Both must be ``quant_sum`` frames of identical shape, dtype and
        scale.  The result's ``terms`` header counts the aggregated leaves,
        so its worst-case error is ``terms * scale / 2``.  It is a pure
        function of the *multiset* of leaves that went into the operands —
        byte-identical for any association order — so intermediate ranks and
        in-network aggregators never decode.
        """
        header_a, body_a = parse_payload(payload_a)
        header_b, body_b = parse_payload(payload_b)
        layouts, terms = [], 0
        for header in (header_a, header_b):
            _require(
                header["codec"] == self.name,
                f"agg_sum: payload codec {header['codec']!r} != {self.name!r}",
            )
            # Each operand is a frame: a field no encoder writes is corrupt.
            layouts.append(_frame_layout(self.name, header))
            terms += self._terms(header)
        (shape, dtype), (shape_b, dtype_b) = layouts
        _require(shape == shape_b, f"agg_sum: payload shapes differ: {shape} vs {shape_b}")
        _require(
            dtype == dtype_b,
            f"agg_sum: payload dtypes differ: {header_a['dtype']} vs {header_b['dtype']}",
        )
        _require(
            terms <= MAX_TERMS,
            f"agg_sum: {terms} aggregated leaves exceeds MAX_TERMS={MAX_TERMS}",
        )
        scale = self._scale(header_a)
        _require(
            scale == self._scale(header_b),
            f"agg_sum: {self.name} payloads must share a scale, got "
            f"{header_a['scale']!r} vs {header_b['scale']!r}",
        )
        cmax = self._cmax(header_a) + self._cmax(header_b)
        _require(
            cmax < _GUARD_LIMIT,
            f"agg_sum: composed code magnitude bound {cmax} would risk int64 overflow",
        )
        codes_a = self._codes(header_a, body_a, shape)
        codes_b = self._codes(header_b, body_b, shape)
        narrow = _narrowest_int(codes_a.astype(np.int64) + codes_b.astype(np.int64))
        meta = {"scale": scale, "cdtype": narrow.dtype.str, "cmax": cmax, "terms": terms}
        return frame_payload(self.name, shape, dtype, meta, narrow)


# ---------------------------------------------------------------- module API

#: sum two ``quant_sum`` payloads in compressed space (see
#: :meth:`QuantSumCompressor.agg_payloads`)
agg_sum = QuantSumCompressor().agg_payloads


def agg_fold(payloads) -> bytes:
    """Fold ``k`` payloads with :func:`agg_sum` (left fold; the result is
    byte-identical for *any* fold order).  ``k = 1`` returns the payload
    unchanged — the degenerate identity the property tests pin."""
    payloads = list(payloads)
    if not payloads:
        raise ValueError("agg_fold: need at least one payload")
    total = payloads[0]
    for payload in payloads[1:]:
        total = agg_sum(total, payload)
    return bytes(total)
