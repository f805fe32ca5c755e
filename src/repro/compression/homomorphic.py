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
import struct

import numpy as np

from repro.compression.base import Compressor, frame_payload, parse_payload
from repro.compression.quantizer import quantize
from repro.compression.serialization import CorruptPayloadError

__all__ = ["QuantSumCompressor", "agg_sum", "agg_fold"]

#: aggregation headroom: payloads refuse to aggregate past this many leaves
#: (the composed ``cmax`` guard keeps the int64 code sums from wrapping)
MAX_TERMS = 1 << 29

#: overflow guard ceiling for composed code magnitude bounds
_GUARD_LIMIT = 1 << 62

#: the code dtypes a frame declares, narrowest first, indexed by their code
_CODE_DTYPES = tuple(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _narrowest_int(codes: np.ndarray) -> np.ndarray:
    """Store integer codes in the narrowest signed dtype that fits."""
    peak = int(np.abs(codes).max()) if codes.size else 0
    for candidate in _CODE_DTYPES[:-1]:
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
    #: grid step ``2 * eb``, aggregated leaves, code dtype code, code magnitude bound
    tail = struct.Struct("<dIBQ")

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[tuple, np.ndarray]:
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
        return (2.0 * float(error_bound), 1, _CODE_DTYPES.index(narrow.dtype), cmax), narrow

    def _decompress_body(
        self, tail: tuple, body: memoryview, shape: tuple[int, int], dtype: np.dtype
    ) -> np.ndarray:
        scale, _, code, _ = tail
        centres = self._codes(code, body, shape).astype(np.float64) * self._scale(scale)
        return centres.astype(dtype).reshape(shape)

    def _codes(self, code: int, body: memoryview, shape: tuple[int, int]) -> np.ndarray:
        """The body read as codes of the dtype ``code`` names, one per
        element of ``shape`` (counted in Python integers, so no declared
        shape wraps to 0)."""
        if code >= len(_CODE_DTYPES):
            raise CorruptPayloadError(
                f"{self.name}: code dtype code {code} is not one of 0..{len(_CODE_DTYPES) - 1}"
            )
        cdtype, count = _CODE_DTYPES[code], math.prod(shape)
        if len(body) != count * cdtype.itemsize:
            raise CorruptPayloadError(
                f"{self.name}: body holds {len(body)} bytes, but {count} {cdtype.str} "
                f"codes end at byte {count * cdtype.itemsize}"
            )
        return np.frombuffer(body, dtype=cdtype)

    def _scale(self, scale: float) -> float:
        """The tail's grid step ``2 * eb``, which must be finite and > 0."""
        if not 0.0 < scale < math.inf:
            raise CorruptPayloadError(f"{self.name}: scale {scale!r} is not finite and > 0")
        return scale

    def _operand(self, payload) -> tuple:
        """``(prelude, scale, terms, cmax, codes)`` of one :meth:`agg_payloads`
        operand, read as a frame: a field no encoder writes is corrupt, and
        so are codes past the ``cmax`` the frame declares for them."""
        prelude, body = parse_payload(payload)
        _require(
            prelude.codec == self.name,
            f"agg_sum: payload codec {prelude.codec!r} != {self.name!r}",
        )
        scale, terms, code, cmax = self._read_tail(body)
        if not 1 <= terms <= MAX_TERMS:
            raise CorruptPayloadError(f"{self.name}: terms {terms} is not in [1, {MAX_TERMS}]")
        if cmax >= _GUARD_LIMIT:
            raise CorruptPayloadError(f"{self.name}: cmax {cmax} is not below 2**62")
        codes = self._codes(code, body[self.tail.size :], prelude.shape)
        peak = max(int(codes.max()), -int(codes.min())) if codes.size else 0
        if peak > cmax:
            raise CorruptPayloadError(f"{self.name}: a code of magnitude {peak} exceeds cmax {cmax}")
        return prelude, self._scale(scale), terms, cmax, codes

    def agg_payloads(self, payload_a, payload_b) -> bytes:
        """Sum two payloads without decoding either; returns a framed payload.

        Both must be ``quant_sum`` frames of identical shape, dtype and
        scale.  The result's ``terms`` field counts the aggregated leaves,
        so its worst-case error is ``terms * scale / 2``.  It is a pure
        function of the *multiset* of leaves that went into the operands —
        byte-identical for any association order — so intermediate ranks and
        in-network aggregators never decode.  Each operand's codes are
        checked against its ``cmax``, so the composed bound holds for the
        sum and the int64 addition cannot wrap.
        """
        prelude_a, scale, terms_a, cmax_a, codes_a = self._operand(payload_a)
        prelude_b, scale_b, terms_b, cmax_b, codes_b = self._operand(payload_b)
        shape, dtype = prelude_a.shape, prelude_a.dtype
        _require(shape == prelude_b.shape, f"agg_sum: payload shapes differ: {shape} vs {prelude_b.shape}")
        _require(dtype == prelude_b.dtype, f"agg_sum: payload dtypes differ: {dtype} vs {prelude_b.dtype}")
        terms = terms_a + terms_b
        _require(
            terms <= MAX_TERMS,
            f"agg_sum: {terms} aggregated leaves exceeds MAX_TERMS={MAX_TERMS}",
        )
        _require(
            scale == scale_b,
            f"agg_sum: {self.name} payloads must share a scale, got {scale!r} vs {scale_b!r}",
        )
        cmax = cmax_a + cmax_b
        _require(
            cmax < _GUARD_LIMIT,
            f"agg_sum: composed code magnitude bound {cmax} would risk int64 overflow",
        )
        narrow = _narrowest_int(codes_a.astype(np.int64) + codes_b.astype(np.int64))
        tail = self.tail.pack(scale, terms, _CODE_DTYPES.index(narrow.dtype), cmax)
        return frame_payload(self.name, shape, dtype, tail, narrow)


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
