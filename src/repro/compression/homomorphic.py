"""Aggregation-friendly (homomorphic) codecs for the dense all-reduce.

THC and the lossless-homomorphic-compression line of work (PAPERS.md)
observe that an all-reduce over *compressed* gradients only works when the
compressed representation sums: ``decode(agg_sum(e(a), e(b))) ~ a + b``.
Ordinary error-bounded codecs force every intermediate rank (or switch hop)
to decompress, sum, and recompress; a homomorphic codec aggregates payloads
directly, so a reduction of ``k`` leaves pays **one** encode per leaf and
**one** decode at the end, no matter how many hops the fabric inserts.

Two codecs share the payload algebra:

``quant_sum`` (lossy, error-bounded)
    Uniform quantization on a *shared scale*: ``codes = round(x / (2 eb))``
    stored in the narrowest integer dtype that fits.  Payload aggregation
    is exact integer addition of codes, so the per-leaf bound composes in
    closed form: a payload holding ``terms`` aggregated leaves reconstructs
    within ``terms * eb`` of the exact sum — independent of fold order and
    hop count, because integer addition is associative and commutative.

``count_sum`` (lossless)
    An exact fixed-point accumulator ("count-sum sketch" degenerated to
    full rank): every float is decomposed *exactly* onto a fixed global
    dyadic grid (``2**-149`` for float32 inputs, ``2**-1074`` for float64 —
    the subnormal ULP, so the decomposition is always exact) as base-``2**32``
    signed limbs held in int64 with carry headroom for ``2**29`` leaves.
    Aggregation is elementwise limb addition — exact, order-independent —
    and decode performs a single correctly-rounded conversion of the exact
    integer sum, so the result is *bit-identical* for every fold order and
    equals ``float32(math.fsum(leaves))`` elementwise.  The composed error
    bound is 0.  The trade: limbs cost more wire bytes than the raw floats
    (the window is trimmed per payload, but exactness is the product here;
    ``quant_sum`` is the byte-ratio codec).

Both codecs compose their overflow guards (``cmax`` / ``lmax``) by integer
addition too, so aggregated payload *bytes* are a pure function of the leaf
multiset — the Hypothesis laws in
``tests/compression/test_homomorphic_laws.py`` pin commutativity,
associativity, fold-order/hop-count independence, bound composition, and
the ``k = 1`` degeneracy at the byte level.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compression.base import Compressor, frame_payload, parse_payload
from repro.compression.quantizer import quantize

__all__ = [
    "HomomorphicCompressor",
    "QuantSumCompressor",
    "CountSumCompressor",
    "agg_sum",
    "agg_fold",
    "composed_bound",
    "homomorphic_codecs",
]

#: aggregation headroom: payloads refuse to aggregate past this many leaves
#: so int64 limb/code accumulators can never wrap (2**32 * 2**29 < 2**62).
MAX_TERMS = 1 << 29

#: overflow guard ceiling for composed code/limb magnitude bounds
_GUARD_LIMIT = 1 << 62

_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


class HomomorphicCompressor(Compressor):
    """Base for codecs whose payloads support :func:`agg_sum`.

    Subclasses implement ``_agg_meta_body`` (sum two parsed payloads) and
    ``_header_bound`` (per-payload composed reconstruction bound); the base
    provides payload-level aggregation with shape/dtype/codec checks, the
    closed-form bound accessor, and pooled decode scratch.
    """

    homomorphic = True

    # ------------------------------------------------------------ algebra

    def agg_payloads(self, payload_a, payload_b) -> bytes:
        """Sum two payloads in compressed space; returns a framed payload.

        The result is a pure function of the *multiset* of leaves that went
        into the operands — byte-identical for any association order — so
        intermediate ranks and in-network aggregators never decode.
        """
        header_a, body_a = parse_payload(payload_a)
        header_b, body_b = parse_payload(payload_b)
        for header in (header_a, header_b):
            _require(
                header["codec"] == self.name,
                f"agg_sum: payload codec {header['codec']!r} != {self.name!r}",
            )
        shape = tuple(int(s) for s in header_a["shape"])
        _require(
            shape == tuple(int(s) for s in header_b["shape"]),
            f"agg_sum: payload shapes differ: {shape} vs "
            f"{tuple(int(s) for s in header_b['shape'])}",
        )
        _require(
            header_a["dtype"] == header_b["dtype"],
            f"agg_sum: payload dtypes differ: {header_a['dtype']} vs {header_b['dtype']}",
        )
        terms = int(header_a["terms"]) + int(header_b["terms"])
        _require(
            terms <= MAX_TERMS,
            f"agg_sum: {terms} aggregated leaves exceeds MAX_TERMS={MAX_TERMS}",
        )
        meta, body = self._agg_meta_body(header_a, body_a, header_b, body_b, shape)
        meta["terms"] = terms
        return frame_payload(self.name, shape, np.dtype(header_a["dtype"]), meta, body)

    def payload_bound(self, payload) -> float:
        """Closed-form reconstruction bound of a (possibly aggregated)
        payload: ``terms * per-leaf bound`` (0.0 for the lossless codec)."""
        header, _ = parse_payload(payload)
        _require(
            header["codec"] == self.name,
            f"payload codec {header['codec']!r} != {self.name!r}",
        )
        return self._header_bound(header)

    def payload_terms(self, payload) -> int:
        """How many leaves were aggregated into this payload."""
        header, _ = parse_payload(payload)
        return int(header["terms"])

    # ------------------------------------------------------ pooled decode

    def decompress_into(self, payload, *, pool):
        """Decode into a pooled scratch array; returns ``(lease, array)``.

        The *output* array is leased from ``pool`` instead of allocated per
        call (ROADMAP 5b's pooled-decompress-scratch follow-up, scoped to
        the dense path).  The array is a view into the lease's arena: the
        caller must copy out or finish with it before ``lease.release()``,
        and must drop the view (``del``) before releasing if the arena
        should be recycled cleanly.  Values are byte-identical to
        :meth:`decompress`.
        """
        header, body = parse_payload(payload)
        _require(
            header["codec"] == self.name,
            f"payload was produced by codec {header['codec']!r}, not {self.name!r}",
        )
        shape = tuple(int(s) for s in header["shape"])
        dtype = np.dtype(header["dtype"])
        lease, out = pool.checkout_array(shape, dtype)
        out[...] = self._decompress_body(header, body, shape, dtype)
        return lease, out

    # ----------------------------------------------------------- subclass

    def _agg_meta_body(
        self,
        header_a: dict[str, Any],
        body_a: memoryview,
        header_b: dict[str, Any],
        body_b: memoryview,
        shape: tuple[int, ...],
    ) -> tuple[dict[str, Any], Any]:
        raise NotImplementedError

    def _header_bound(self, header: dict[str, Any]) -> float:
        raise NotImplementedError


def _narrowest_int(codes: np.ndarray) -> np.ndarray:
    """Store integer codes in the narrowest signed dtype that fits."""
    peak = int(np.abs(codes).max()) if codes.size else 0
    for candidate in (np.int8, np.int16, np.int32):
        if peak <= np.iinfo(candidate).max:
            return codes.astype(candidate)
    return codes.astype(np.int64)


class QuantSumCompressor(HomomorphicCompressor):
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
        self, array: np.ndarray, error_bound: float | None, key=None
    ) -> tuple[dict[str, Any], Any]:
        if array.size:
            peak = float(np.abs(array).max()) / (2.0 * float(error_bound))
            _require(
                peak < float(_GUARD_LIMIT),
                f"{self.name}: |x|/scale up to {peak:.3g} exceeds the int64 code range; "
                "raise error_bound or use count_sum",
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
        count = int(np.prod(shape, dtype=np.int64))
        codes = np.frombuffer(body, dtype=np.dtype(header["cdtype"]))
        _require(
            codes.size == count,
            f"{self.name}: body holds {codes.size} codes, expected {count}",
        )
        centres = codes.astype(np.float64) * float(header["scale"])
        return centres.astype(dtype).reshape(shape)

    def _agg_meta_body(self, header_a, body_a, header_b, body_b, shape):
        _require(
            float(header_a["scale"]) == float(header_b["scale"]),
            f"agg_sum: {self.name} payloads must share a scale, got "
            f"{header_a['scale']!r} vs {header_b['scale']!r}",
        )
        cmax = int(header_a["cmax"]) + int(header_b["cmax"])
        _require(
            cmax < _GUARD_LIMIT,
            f"agg_sum: composed code magnitude bound {cmax} would risk int64 overflow",
        )
        count = int(np.prod(shape, dtype=np.int64))
        codes_a = np.frombuffer(body_a, dtype=np.dtype(header_a["cdtype"]))
        codes_b = np.frombuffer(body_b, dtype=np.dtype(header_b["cdtype"]))
        _require(
            codes_a.size == count and codes_b.size == count,
            f"agg_sum: {self.name} body size mismatch",
        )
        total = codes_a.astype(np.int64) + codes_b.astype(np.int64)
        meta = {
            "scale": float(header_a["scale"]),
            "cdtype": "",  # replaced below; narrowing depends on the sum
            "cmax": cmax,
        }
        narrow = _narrowest_int(total)
        meta["cdtype"] = narrow.dtype.str
        return meta, narrow

    def _header_bound(self, header: dict[str, Any]) -> float:
        return int(header["terms"]) * float(header["scale"]) / 2.0


#: fixed dyadic grid per input dtype: the subnormal ULP, so *every* finite
#: value of the dtype sits exactly on the grid and encode is exact.
_GRID_EXP = {"<f4": -149, "<f8": -1074}
#: limb-space size per grid exponent (covers the dtype's full magnitude range)
_MAX_LIMBS = {-149: 10, -1074: 66}


def _grid_exp(dtype: np.dtype) -> int:
    key = np.dtype(dtype).newbyteorder("<").str
    try:
        return _GRID_EXP[key]
    except KeyError:  # pragma: no cover - _validate already rejects
        raise TypeError(f"count_sum: unsupported dtype {dtype}") from None


class CountSumCompressor(HomomorphicCompressor):
    """Exact fixed-point accumulators: lossless and order-independent.

    Every value is decomposed exactly as ``M * 2**grid_exp`` with integer
    ``M`` spread over signed base-``2**32`` limbs (carry-save in int64, so
    up to ``MAX_TERMS`` payloads aggregate with plain elementwise adds and
    can never wrap).  Decode recombines the exact integer and performs one
    correctly-rounded conversion, hence ``decode(fold(any order)) ==
    dtype(fsum(leaves))`` bitwise.  Payloads store only the limb window
    actually touched (``w0``/``wlen``).
    """

    name = "count_sum"
    lossy = False
    error_bounded = False

    def _compress_body(
        self, array: np.ndarray, error_bound: float | None, key=None
    ) -> tuple[dict[str, Any], Any]:
        if array.size and not np.isfinite(array).all():
            raise ValueError(f"{self.name}: input contains NaN/inf")
        grid = _grid_exp(array.dtype)
        values = np.ascontiguousarray(array, dtype=np.float64).ravel()
        mant, exp = np.frexp(values)
        mant_int = (mant * float(1 << 53)).astype(np.int64)  # exact: <= 53 bits
        shift = exp.astype(np.int64) - 53 - grid
        # Negative shifts only happen when the trailing mantissa bits are
        # zero (the value sits on a coarser grid point): shift right exactly.
        if (shift < 0).any():
            mant_int >>= np.where(shift < 0, -shift, 0)
            shift = np.maximum(shift, 0)
        sign = np.sign(mant_int)
        amant = np.abs(mant_int)
        q, r = shift >> 5, shift & 31
        nonzero = amant != 0
        if not nonzero.any():
            meta = {"terms": 1, "w0": 0, "wlen": 0, "sexp": grid, "lmax": 0}
            return meta, b""
        w0 = int(q[nonzero].min())
        wend = int(q[nonzero].max()) + 3  # lo spans q..q+1, hi spans q+1..q+2
        _require(wend <= _MAX_LIMBS[grid], f"{self.name}: limb window out of range")
        wlen = wend - w0
        # Zero elements contribute nothing but would still *index* outside
        # the trimmed window — park them on its first limb.
        q = np.where(nonzero, q, w0)
        limbs = np.zeros((wlen, values.size), dtype=np.int64)
        idx = np.arange(values.size)
        lo_part = (amant & _LIMB_MASK) << r  # <= 63 bits
        hi_part = (amant >> _LIMB_BITS) << r  # <= 52 bits
        for base, part in ((0, lo_part), (1, hi_part)):
            np.add.at(limbs, (q - w0 + base, idx), sign * (part & _LIMB_MASK))
            np.add.at(limbs, (q - w0 + base + 1, idx), sign * (part >> _LIMB_BITS))
        lmax = int(np.abs(limbs).max()) if limbs.size else 0
        meta = {"terms": 1, "w0": w0, "wlen": wlen, "sexp": grid, "lmax": lmax}
        return meta, limbs

    def _parse_limbs(
        self, header: dict[str, Any], body: memoryview, count: int
    ) -> np.ndarray:
        wlen = int(header["wlen"])
        limbs = np.frombuffer(body, dtype=np.int64)
        _require(
            limbs.size == wlen * count,
            f"{self.name}: body holds {limbs.size} limbs, expected {wlen * count}",
        )
        return limbs.reshape(wlen, count)

    def _decompress_body(
        self,
        header: dict[str, Any],
        body: memoryview,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64))
        wlen = int(header["wlen"])
        if wlen == 0 or count == 0:
            return np.zeros(shape, dtype=dtype)
        limbs = self._parse_limbs(header, body, count)
        exp = _LIMB_BITS * int(header["w0"]) + int(header["sexp"])
        # Fast path: the whole integer fits int64 — one correctly-rounded
        # int64 -> float64 conversion plus an exact power-of-two scale.
        # (Restricted to the float32 grid: its values can never land in the
        # float64 subnormal range, so ldexp introduces no second rounding.)
        if (
            int(header["sexp"]) == _GRID_EXP["<f4"]
            and wlen <= 2
            and int(header["lmax"]) < (1 << 29)
        ):
            total = limbs[0].copy()
            if wlen == 2:
                total += limbs[1] << _LIMB_BITS
            return np.ldexp(total.astype(np.float64), exp).astype(dtype).reshape(shape)
        # Exact path: recombine arbitrary-precision integers, then one
        # correctly-rounded division (Python int / int) per element.
        exact = limbs[0].astype(object)
        for i in range(1, wlen):
            exact = exact + limbs[i].astype(object) * (1 << (_LIMB_BITS * i))
        out = np.empty(count, dtype=np.float64)
        if exp >= 0:
            mul = 1 << exp
            for i, m in enumerate(exact.tolist()):
                out[i] = float(m * mul)
        else:
            den = 1 << (-exp)
            try:
                for i, m in enumerate(exact.tolist()):
                    out[i] = m / den
            except OverflowError:
                raise ValueError(
                    f"{self.name}: aggregated sum overflows the float range"
                ) from None
        return out.astype(dtype).reshape(shape)

    def _agg_meta_body(self, header_a, body_a, header_b, body_b, shape):
        _require(
            int(header_a["sexp"]) == int(header_b["sexp"]),
            f"agg_sum: {self.name} payloads must share a grid exponent",
        )
        lmax = int(header_a["lmax"]) + int(header_b["lmax"])
        _require(
            lmax < _GUARD_LIMIT,
            f"agg_sum: composed limb magnitude bound {lmax} would risk int64 overflow",
        )
        count = int(np.prod(shape, dtype=np.int64))
        wlen_a, wlen_b = int(header_a["wlen"]), int(header_b["wlen"])
        w0_a, w0_b = int(header_a["w0"]), int(header_b["w0"])
        meta = {"sexp": int(header_a["sexp"]), "lmax": lmax}
        if wlen_a == 0 and wlen_b == 0:
            meta.update(w0=0, wlen=0)
            return meta, b""
        if wlen_a == 0:
            meta.update(w0=w0_b, wlen=wlen_b)
            return meta, self._parse_limbs(header_b, body_b, count).copy()
        if wlen_b == 0:
            meta.update(w0=w0_a, wlen=wlen_a)
            return meta, self._parse_limbs(header_a, body_a, count).copy()
        w0 = min(w0_a, w0_b)
        wend = max(w0_a + wlen_a, w0_b + wlen_b)
        limbs = np.zeros((wend - w0, count), dtype=np.int64)
        limbs[w0_a - w0 : w0_a - w0 + wlen_a] += self._parse_limbs(header_a, body_a, count)
        limbs[w0_b - w0 : w0_b - w0 + wlen_b] += self._parse_limbs(header_b, body_b, count)
        meta.update(w0=w0, wlen=wend - w0)
        return meta, limbs

    def _header_bound(self, header: dict[str, Any]) -> float:
        return 0.0


# ---------------------------------------------------------------- module API

_HOMOMORPHIC: dict[str, HomomorphicCompressor] = {
    QuantSumCompressor.name: QuantSumCompressor(),
    CountSumCompressor.name: CountSumCompressor(),
}


def homomorphic_codecs() -> tuple[str, ...]:
    """Registry names of the codecs whose payloads support :func:`agg_sum`."""
    return tuple(sorted(_HOMOMORPHIC))


def _codec_of(payload) -> HomomorphicCompressor:
    header, _ = parse_payload(payload)
    name = header["codec"]
    try:
        return _HOMOMORPHIC[name]
    except KeyError:
        raise ValueError(
            f"payload codec {name!r} is not homomorphic; "
            f"aggregatable codecs: {sorted(_HOMOMORPHIC)}"
        ) from None


def agg_sum(payload_a, payload_b) -> bytes:
    """Sum two compressed payloads without decoding either.

    Both must come from the same homomorphic codec with identical shape,
    dtype, and scale/grid.  The result is again a payload of that codec;
    its ``terms`` header counts the aggregated leaves and drives the
    closed-form :func:`composed_bound`.
    """
    return _codec_of(payload_a).agg_payloads(payload_a, payload_b)


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


def composed_bound(payload) -> float:
    """Closed-form worst-case |decode(payload) - exact sum of its leaves|:
    ``terms * eb`` for ``quant_sum``, exactly ``0.0`` for ``count_sum``."""
    return _codec_of(payload).payload_bound(payload)
