"""Property laws of the homomorphic codec family.

The whole point of ``agg_sum`` is an algebra: payloads form a commutative
semigroup under aggregation, decode is a homomorphism onto (approximate)
elementwise sums, and the error bound composes in closed form.  Every one
of those claims is a Hypothesis law here — the same treatment the chunk
pipeline got:

* ``decode(agg_sum(e(a), e(b)))`` within the composed bound of ``a + b``
  (bit-exact for ``count_sum``, which must equal ``float32(fsum(...))``);
* ``agg_sum`` commutative and associative *at the byte level*;
* k-ary fold results independent of fold order and hop count (any fold
  tree yields identical payload bytes, hence identical decodes);
* the degenerate ``k = 1`` identity;
* ``quant_sum`` payloads refuse to aggregate across scales (the shared
  scale *is* the homomorphism) and compose ``terms * eb`` exactly.

Plus decode ownership: a decoded array, and each rank's all-reduce total,
is a fresh writable array that aliases neither its payload nor any other
result.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    agg_fold,
    agg_sum,
    get_compressor,
    homomorphic_codecs,
)
from repro.compression.base import parse_payload
from repro.dist import ClusterSimulator


def composed_bound(payload) -> float:
    """Closed-form worst-case |decode(payload) - exact sum of its leaves|:
    half a bin per aggregated leaf for ``quant_sum``, exactly ``0.0`` for
    ``count_sum``."""
    header, _ = parse_payload(payload)
    if header["codec"] == "count_sum":
        return 0.0
    return int(header["terms"]) * float(header["scale"]) / 2.0


# Bounded so a fold of <= 8 leaves can never leave float32 range (inf is a
# representable-but-degenerate sum); subnormals and huge exponents are in.
finite32 = st.floats(
    min_value=-(2.0**100),
    max_value=2.0**100,
    allow_nan=False,
    allow_infinity=False,
    width=32,
)
finite64 = st.floats(
    min_value=-(2.0**600), max_value=2.0**600, allow_nan=False, allow_infinity=False
)
# quant_sum's codes live in int64: keep |x| / (2 eb) well inside that range
# (the codec *refuses* values beyond it, which its own test pins).
quantable32 = st.floats(
    min_value=-65536.0, max_value=65536.0, allow_nan=False, allow_infinity=False, width=32
)
bounds = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def leaf_batch(draw, max_leaves: int = 6, elements=finite32, dtype=np.float32):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    k = draw(st.integers(2, max_leaves))
    size = rows * cols
    return [
        np.array(
            draw(st.lists(elements, min_size=size, max_size=size)), dtype=dtype
        ).reshape(rows, cols)
        for _ in range(k)
    ]


def _random_fold(payloads: list[bytes], seed: int) -> bytes:
    """Fold with a random binary tree: models an arbitrary hop graph."""
    rng = random.Random(seed)
    work = list(payloads)
    while len(work) > 1:
        i = rng.randrange(len(work))
        a = work.pop(i)
        j = rng.randrange(len(work))
        b = work.pop(j)
        work.append(agg_sum(a, b))
    return bytes(work[0])


def _fsum_total(leaves: list[np.ndarray]) -> np.ndarray:
    """Elementwise ``float32(fsum(...))`` — the correctly-rounded sum."""
    stacked = np.stack([leaf.astype(np.float64) for leaf in leaves])
    flat = stacked.reshape(len(leaves), -1)
    total = np.array(
        [math.fsum(flat[:, i].tolist()) for i in range(flat.shape[1])], dtype=np.float64
    )
    return total.reshape(leaves[0].shape).astype(np.float32)


def test_registry_exposes_both_codecs():
    assert homomorphic_codecs() == ("count_sum", "quant_sum")
    for name in homomorphic_codecs():
        assert getattr(get_compressor(name), "homomorphic", False)


class TestQuantSumLaws:
    """Shared-scale integer codes: exact composition of a lossy bound."""

    @settings(max_examples=60, deadline=None)
    @given(leaf_batch(max_leaves=2, elements=quantable32), bounds)
    def test_pairwise_within_composed_bound(self, leaves, eb):
        qs = get_compressor("quant_sum")
        a, b = leaves[0], leaves[1]
        payload = agg_sum(qs.compress(a, eb), qs.compress(b, eb))
        bound = composed_bound(payload)
        assert bound == pytest.approx(2 * eb)
        decoded = qs.decompress(payload).astype(np.float64)
        exact = a.astype(np.float64) + b.astype(np.float64)
        slack = 1e-9 * np.maximum(np.abs(exact), 1.0) + np.spacing(
            np.abs(exact).astype(np.float32), dtype=np.float32
        )
        assert np.all(np.abs(decoded - exact) <= bound + slack)

    @settings(max_examples=60, deadline=None)
    @given(leaf_batch(elements=quantable32), bounds, st.integers(0, 2**32))
    def test_fold_order_and_hop_count_independent(self, leaves, eb, seed):
        qs = get_compressor("quant_sum")
        payloads = [qs.compress(leaf, eb) for leaf in leaves]
        chain = agg_fold(payloads)
        tree = _random_fold(payloads, seed)
        reversed_chain = agg_fold(payloads[::-1])
        assert bytes(chain) == tree == bytes(reversed_chain)
        k = len(leaves)
        header, _ = parse_payload(chain)
        assert int(header["terms"]) == k
        assert composed_bound(chain) == pytest.approx(k * eb)
        decoded = qs.decompress(chain).astype(np.float64)
        exact = np.sum([leaf.astype(np.float64) for leaf in leaves], axis=0)
        slack = 1e-9 * np.maximum(np.abs(exact), 1.0) + np.spacing(
            np.abs(exact).astype(np.float32), dtype=np.float32
        )
        assert np.all(np.abs(decoded - exact) <= composed_bound(chain) + slack)

    @settings(max_examples=40, deadline=None)
    @given(leaf_batch(max_leaves=3, elements=quantable32), bounds)
    def test_commutative_and_associative_bytes(self, leaves, eb):
        qs = get_compressor("quant_sum")
        pa, pb = qs.compress(leaves[0], eb), qs.compress(leaves[1], eb)
        assert agg_sum(pa, pb) == agg_sum(pb, pa)
        if len(leaves) >= 3:
            pc = qs.compress(leaves[2], eb)
            assert agg_sum(agg_sum(pa, pb), pc) == agg_sum(pa, agg_sum(pb, pc))

    @settings(max_examples=40, deadline=None)
    @given(leaf_batch(max_leaves=2, elements=quantable32), bounds)
    def test_k1_identity(self, leaves, eb):
        qs = get_compressor("quant_sum")
        payload = qs.compress(leaves[0], eb)
        assert agg_fold([payload]) == bytes(payload)
        decoded = qs.decompress(payload).astype(np.float64)
        exact = leaves[0].astype(np.float64)
        slack = 1e-9 * np.maximum(np.abs(exact), 1.0) + np.spacing(
            np.abs(exact).astype(np.float32), dtype=np.float32
        )
        assert np.all(np.abs(decoded - exact) <= eb + slack)

    def test_scale_mismatch_refused(self):
        qs = get_compressor("quant_sum")
        table = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="scale"):
            agg_sum(qs.compress(table, 1e-3), qs.compress(table, 1e-2))

    def test_cross_codec_aggregation_refused(self):
        table = np.ones((2, 2), dtype=np.float32)
        qp = get_compressor("quant_sum").compress(table, 1e-3)
        cp = get_compressor("count_sum").compress(table)
        with pytest.raises(ValueError, match="codec"):
            agg_sum(qp, cp)
        with pytest.raises(ValueError, match="homomorphic"):
            agg_sum(get_compressor("fp16").compress(table), qp)


class TestCountSumLaws:
    """Lossless fixed-point accumulators: the strong (bitwise) laws."""

    @settings(max_examples=60, deadline=None)
    @given(leaf_batch(max_leaves=2))
    def test_pairwise_bit_exact(self, leaves):
        cs = get_compressor("count_sum")
        a, b = leaves[0], leaves[1]
        decoded = cs.decompress(agg_sum(cs.compress(a), cs.compress(b)))
        # float64 addition of two exactly-represented floats is correctly
        # rounded, so it equals the codec's exact-integer reconstruction.
        expected = (a.astype(np.float64) + b.astype(np.float64)).astype(np.float32)
        np.testing.assert_array_equal(decoded, expected)

    @settings(max_examples=60, deadline=None)
    @given(leaf_batch(), st.integers(0, 2**32))
    def test_fold_any_order_equals_fsum(self, leaves, seed):
        cs = get_compressor("count_sum")
        payloads = [cs.compress(leaf) for leaf in leaves]
        chain = agg_fold(payloads)
        assert bytes(chain) == _random_fold(payloads, seed)
        assert bytes(chain) == bytes(agg_fold(payloads[::-1]))
        assert composed_bound(chain) == 0.0
        np.testing.assert_array_equal(cs.decompress(chain), _fsum_total(leaves))

    @settings(max_examples=40, deadline=None)
    @given(leaf_batch(max_leaves=3))
    def test_commutative_and_associative_bytes(self, leaves):
        cs = get_compressor("count_sum")
        pa, pb = cs.compress(leaves[0]), cs.compress(leaves[1])
        assert agg_sum(pa, pb) == agg_sum(pb, pa)
        if len(leaves) >= 3:
            pc = cs.compress(leaves[2])
            assert agg_sum(agg_sum(pa, pb), pc) == agg_sum(pa, agg_sum(pb, pc))

    @settings(max_examples=60, deadline=None)
    @given(leaf_batch(max_leaves=2))
    def test_roundtrip_identity_bit_exact(self, leaves):
        cs = get_compressor("count_sum")
        payload = cs.compress(leaves[0])
        assert agg_fold([payload]) == bytes(payload)
        np.testing.assert_array_equal(cs.decompress(payload), leaves[0])

    @settings(max_examples=30, deadline=None)
    @given(leaf_batch(max_leaves=4, elements=finite64, dtype=np.float64))
    def test_float64_grid_exact(self, leaves):
        cs = get_compressor("count_sum")
        chain = agg_fold([cs.compress(leaf) for leaf in leaves])
        flat = np.stack(leaves).reshape(len(leaves), -1)
        expected = np.array(
            [math.fsum(flat[:, i].tolist()) for i in range(flat.shape[1])]
        ).reshape(leaves[0].shape)
        np.testing.assert_array_equal(cs.decompress(chain), expected)

    def test_aggregating_zero_windows(self):
        cs = get_compressor("count_sum")
        zeros = np.zeros((3, 2), dtype=np.float32)
        table = np.full((3, 2), 0.75, dtype=np.float32)
        for payload in (
            agg_sum(cs.compress(zeros), cs.compress(table)),
            agg_sum(cs.compress(table), cs.compress(zeros)),
            agg_sum(cs.compress(zeros), cs.compress(zeros)),
        ):
            decoded = cs.decompress(payload)
            assert decoded.shape == (3, 2)
        np.testing.assert_array_equal(
            cs.decompress(agg_sum(cs.compress(zeros), cs.compress(table))), table
        )


class TestHeadersAnEncoderWrites:
    """The header checks that reject hostile frames accept every header an
    encoder writes: each code width ``quant_sum`` narrows to, and
    ``count_sum`` limb windows that reach the top of their grid."""

    @pytest.mark.parametrize("peak", [100, 30_000, 2_000_000_000, 2**40])
    def test_every_code_width_decodes(self, peak):
        qs = get_compressor("quant_sum")
        table = np.array([[-peak, 0.0, peak]], dtype=np.float64) * 0.02
        payload = qs.compress(table, 0.01)
        np.testing.assert_array_equal(qs.decompress(payload), table)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_extremes_of_a_dtype_round_trip_and_aggregate(self, dtype):
        """The largest finite value fills its grid's top limb; the smallest
        subnormal sits on the grid's first."""
        cs = get_compressor("count_sum")
        info = np.finfo(dtype)
        table = np.array([[info.max, info.smallest_subnormal, -info.max]], dtype=dtype)
        payload = cs.compress(table)
        np.testing.assert_array_equal(cs.decompress(payload), table)
        tiny = np.full_like(table, info.smallest_subnormal)
        total = cs.decompress(agg_sum(payload, cs.compress(tiny)))
        np.testing.assert_array_equal(total, table + tiny)


class TestDecodeOwnership:
    """Decode allocates its result: no decoded array aliases the payload,
    another decode, or another rank's all-reduce total."""

    @pytest.mark.parametrize("codec", homomorphic_codecs())
    def test_decode_returns_a_fresh_writable_array(self, codec):
        compressor = get_compressor(codec)
        rng = np.random.default_rng(11)
        table = np.asarray(rng.normal(0.0, 2.0, size=(9, 7)), dtype=np.float32)
        eb = 1e-3 if compressor.error_bounded else None
        payload = compressor.compress(table, eb)
        first, second = compressor.decompress(payload), compressor.decompress(payload)
        np.testing.assert_array_equal(first, second)
        assert first.flags.writeable
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, np.frombuffer(payload, dtype=np.uint8))
        first[...] = 0.0
        np.testing.assert_array_equal(compressor.decompress(payload), second)

    @pytest.mark.parametrize("codec", homomorphic_codecs())
    def test_all_reduce_totals_are_independent_arrays(self, codec):
        compressor = get_compressor(codec)
        rng = np.random.default_rng(5)
        arrays = [np.asarray(rng.normal(size=(6, 4)), dtype=np.float32) for _ in range(3)]
        eb = 1e-3 if compressor.error_bounded else None
        totals = ClusterSimulator(3).comm.compressed_all_reduce(arrays, codec, eb)
        expected = compressor.decompress(
            agg_fold([compressor.compress(a.reshape(1, -1), eb) for a in arrays])
        ).reshape(6, 4)
        assert len(totals) == 3
        for i, total in enumerate(totals):
            np.testing.assert_array_equal(total, expected)
            assert not any(np.shares_memory(total, a) for a in arrays)
            assert not any(np.shares_memory(total, other) for other in totals[i + 1 :])
        totals[0][...] = 0.0
        np.testing.assert_array_equal(totals[1], expected)
