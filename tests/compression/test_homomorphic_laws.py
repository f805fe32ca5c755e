"""Property laws of the homomorphic ``quant_sum`` codec.

The whole point of ``agg_sum`` is an algebra: payloads form a commutative
semigroup under aggregation, decode is a homomorphism onto (approximate)
elementwise sums, and the error bound composes in closed form.  Every one
of those claims is a Hypothesis law here — the same treatment the chunk
pipeline got:

* ``decode(agg_sum(e(a), e(b)))`` within the composed bound of ``a + b``,
  and bit for bit the exact sum when every leaf sits on the grid;
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

from repro.compression import agg_fold, agg_sum, available_compressors, get_compressor
from repro.compression.base import parse_payload
from repro.compression.homomorphic import _CODE_DTYPES, MAX_TERMS
from repro.compression.serialization import CorruptPayloadError
from repro.dist import ClusterSimulator
from tests.compression.frames import build, reframe, split


def tail(payload) -> dict:
    """The tail fields of a ``quant_sum`` frame."""
    return split(payload)[1]


def code_dtype(payload) -> np.dtype:
    """The dtype of a ``quant_sum`` frame's codes."""
    return _CODE_DTYPES[tail(payload)["code_dtype"]]


def composed_bound(payload) -> float:
    """Closed-form worst-case |decode(payload) - exact sum of its leaves|:
    half a bin per aggregated leaf."""
    fields = tail(payload)
    return fields["terms"] * fields["scale"] / 2.0


# quant_sum's codes live in int64: keep |x| / (2 eb) well inside that range
# (the codec *refuses* values beyond it, which its own test pins).
quantable32 = st.floats(
    min_value=-65536.0, max_value=65536.0, allow_nan=False, allow_infinity=False, width=32
)
bounds = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def leaf_batch(draw, max_leaves: int = 6, elements=quantable32, dtype=np.float32):
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


#: error bound of the grid laws: a value ``j * 2**-9`` encodes to the code ``j``
GRID_EB = 2.0**-10

#: (dtype, largest |j|) of the grid laws: every partial sum of up to 8
#: leaves is exact in the dtype (float32 below 2**24, float64 below 2**53)
GRID_PEAKS = [(np.float32, 999), (np.float64, 2**40)]

#: the code width a sum of two peaks of each narrower width widens to
WIDER = {np.int8: np.int16, np.int16: np.int32, np.int32: np.int64}


def _grid_leaves(k: int, seed: int, dtype, peak: int) -> list[np.ndarray]:
    """``k`` (3, 4) leaves of grid values ``j * 2 * GRID_EB``, ``|j| <= peak``."""
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(-peak, peak + 1, size=(3, 4)) * (2 * GRID_EB)).astype(dtype)
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
        assert tail(chain)["terms"] == k
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

    @pytest.mark.parametrize("dtype, peak", GRID_PEAKS)
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 8), seed=st.integers(0, 2**32))
    def test_grid_values_fold_to_the_exact_sum(self, dtype, peak, k, seed):
        """Leaves ``j * 2 * eb`` encode to the codes ``j`` with no rounding,
        so any fold tree decodes to the exact sum, bit for bit."""
        qs = get_compressor("quant_sum")
        leaves = _grid_leaves(k, seed, dtype, peak)
        tree = _random_fold([qs.compress(leaf, GRID_EB) for leaf in leaves], seed)
        exact = [
            math.fsum(float(leaf.flat[i]) for leaf in leaves) for i in range(leaves[0].size)
        ]
        decoded = qs.decompress(tree)
        assert decoded.dtype == dtype
        np.testing.assert_array_equal(decoded, np.array(exact, dtype=dtype).reshape(3, 4))

    @pytest.mark.parametrize("dtype, peak", GRID_PEAKS)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_grid_values_round_trip_bit_exact(self, dtype, peak, seed):
        qs = get_compressor("quant_sum")
        (leaf,) = _grid_leaves(1, seed, dtype, peak)
        decoded = qs.decompress(qs.compress(leaf, GRID_EB))
        assert decoded.dtype == dtype
        assert decoded.tobytes() == leaf.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_zero_leaves_fold_to_positive_zeros(self, k):
        """Zeros of either sign encode to the code 0, in one byte each, and
        any number of them sums to ``+0.0`` with a code bound of 0."""
        qs = get_compressor("quant_sum")
        leaves = [np.full((3, 4), -0.0 if i % 2 else 0.0, dtype=np.float32) for i in range(k)]
        total = agg_fold([qs.compress(leaf, 1e-3) for leaf in leaves])
        _, fields, body = split(total)
        assert (fields["terms"], fields["cmax"], code_dtype(total)) == (k, 0, np.int8)
        assert body == bytes(12)
        assert qs.decompress(total).tobytes() == np.zeros((3, 4), np.float32).tobytes()

    @pytest.mark.parametrize("narrow", [np.int8, np.int16, np.int32])
    def test_a_sum_past_a_code_width_widens_and_stays_exact(self, narrow):
        """Two leaves at the peak of one code width sum into the next, and
        the opposite peaks cancel back into one byte per code."""
        qs = get_compressor("quant_sum")
        peak = int(np.iinfo(narrow).max)
        eb = 0.5  # the grid step is 1: the codes are the values themselves
        up = np.array([[peak, -peak, 0.0]], dtype=np.float64)
        leaf, mirror = qs.compress(up, eb), qs.compress(-up, eb)
        assert code_dtype(leaf) == narrow
        wide = agg_sum(leaf, leaf)
        assert code_dtype(wide) == WIDER[narrow]
        assert tail(wide)["cmax"] == 2 * peak
        np.testing.assert_array_equal(qs.decompress(wide), 2 * up)
        cancelled = agg_sum(leaf, mirror)
        assert code_dtype(cancelled) == np.int8
        np.testing.assert_array_equal(qs.decompress(cancelled), np.zeros_like(up))

    def test_a_composed_code_bound_past_the_guard_is_refused(self):
        """Each leaf's codes fit int64, but the bound of their sum reaches
        ``2**62``: the aggregate is refused before any code is added."""
        qs = get_compressor("quant_sum")
        leaf = qs.compress(np.array([[2.0**61, 1.0]]), 0.5)
        assert tail(leaf)["cmax"] == 2**61
        with pytest.raises(ValueError, match=r"bound 4611686018427387904 would risk int64 overflow"):
            agg_sum(leaf, leaf)

    def test_a_value_past_the_int64_code_range_is_refused(self):
        qs = get_compressor("quant_sum")
        with pytest.raises(ValueError, match="exceeds the int64 code range; raise error_bound"):
            qs.compress(np.array([[2.0**62, 0.0]]), 0.5)

    def test_max_terms_leaves_aggregate_and_one_more_is_refused(self):
        qs = get_compressor("quant_sum")
        leaf = qs.compress(np.ones((2, 2), dtype=np.float32), 1e-3)
        half = reframe(leaf, terms=MAX_TERMS // 2)
        full = agg_sum(half, half)
        assert tail(full)["terms"] == MAX_TERMS
        assert composed_bound(full) == pytest.approx(MAX_TERMS * 1e-3)
        with pytest.raises(ValueError, match="exceeds MAX_TERMS"):
            agg_sum(full, leaf)

    def test_scale_mismatch_refused(self):
        qs = get_compressor("quant_sum")
        table = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="scale"):
            agg_sum(qs.compress(table, 1e-3), qs.compress(table, 1e-2))

    @pytest.mark.parametrize(
        "other", [name for name in available_compressors() if name != "quant_sum"]
    )
    def test_cross_codec_aggregation_refused(self, other):
        table = np.ones((2, 2), dtype=np.float32)
        qp = get_compressor("quant_sum").compress(table, 1e-3)
        codec = get_compressor(other)
        foreign = codec.compress(table, 1e-3 if codec.error_bounded else None)
        # ``hybrid`` frames each block under the codec it picks
        match = rf"payload codec '{parse_payload(foreign)[0].codec}' != 'quant_sum'"
        for pair in ((qp, foreign), (foreign, qp)):
            with pytest.raises(ValueError, match=match):
                agg_sum(*pair)


class TestCodeBoundIsChecked:
    """``agg_sum`` once took an operand's ``cmax`` on its word: codes of
    ``2**62`` under ``cmax = 0`` passed the composed guard, and their int64
    sum wrapped to zeros.  Each operand's codes are now checked against its
    ``cmax``."""

    def _lying(self, cmax: int) -> bytes:
        codes = np.full((2, 2), 2**62, dtype="<i8")
        fields = {"scale": 1.0, "terms": 1, "code_dtype": 3, "cmax": cmax}
        return build("quant_sum", (2, 2), fields, codes.tobytes(), dtype_code=1)

    def test_codes_past_their_cmax_are_corrupt(self):
        lying = self._lying(0)
        np.testing.assert_array_equal(get_compressor("quant_sum").decompress(lying), np.full((2, 2), 2.0**62))
        with pytest.raises(CorruptPayloadError, match="magnitude 4611686018427387904 exceeds cmax 0"):
            agg_sum(lying, lying)

    def test_a_cmax_past_the_guard_is_corrupt(self):
        with pytest.raises(CorruptPayloadError, match="cmax 4611686018427387904 is not below 2"):
            agg_sum(self._lying(2**62), self._lying(2**62))

    def test_an_honest_cmax_is_refused_as_misuse(self):
        """The same codes under their true bound are well formed; their
        sum would pass ``2**62``, so the aggregate is the caller's misuse."""
        honest = build(
            "quant_sum", (2, 2), {"scale": 1.0, "terms": 1, "code_dtype": 3, "cmax": 2**61},
            np.full((2, 2), 2**61, dtype="<i8").tobytes(), dtype_code=1,
        )
        with pytest.raises(ValueError, match="would risk int64 overflow") as raised:
            agg_sum(honest, honest)
        assert type(raised.value) is ValueError


class TestHeadersAnEncoderWrites:
    """The header checks that reject hostile frames accept every header an
    encoder writes: each code width ``quant_sum`` narrows to."""

    @pytest.mark.parametrize("peak", [100, 30_000, 2_000_000_000, 2**40])
    def test_every_code_width_decodes(self, peak):
        qs = get_compressor("quant_sum")
        table = np.array([[-peak, 0.0, peak]], dtype=np.float64) * 0.02
        payload = qs.compress(table, 0.01)
        np.testing.assert_array_equal(qs.decompress(payload), table)


class TestDecodeOwnership:
    """Decode allocates its result: no decoded array aliases the payload,
    another decode, or another rank's all-reduce total."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decode_returns_a_fresh_writable_array(self, dtype):
        compressor = get_compressor("quant_sum")
        rng = np.random.default_rng(11)
        table = np.asarray(rng.normal(0.0, 2.0, size=(9, 7)), dtype=dtype)
        payload = compressor.compress(table, 1e-3)
        first, second = compressor.decompress(payload), compressor.decompress(payload)
        assert first.dtype == dtype
        np.testing.assert_array_equal(first, second)
        assert first.flags.writeable
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, np.frombuffer(payload, dtype=np.uint8))
        first[...] = 0.0
        np.testing.assert_array_equal(compressor.decompress(payload), second)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_reduce_totals_are_independent_arrays(self, dtype):
        compressor = get_compressor("quant_sum")
        rng = np.random.default_rng(5)
        arrays = [np.asarray(rng.normal(size=(6, 4)), dtype=dtype) for _ in range(3)]
        eb = 1e-3
        totals = ClusterSimulator(3).comm.compressed_all_reduce(arrays, eb)
        expected = compressor.decompress(
            agg_fold([compressor.compress(a.reshape(1, -1), eb) for a in arrays])
        ).reshape(6, 4)
        assert len(totals) == 3
        for i, total in enumerate(totals):
            assert total.dtype == dtype
            np.testing.assert_array_equal(total, expected)
            assert not any(np.shares_memory(total, a) for a in arrays)
            assert not any(np.shares_memory(total, other) for other in totals[i + 1 :])
        totals[0][...] = 0.0
        np.testing.assert_array_equal(totals[1], expected)
