"""The BLAS / segment-reduce kernels against the formulations they replaced.

``DotInteraction`` used ``einsum`` plus a scatter + transpose-add for
``dP + dP^T``; ``EmbeddingTable.accumulate_grad`` used ``np.add.at``.  Those
formulations live on here as oracles, in float64.  The new kernels add the
same terms in a different order, so results agree to a few ulps of the
largest value involved — the tolerance below, fixed from float64 eps
(2.2e-16) times the longest sum in the sweep (< 1e3 terms) — and are
bit-stable run to run.  The kernels compute in their inputs' dtype (the
interaction) or their table's (the gradient scatter, whose tables the
tests cast to float64 with ``as_float64``); a float32 interaction is held
to the same tolerance scaled by float32's eps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import SGD, DotInteraction, EmbeddingTable
from tests.nn.gradcheck import as_float64, numerical_gradient, relative_error
from tests.nn.test_interaction_blocks import slots

RTOL = 1e-12


def assert_close(actual: np.ndarray, expected: np.ndarray, dtype=np.float64) -> None:
    """``actual`` is ``dtype`` and within RTOL (scaled from float64's eps to
    ``dtype``'s) of the float64 ``expected``."""
    assert actual.shape == expected.shape
    assert actual.dtype == dtype
    assert expected.dtype == np.float64
    rtol = RTOL * np.finfo(dtype).eps / np.finfo(np.float64).eps
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert float(np.abs(actual - expected).max(initial=0.0)) <= rtol * scale


# ------------------------------------------------------------------ oracles


def einsum_forward(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    rows, cols = np.tril_indices(z.shape[1], k=-1)
    products = np.einsum("bij,bkj->bik", z, z)
    return np.concatenate([z[:, 0, :], products[:, rows, cols]], axis=1)


def einsum_backward(z: np.ndarray, dout: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    batch, n_features, dim = z.shape
    rows, cols = np.tril_indices(n_features, k=-1)
    dP = np.zeros((batch, n_features, n_features))
    dP[:, rows, cols] = dout[:, dim:]
    dz = np.einsum("bik,bkj->bij", dP + dP.transpose(0, 2, 1), z)
    dz[:, 0, :] += dout[:, :dim]
    return dz


def add_at(grad: np.ndarray, indices: np.ndarray, grad_rows: np.ndarray) -> None:
    np.add.at(grad, indices, np.asarray(grad_rows, dtype=np.float64))


# ------------------------------------------------------------- interaction

shapes = st.tuples(
    st.sampled_from([0, 1, 2, 5, 17]),  # batch
    st.integers(1, 7),  # n_features (1 -> zero pairs)
    st.sampled_from([1, 2, 3, 8, 16]),  # dim
)


def strided(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """A non-contiguous view (every other column of a wider array)."""
    return rng.normal(size=(shape[0], 2 * shape[1]))[:, ::2]


class TestDotInteraction:
    @settings(max_examples=60, deadline=None)
    @given(shapes, st.sampled_from([np.float32, np.float64]), st.booleans(), st.integers(0, 2**31))
    def test_matches_einsum(self, shape, dtype, contiguous, seed):
        batch, n_features, dim = shape
        rng = np.random.default_rng(seed)
        z = rng.normal(size=shape).astype(dtype)
        inter = DotInteraction(n_features, dim)
        out_shape = (batch, inter.output_dim)
        dout = rng.normal(size=out_shape) if contiguous else strided(rng, out_shape)

        assert_close(inter.forward(slots(z)), einsum_forward(z), dtype)
        assert_close(inter.backward(dout), einsum_backward(z, dout), dtype)

    def test_single_feature_has_no_pairs(self):
        z = np.random.default_rng(0).normal(size=(3, 1, 4))
        inter = DotInteraction(1, 4)
        np.testing.assert_array_equal(inter.forward(slots(z)), z[:, 0, :])
        dout = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_array_equal(inter.backward(dout), dout[:, None, :])

    def test_backward_leaves_dout_untouched(self):
        rng = np.random.default_rng(2)
        inter = DotInteraction(4, 3)
        inter.forward(slots(rng.normal(size=(5, 4, 3))))
        dout = rng.normal(size=(5, inter.output_dim))
        before = dout.copy()
        inter.backward(dout)
        np.testing.assert_array_equal(dout, before)

    def test_same_inputs_same_bits(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(64, 27, 16))
        dout = rng.normal(size=(64, 16 + 27 * 26 // 2))
        runs = []
        for _ in range(2):
            inter = DotInteraction(27, 16)
            runs.append((inter.forward(slots(z.copy())), inter.backward(dout.copy())))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_forward_feeds_gradcheck(self):
        rng = np.random.default_rng(4)
        inter = DotInteraction(5, 3)
        z = rng.normal(size=(3, 5, 3))
        target = rng.normal(size=(3, inter.output_dim))

        def loss_of_z(zv):
            return 0.5 * float(((inter.forward(slots(zv)) - target) ** 2).sum())

        numeric = numerical_gradient(loss_of_z, z.copy())
        dz = inter.backward(inter.forward(slots(z)) - target)
        assert relative_error(dz, numeric) < 1e-6


# --------------------------------------------------------------- embedding


def id_patterns(rng: np.random.Generator, batch: int, cardinality: int) -> dict[str, np.ndarray]:
    patterns = {
        "random": rng.integers(0, cardinality, size=batch),
        "all_duplicate": np.full(batch, cardinality - 1, dtype=np.int64),
    }
    if cardinality >= batch:
        patterns["all_unique"] = rng.permutation(cardinality)[:batch]
    return patterns


class TestAccumulateGrad:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([0, 1, 2, 9, 40]),  # batch
        st.sampled_from([1, 2, 7, 64]),  # cardinality
        st.sampled_from([1, 4, 16]),  # dim
        st.sampled_from([np.int64, np.int32, np.uint8]),
        st.integers(0, 2**31),
    )
    def test_matches_add_at(self, batch, cardinality, dim, id_dtype, seed):
        rng = np.random.default_rng(seed)
        # grad_rows are the dz[:, 1 + j, :] views backward_interaction returns.
        dz = rng.normal(size=(batch, 3, dim))
        for name, ids in id_patterns(rng, batch, cardinality).items():
            table = as_float64(EmbeddingTable(cardinality, dim, np.random.default_rng(0)))
            expected = np.zeros_like(table.weight.grad)
            for j in (0, 2):  # two calls before one optimizer step
                table.accumulate_grad(ids.astype(id_dtype), dz[:, j, :])
                add_at(expected, ids, dz[:, j, :])
            assert_close(table.weight.grad, expected)

            before = table.weight.data.copy()
            SGD(table.parameters(), lr=0.5).step()
            assert_close(table.weight.data, before - 0.5 * expected)
            assert not table.weight.grad.any(), name

    def test_float32_grad_rows(self):
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 6, size=30)
        rows = rng.normal(size=(30, 4)).astype(np.float32)
        table = as_float64(EmbeddingTable(6, 4, np.random.default_rng(0)))
        table.accumulate_grad(ids, rows)
        expected = np.zeros((6, 4))
        add_at(expected, ids, rows)
        assert_close(table.weight.grad, expected)

    def test_empty_ids_are_a_noop(self):
        table = EmbeddingTable(5, 2, np.random.default_rng(0))
        table.accumulate_grad(np.array([], dtype=np.int64), np.zeros((0, 2)))
        assert not table.weight.grad.any()

    def test_same_inputs_same_bits(self):
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 50, size=4096)
        rows = rng.normal(size=(4096, 16))
        grads = []
        for _ in range(2):
            table = EmbeddingTable(50, 16, np.random.default_rng(0))
            table.accumulate_grad(ids.copy(), rows.copy())
            grads.append(table.weight.grad)
        np.testing.assert_array_equal(grads[0], grads[1])


class TestIndexDtype:
    """``astype(int64)`` used to truncate 1.7 -> 1 and map True -> 1."""

    @pytest.mark.parametrize(
        "bad", [np.array([1.7, 2.2]), np.array([True, False]), np.array(["1"]), np.array([1.0])]
    )
    def test_non_integer_ids_rejected(self, bad):
        table = EmbeddingTable(5, 2, np.random.default_rng(0))
        with pytest.raises(TypeError, match=str(bad.dtype)):
            table.lookup(bad)
        with pytest.raises(TypeError, match=str(bad.dtype)):
            table.accumulate_grad(bad, np.zeros((bad.size, 2)))
        assert not table.weight.grad.any()

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64, np.int64])
    def test_any_integer_width_accepted_and_range_checked(self, dtype):
        table = EmbeddingTable(5, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(
            table.lookup(np.array([4, 0], dtype=dtype)),
            table.weight.data[[4, 0]].astype(np.float32),
        )
        with pytest.raises(IndexError):
            table.lookup(np.array([5], dtype=dtype))
