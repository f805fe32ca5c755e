"""Laws of the row-blocked ``DotInteraction``.

The interaction walks ``BLOCK_ROWS`` rows at a time and never builds the
whole ``(batch, F, dim)`` stack; it computes in the features' common dtype
(float32 in the model).  Every sample's GEMM keeps its
operands, layout and BLAS call, so the blocked passes equal the unblocked
computation over one stack — :func:`stacked_forward` /
:func:`stacked_backward` below — bit for bit, at every batch size around
the block edges.  The forward keeps the caller's feature arrays by
reference and never writes them, and the traced peak of a forward plus a
backward at the paper's shape stays below one stack plus the output plus
a block-sized margin.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import DotInteraction
from repro.nn.interaction import BLOCK_ROWS

# ------------------------------------------------------------------ oracle


def slots(z: np.ndarray) -> list[np.ndarray]:
    """The interaction's input: one ``(batch, dim)`` view per slot of ``z``."""
    return [z[:, k, :] for k in range(z.shape[1])]


def stack(features: list[np.ndarray]) -> np.ndarray:
    """Every feature in one ``(batch, F, dim)`` stack of their common dtype."""
    return np.stack(features, axis=1, dtype=np.result_type(*features))


def stacked_forward(z: np.ndarray) -> np.ndarray:
    """The unblocked forward over the whole stack."""
    batch, n_features, _ = z.shape
    rows, cols = np.tril_indices(n_features, k=-1)
    products = np.matmul(z, z.transpose(0, 2, 1)).reshape(batch, n_features**2)
    return np.concatenate([z[:, 0, :], products.take(rows * n_features + cols, axis=1)], axis=1)


def stacked_backward(z: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """The unblocked backward: ``dz = (dP + dP^T) z`` over the whole stack."""
    batch, n_features, dim = z.shape
    rows, cols = np.tril_indices(n_features, k=-1)
    sym = np.zeros((n_features, n_features), dtype=np.intp)
    sym[rows, cols] = sym[cols, rows] = dim + np.arange(rows.size)
    dP_sym = dout.take(sym.ravel(), axis=1)
    dP_sym[:, :: n_features + 1] = 0.0
    dz = np.matmul(dP_sym.reshape(batch, n_features, n_features), z)
    dz[:, 0, :] += dout[:, :dim]
    return dz


# -------------------------------------------------------------------- laws


def make_features(
    rng: np.random.Generator, batch: int, n_features: int, dim: int, layout: str
) -> list[np.ndarray]:
    if layout == "strided":  # every other column of a wider array
        return [rng.normal(size=(batch, 2 * dim))[:, ::2] for _ in range(n_features)]
    dtype = np.float32 if layout == "float32" else np.float64
    return [rng.normal(size=(batch, dim)).astype(dtype) for _ in range(n_features)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]),
    st.sampled_from([1, 2, 27]),
    st.sampled_from([1, 4, 64]),
    st.sampled_from(["float32", "float64", "strided"]),
    st.integers(0, 2**31),
)
def test_blocked_equals_stacked(batch, n_features, dim, layout, seed):
    rng = np.random.default_rng(seed)
    features = make_features(rng, batch, n_features, dim, layout)
    before = [feature.copy() for feature in features]
    inter = DotInteraction(n_features, dim)
    z = stack(features)
    dout = rng.normal(size=(batch, inter.output_dim)).astype(z.dtype)

    out = inter.forward(features)
    assert all(kept is feature for kept, feature in zip(inter._cache, features))
    dz = inter.backward(dout)

    np.testing.assert_array_equal(out, stacked_forward(z))
    np.testing.assert_array_equal(dz, stacked_backward(z, dout))
    assert out.dtype == dz.dtype == z.dtype
    for feature, original in zip(features, before):
        np.testing.assert_array_equal(feature, original)


def test_backward_before_forward_rejected():
    inter = DotInteraction(3, 4)
    with pytest.raises(RuntimeError):
        inter.backward(np.zeros((2, inter.output_dim)))


def test_backward_twice_rejected():
    rng = np.random.default_rng(0)
    inter = DotInteraction(3, 4)
    out = inter.forward(make_features(rng, 5, 3, 4, "float32"))
    inter.backward(out)
    with pytest.raises(RuntimeError):
        inter.backward(out)


def test_peak_stays_below_one_stack():
    """Forward + backward at the paper's shape (batch 4096, 27 features,
    dim 64) never hold a second ``(batch, F, dim)`` float64 stack: the
    traced peak is the gradient, the output and a few blocks."""
    batch, n_features, dim = 4096, 27, 64
    rng = np.random.default_rng(1)
    features = [rng.normal(size=(batch, dim))] + [
        rng.normal(size=(batch, dim)).astype(np.float32) for _ in range(n_features - 1)
    ]
    inter = DotInteraction(n_features, dim)
    dout = rng.normal(size=(batch, inter.output_dim))
    stack_nbytes = batch * n_features * dim * 8
    margin = 4 * BLOCK_ROWS * n_features * dim * 8
    tracemalloc.start()
    try:
        out = inter.forward(features)
        dz = inter.backward(dout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dz.nbytes == stack_nbytes
    assert peak < stack_nbytes + out.nbytes + margin, (peak, stack_nbytes, out.nbytes, margin)
