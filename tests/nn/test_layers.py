"""Tests for the NN substrate: layers, gradients, loss, optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    MLP,
    SGD,
    DotInteraction,
    EmbeddingTable,
    Linear,
    Parameter,
    ReLU,
    bce_grad,
    bce_with_logits,
    sigmoid,
)
from repro.nn.init import (
    clustered_embedding,
    embedding_init,
    laplace_embedding,
    normal_embedding,
    uniform_embedding,
    xavier_uniform,
)
from tests.nn.gradcheck import numerical_gradient, relative_error
from tests.nn.test_interaction_blocks import slots


class TestInit:
    def test_xavier_bounds(self):
        rng = np.random.default_rng(0)
        w = xavier_uniform(rng, 100, 50)
        limit = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.abs(w).max() <= limit

    def test_uniform_embedding_bounds(self):
        rng = np.random.default_rng(0)
        w = uniform_embedding(rng, 50, 8, 0.2)
        assert np.abs(w).max() <= 0.2

    def test_normal_embedding_scale(self):
        rng = np.random.default_rng(0)
        w = normal_embedding(rng, 5000, 8, 0.1)
        assert w.std() == pytest.approx(0.1, rel=0.05)

    def test_laplace_heavier_tails_than_normal(self):
        rng = np.random.default_rng(0)
        lap = laplace_embedding(rng, 5000, 8, 0.1)
        norm = normal_embedding(np.random.default_rng(0), 5000, 8, 0.1)
        assert lap.std() == pytest.approx(0.1, rel=0.05)
        # Heavy tails: larger kurtosis.
        def kurt(x):
            c = x.ravel() - x.mean()
            return (c**4).mean() / (c**2).mean() ** 2
        assert kurt(lap) > kurt(norm) + 1.0

    def test_clustered_embedding_structure(self):
        rng = np.random.default_rng(0)
        w = clustered_embedding(rng, 200, 4, 0.3, n_clusters=5, jitter=1e-5)
        # Rounded rows collapse to at most ~5 distinct patterns.
        rounded = np.round(w, 2)
        assert np.unique(rounded, axis=0).shape[0] <= 10

    def test_embedding_init_dispatch(self):
        rng = np.random.default_rng(0)
        for name in ("uniform", "normal", "laplace"):
            w = embedding_init(rng, 10, 4, 0.1, name)
            assert w.shape == (10, 4)
        with pytest.raises(ValueError):
            embedding_init(rng, 10, 4, 0.1, "cauchy")


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        out = layer.forward(np.ones((8, 4)))
        assert out.shape == (8, 3)

    def test_gradcheck_weight_and_input(self):
        rng = np.random.default_rng(1)
        layer = Linear(5, 3, rng)
        x = rng.normal(size=(4, 5))
        target = rng.normal(size=(4, 3))

        def loss_of_weight(w):
            layer.weight.data = w
            out = layer.forward(x)
            layer._cache = None
            return 0.5 * float(((out - target) ** 2).sum())

        numeric = numerical_gradient(loss_of_weight, layer.weight.data.copy())
        out = layer.forward(x)
        layer.weight.zero_grad()
        dx = layer.backward(out - target)
        assert relative_error(layer.weight.grad, numeric) < 1e-6

        def loss_of_input(xv):
            out = layer.forward(xv)
            layer._cache = None
            return 0.5 * float(((out - target) ** 2).sum())

        numeric_dx = numerical_gradient(loss_of_input, x.copy())
        assert relative_error(dx, numeric_dx) < 1e-6

    def test_grad_accumulates(self):
        layer = Linear(2, 2, np.random.default_rng(0))
        x = np.ones((1, 2))
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((1, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * first)

    def test_backward_before_forward_rejected(self):
        layer = Linear(2, 2, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_shape_mismatch_rejected(self):
        layer = Linear(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.ones((4, 5)))


class TestActivationsAndMLP:
    def test_relu(self):
        relu = ReLU()
        out = relu.forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])
        dx = relu.backward(np.ones(3))
        np.testing.assert_array_equal(dx, [0.0, 0.0, 1.0])

    def test_mlp_shapes(self):
        mlp = MLP([4, 8, 2], np.random.default_rng(0), final_activation="none")
        out = mlp.forward(np.ones((5, 4)))
        assert out.shape == (5, 2)

    def test_mlp_gradcheck(self):
        rng = np.random.default_rng(2)
        mlp = MLP([3, 4, 2], rng, final_activation="none")
        x = rng.normal(size=(3, 3))
        target = rng.normal(size=(3, 2))
        w = mlp.parameters()[0]

        def loss_of_w(wv):
            w.data = wv
            return 0.5 * float(((mlp.forward(x) - target) ** 2).sum())

        numeric = numerical_gradient(loss_of_w, w.data.copy())
        out = mlp.forward(x)
        for p in mlp.parameters():
            p.zero_grad()
        mlp.backward(out - target)
        assert relative_error(w.grad, numeric) < 1e-5

    def test_mlp_validation(self):
        with pytest.raises(ValueError):
            MLP([4], np.random.default_rng(0))
        with pytest.raises(ValueError):
            MLP([4, 2], np.random.default_rng(0), final_activation="tanh")

    @pytest.mark.parametrize("final, last", [("relu", ReLU), ("none", Linear)])
    def test_final_activation_is_relu_or_nothing(self, final, last):
        mlp = MLP([4, 8, 2], np.random.default_rng(0), final_activation=final)
        assert type(mlp.layers[-1]) is last

    def test_sigmoid_final_activation_rejected(self):
        with pytest.raises(ValueError, match="final_activation"):
            MLP([4, 2], np.random.default_rng(0), final_activation="sigmoid")


class TestEmbeddingTable:
    def test_lookup_dtype_and_shape(self):
        table = EmbeddingTable(10, 4, np.random.default_rng(0))
        rows = table.lookup(np.array([0, 3, 3]))
        assert rows.shape == (3, 4)
        assert rows.dtype == np.float32

    def test_duplicate_grads_accumulate(self):
        table = EmbeddingTable(5, 2, np.random.default_rng(0))
        table.accumulate_grad(np.array([1, 1, 2]), np.ones((3, 2)))
        np.testing.assert_allclose(table.weight.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(table.weight.grad[2], [1.0, 1.0])
        np.testing.assert_allclose(table.weight.grad[0], [0.0, 0.0])

    def test_out_of_range_rejected(self):
        table = EmbeddingTable(5, 2, np.random.default_rng(0))
        with pytest.raises(IndexError):
            table.lookup(np.array([5]))
        with pytest.raises(IndexError):
            table.lookup(np.array([-1]))

    def test_grad_shape_validated(self):
        table = EmbeddingTable(5, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            table.accumulate_grad(np.array([0]), np.ones((2, 2)))

    def test_clustered_table_rows_near_centroids(self):
        table = EmbeddingTable(
            100, 4, np.random.default_rng(0), scale=0.3, n_clusters=4, jitter=1e-6
        )
        rows = table.lookup(np.arange(100))
        assert np.unique(np.round(rows, 3), axis=0).shape[0] <= 8


class TestDotInteraction:
    def test_output_dim(self):
        inter = DotInteraction(n_features=4, dim=8)
        assert inter.output_dim == 8 + 6

    def test_forward_contains_dense_passthrough(self):
        rng = np.random.default_rng(3)
        inter = DotInteraction(3, 4)
        z = rng.normal(size=(2, 3, 4))
        out = inter.forward(slots(z))
        np.testing.assert_allclose(out[:, :4], z[:, 0, :])

    def test_pairwise_dots_correct(self):
        inter = DotInteraction(3, 2)
        z = np.array([[[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]]])
        out = inter.forward(slots(z))
        # pairs (1,0), (2,0), (2,1): dots = 0, 2, 3
        np.testing.assert_allclose(out[0, 2:], [0.0, 2.0, 3.0])

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        inter = DotInteraction(3, 2)
        z = rng.normal(size=(2, 3, 2))
        target = rng.normal(size=(2, inter.output_dim))

        def loss_of_z(zv):
            out = inter.forward(slots(zv))
            inter._cache = None
            return 0.5 * float(((out - target) ** 2).sum())

        numeric = numerical_gradient(loss_of_z, z.copy())
        out = inter.forward(slots(z))
        dz = inter.backward(out - target)
        assert relative_error(dz, numeric) < 1e-6

    def test_shape_validation(self):
        inter = DotInteraction(3, 2)
        with pytest.raises(ValueError):
            inter.forward(slots(np.zeros((2, 4, 2))))


class TestLoss:
    def test_matches_naive_formula(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=20)
        labels = (rng.random(20) < 0.5).astype(float)
        p = 1 / (1 + np.exp(-logits))
        naive = -(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean()
        assert bce_with_logits(logits, labels) == pytest.approx(naive)

    def test_stable_at_extreme_logits(self):
        loss = bce_with_logits(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=8)
        labels = (rng.random(8) < 0.5).astype(float)
        numeric = numerical_gradient(lambda z: bce_with_logits(z, labels), logits.copy())
        assert relative_error(bce_grad(logits, labels), numeric) < 1e-6

    def test_sigmoid_range(self):
        out = sigmoid(np.array([-500.0, 0.0, 500.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == 0.5
        assert out[2] == pytest.approx(1.0, abs=1e-12)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            bce_with_logits(np.zeros(2), np.array([0.0, 2.0]))


class TestOptimizers:
    def test_sgd_step(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad[:] = [0.5, 1.0]
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 1.9])
        np.testing.assert_allclose(p.grad, 0.0)

    def test_sgd_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = SGD([p], lr=0.3)
        for _ in range(50):
            p.grad[:] = 2 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 1e-5

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
