"""Tests for the DLRM model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.model import DLRM, DLRMConfig
from repro.nn import bce_grad, bce_with_logits
from tests.nn.gradcheck import numerical_gradient, relative_error
from tests.nn.test_interaction_blocks import stack, stacked_backward, stacked_forward


@pytest.fixture
def tiny_config() -> DLRMConfig:
    return DLRMConfig(
        n_dense=3,
        table_cardinalities=(7, 5),
        embedding_dim=4,
        bottom_hidden=(6,),
        top_hidden=(5,),
        seed=1,
    )


@pytest.fixture
def tiny_batch(tiny_config):
    rng = np.random.default_rng(2)
    dense = rng.normal(size=(6, 3)).astype(np.float32)
    sparse = np.stack(
        [rng.integers(0, 7, size=6), rng.integers(0, 5, size=6)], axis=1
    )
    labels = (rng.random(6) < 0.5).astype(np.float32)
    return dense, sparse, labels


class TestConfig:
    def test_interaction_features(self, tiny_config):
        assert tiny_config.interaction_features == 3

    def test_from_dataset_carries_regimes(self):
        spec = make_uniform_spec("t", 3, 50, zipf_exponent=1.0)
        config = DLRMConfig.from_dataset(spec, embedding_dim=8)
        assert config.n_tables == 3
        assert config.table_value_scales == tuple(t.value_scale for t in spec.tables)
        assert config.table_value_distributions is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            DLRMConfig(n_dense=3, table_cardinalities=())
        with pytest.raises(ValueError):
            DLRMConfig(n_dense=3, table_cardinalities=(5,), table_value_scales=(0.1, 0.2))


class TestForward:
    def test_logit_shape(self, tiny_config, tiny_batch):
        model = DLRM(tiny_config)
        dense, sparse, _ = tiny_batch
        logits = model.forward(dense, sparse)
        assert logits.shape == (6,)

    def test_deterministic_given_seed(self, tiny_config, tiny_batch):
        dense, sparse, _ = tiny_batch
        a = DLRM(tiny_config).forward(dense, sparse)
        b = DLRM(tiny_config).forward(dense, sparse)
        np.testing.assert_array_equal(a, b)

    def test_staged_equals_monolithic(self, tiny_config, tiny_batch):
        """The stage-level API must compose to the same logits."""
        dense, sparse, _ = tiny_batch
        model = DLRM(tiny_config)
        whole = model.forward(dense, sparse)
        model2 = DLRM(tiny_config)
        bottom = model2.forward_dense(dense)
        rows = model2.lookup_all(sparse)
        staged = model2.forward_interaction(bottom, rows)
        np.testing.assert_allclose(whole, staged)

    def test_lookup_all_validation(self, tiny_config):
        model = DLRM(tiny_config)
        with pytest.raises(ValueError):
            model.lookup_all(np.zeros((4, 3), dtype=np.int64))

    def test_forward_interaction_count_validation(self, tiny_config, tiny_batch):
        dense, sparse, _ = tiny_batch
        model = DLRM(tiny_config)
        bottom = model.forward_dense(dense)
        with pytest.raises(ValueError):
            model.forward_interaction(bottom, [np.zeros((6, 4))])

    def test_interaction_input_equals_stacked_features(self, tiny_config, tiny_batch):
        """The interaction reads each feature cast to float64: forward and
        backward equal the unblocked oracle over ``np.stack`` of float64
        casts, bit for bit."""
        dense, sparse, labels = tiny_batch
        model = DLRM(tiny_config)
        bottom = np.asfortranarray(model.forward_dense(dense))  # non-contiguous rows
        rows = model.lookup_all(sparse)  # float32 wire format
        logits = model.forward_interaction(bottom, rows)
        dlogits = bce_grad(logits, labels)
        d_bottom, d_emb = model.backward_interaction(dlogits)

        z = stack([bottom, *rows])
        oracle = DLRM(tiny_config)
        np.testing.assert_array_equal(logits, oracle.top_mlp.forward(stacked_forward(z)).ravel())
        d_interacted = oracle.top_mlp.backward(np.asarray(dlogits, dtype=np.float64).reshape(-1, 1))
        dz = stacked_backward(z, d_interacted)
        np.testing.assert_array_equal(d_bottom, dz[:, 0, :])
        for j, grad in enumerate(d_emb):
            np.testing.assert_array_equal(grad, dz[:, 1 + j, :])

    @pytest.mark.parametrize("bad_shape", [(1, 4), (4,), (6, 3), (5, 4)])
    def test_forward_interaction_shape_validation(self, tiny_config, tiny_batch, bad_shape):
        """A broadcastable ``(1, dim)`` / ``(dim,)`` input must not fill the batch silently."""
        dense, sparse, _ = tiny_batch
        model = DLRM(tiny_config)
        rows = model.lookup_all(sparse)
        rows[1] = np.zeros(bad_shape, dtype=np.float32)
        with pytest.raises(ValueError):
            model.forward_interaction(model.forward_dense(dense), rows)


def backward(model: DLRM, dlogits: np.ndarray, sparse: np.ndarray) -> None:
    """The full backward pass a trainer runs stage by stage: interaction,
    dense MLPs, then each table's embedding gradient."""
    d_bottom, d_emb = model.backward_interaction(dlogits)
    model.backward_dense(d_bottom)
    for j in range(model.config.n_tables):
        model.accumulate_embedding_grad(j, sparse[:, j], d_emb[j])


class TestBackward:
    def test_full_gradcheck_mlp_weight(self, tiny_config, tiny_batch):
        dense, sparse, labels = tiny_batch
        model = DLRM(tiny_config)
        w = model.bottom_mlp.parameters()[0]

        def loss_of(wv):
            w.data = wv
            return bce_with_logits(model.forward(dense, sparse), labels)

        numeric = numerical_gradient(loss_of, w.data.copy())
        logits = model.forward(dense, sparse)
        for p in model.parameters():
            p.zero_grad()
        backward(model, bce_grad(logits, labels), sparse)
        assert relative_error(w.grad, numeric) < 1e-5

    def test_full_gradcheck_embedding(self, tiny_config, tiny_batch):
        dense, sparse, labels = tiny_batch
        model = DLRM(tiny_config)
        w = model.tables[0].weight

        def loss_of(wv):
            w.data = wv
            return bce_with_logits(model.forward(dense, sparse), labels)

        numeric = numerical_gradient(loss_of, w.data.copy())
        logits = model.forward(dense, sparse)
        for p in model.parameters():
            p.zero_grad()
        backward(model, bce_grad(logits, labels), sparse)
        # float32 lookups in the forward pass put a floor on the agreement
        # achievable by float64 central differences.
        assert relative_error(w.grad, numeric) < 1e-2

    def test_unused_rows_get_zero_grad(self, tiny_config, tiny_batch):
        dense, sparse, labels = tiny_batch
        model = DLRM(tiny_config)
        logits = model.forward(dense, sparse)
        for p in model.parameters():
            p.zero_grad()
        backward(model, bce_grad(logits, labels), sparse)
        used = set(sparse[:, 0].tolist())
        for row in range(tiny_config.table_cardinalities[0]):
            if row not in used:
                np.testing.assert_array_equal(model.tables[0].weight.grad[row], 0.0)

    def test_backward_interaction_before_forward_rejected(self, tiny_config):
        model = DLRM(tiny_config)
        with pytest.raises(RuntimeError):
            model.backward_interaction(np.zeros(4))


class TestParameterGroups:
    def test_partition_is_disjoint_and_complete(self, tiny_config):
        model = DLRM(tiny_config)
        mlp = set(id(p) for p in model.mlp_parameters())
        emb = set(id(p) for p in model.table_parameters())
        assert not mlp & emb
        assert mlp | emb == set(id(p) for p in model.parameters())

    def test_table_parameters_one_per_table(self, tiny_config):
        model = DLRM(tiny_config)
        assert len(model.table_parameters()) == tiny_config.n_tables


class TestTrainingSanity:
    def test_loss_decreases_on_synthetic_data(self):
        spec = make_uniform_spec("t", 3, 60, zipf_exponent=1.2)
        dataset = SyntheticClickDataset(spec, seed=5, teacher_scale=3.0)
        config = DLRMConfig.from_dataset(spec, embedding_dim=8, seed=6)
        model = DLRM(config)
        from repro.train import ReferenceTrainer

        trainer = ReferenceTrainer(model, dataset, lr=0.3)
        history = trainer.train(80, 64)
        early = np.mean(history.losses[:10])
        late = np.mean(history.losses[-10:])
        assert late < early - 0.02
