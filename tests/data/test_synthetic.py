"""Tests for the synthetic click dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.specs import TableSpec, make_uniform_spec
from repro.data.synthetic import SyntheticClickDataset, zipf_probabilities


def _query_counts(dataset: SyntheticClickDataset) -> np.ndarray:
    """How often each id of table 0 is queried in one batch of 20 000."""
    ids = dataset.batch(20000).sparse[:, 0]
    return np.bincount(ids, minlength=dataset.spec.tables[0].cardinality)


class TestZipfProbabilities:
    def test_sums_to_one(self):
        p = zipf_probabilities(100, 1.2)
        assert p.sum() == pytest.approx(1.0)

    def test_zero_exponent_is_uniform(self):
        p = zipf_probabilities(10, 0.0)
        np.testing.assert_allclose(p, 0.1)

    def test_monotone_decreasing(self):
        p = zipf_probabilities(50, 1.5)
        assert (np.diff(p) <= 0).all()

    def test_higher_exponent_more_concentrated(self):
        mild = zipf_probabilities(1000, 0.8)
        strong = zipf_probabilities(1000, 2.0)
        assert strong[:10].sum() > mild[:10].sum()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -0.5)


class TestSyntheticClickDataset:
    @pytest.fixture
    def dataset(self):
        spec = make_uniform_spec("t", n_tables=4, cardinality=500, zipf_exponent=1.5)
        return SyntheticClickDataset(spec, seed=7)

    def test_batch_shapes_and_dtypes(self, dataset):
        batch = dataset.batch(64)
        assert batch.dense.shape == (64, 13)
        assert batch.dense.dtype == np.float32
        assert batch.sparse.shape == (64, 4)
        assert batch.sparse.dtype == np.int64
        assert batch.labels.shape == (64,)
        assert set(np.unique(batch.labels)) <= {0.0, 1.0}

    def test_ids_in_range(self, dataset):
        batch = dataset.batch(256)
        assert batch.sparse.min() >= 0
        assert batch.sparse.max() < 500

    def test_deterministic_batches(self):
        spec = make_uniform_spec("t", n_tables=3, cardinality=100)
        a = SyntheticClickDataset(spec, seed=3).batch(32, batch_index=5)
        b = SyntheticClickDataset(spec, seed=3).batch(32, batch_index=5)
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.sparse, b.sparse)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_batch_indices_differ(self, dataset):
        a = dataset.batch(32, batch_index=0)
        b = dataset.batch(32, batch_index=1)
        assert not np.array_equal(a.sparse, b.sparse)

    def test_different_seeds_differ(self):
        spec = make_uniform_spec("t", n_tables=2, cardinality=100)
        a = SyntheticClickDataset(spec, seed=1).batch(32)
        b = SyntheticClickDataset(spec, seed=2).batch(32)
        assert not np.array_equal(a.sparse, b.sparse)

    def test_zipf_skew_concentrates_queries(self):
        spec_hot = make_uniform_spec("hot", 1, 1000, zipf_exponent=2.0)
        spec_flat = make_uniform_spec("flat", 1, 1000, zipf_exponent=0.0)
        hot_counts = _query_counts(SyntheticClickDataset(spec_hot, seed=1))
        flat_counts = _query_counts(SyntheticClickDataset(spec_flat, seed=1))
        hot_top = np.sort(hot_counts)[::-1][:10].sum() / hot_counts.sum()
        flat_top = np.sort(flat_counts)[::-1][:10].sum() / flat_counts.sum()
        assert hot_top > 0.5 > flat_top

    def test_labels_correlate_with_teacher(self, dataset):
        """The planted signal must be learnable: a large batch's labels are
        not independent of the features (check via class balance spread
        across hot ids)."""
        batch = dataset.batch(4096)
        # Group labels by the id of table 0 and verify the click rate varies.
        ids = batch.sparse[:, 0]
        hot = np.bincount(ids).argmax()
        mask = ids == hot
        if 10 < mask.sum() < 4090:
            overall = batch.labels.mean()
            assert 0.02 < overall < 0.98

    def test_rejects_bad_sizes(self, dataset):
        with pytest.raises(ValueError):
            dataset.batch(0)

    def test_dense_weight_moves_labels_not_features(self):
        spec = make_uniform_spec("w", 3, 50)
        plain = SyntheticClickDataset(spec, seed=3).batch(256)
        sparse_only = SyntheticClickDataset(spec, seed=3, dense_weight=0.0).batch(256)
        np.testing.assert_array_equal(plain.dense, sparse_only.dense)
        np.testing.assert_array_equal(plain.sparse, sparse_only.sparse)
        assert not np.array_equal(plain.labels, sparse_only.labels)
        with pytest.raises(ValueError, match="dense_weight"):
            SyntheticClickDataset(spec, dense_weight=-1.0)

    def test_rank_permutation_hides_ordering(self):
        """Hot ids should not all be small integers."""
        spec = make_uniform_spec("t", 1, 1000, zipf_exponent=2.0)
        ds = SyntheticClickDataset(spec, seed=11)
        counts = _query_counts(ds)
        assert counts.argmax() > 10  # the hottest id is scattered by the permutation
