"""RequestLoadGenerator: deterministic open-loop Poisson arrivals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.serve import RequestLoadGenerator


@pytest.fixture(scope="module")
def dataset():
    return SyntheticClickDataset(
        make_uniform_spec("serve-load", n_tables=6, cardinality=500), seed=11
    )


class TestDeterminism:
    def test_same_seed_replays_the_trace(self, dataset):
        a = RequestLoadGenerator(dataset, qps=1000.0, seed=5).generate(50)
        b = RequestLoadGenerator(dataset, qps=1000.0, seed=5).generate(50)
        for x, y in zip(a, b):
            assert x.arrival_seconds == y.arrival_seconds
            np.testing.assert_array_equal(x.sparse, y.sparse)
            np.testing.assert_array_equal(x.dense, y.dense)

    def test_different_seeds_differ(self, dataset):
        a = RequestLoadGenerator(dataset, qps=1000.0, seed=5).generate(50)
        b = RequestLoadGenerator(dataset, qps=1000.0, seed=6).generate(50)
        assert [r.arrival_seconds for r in a] != [r.arrival_seconds for r in b]

    def test_consecutive_calls_continue_the_trace(self, dataset):
        gen = RequestLoadGenerator(dataset, qps=1000.0, seed=5)
        first = gen.generate(20)
        second = gen.generate(20)
        assert second[0].arrival_seconds > first[-1].arrival_seconds
        assert [r.request_id for r in first + second] == list(range(40))


class TestShape:
    def test_request_content_is_criteo_shaped(self, dataset):
        gen = RequestLoadGenerator(dataset, qps=500.0, seed=0)
        (request,) = gen.generate(1)
        assert request.sparse.shape == (6,)
        assert request.sparse.dtype == np.int64
        assert request.dense.shape == (dataset.spec.n_dense,)
        assert (request.sparse >= 0).all()
        assert (request.sparse < 500).all()

    def test_arrivals_strictly_increase(self, dataset):
        arrivals = [
            r.arrival_seconds
            for r in RequestLoadGenerator(dataset, qps=2000.0, seed=1).generate(200)
        ]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_mean_interarrival_matches_qps(self, dataset):
        qps = 4000.0
        requests = RequestLoadGenerator(dataset, qps=qps, seed=2).generate(4000)
        gaps = np.diff([0.0] + [r.arrival_seconds for r in requests])
        assert gaps.mean() == pytest.approx(1.0 / qps, rel=0.1)
        # Exponential gaps: std ~= mean (Poisson process signature).
        assert gaps.std() == pytest.approx(gaps.mean(), rel=0.15)

    def test_ids_follow_table_skew(self, dataset):
        """Zipf-skewed specs concentrate ids on few hot rows."""
        requests = RequestLoadGenerator(dataset, qps=100.0, seed=3).generate(2000)
        ids = np.array([r.sparse for r in requests])
        top_share = max(
            np.bincount(ids[:, 0], minlength=500).max() / len(requests), 0.0
        )
        assert top_share > 0.05  # the hottest row draws well above uniform (0.002)


class TestValidation:
    def test_positive_qps_required(self, dataset):
        with pytest.raises(ValueError):
            RequestLoadGenerator(dataset, qps=0.0)

    def test_positive_count_required(self, dataset):
        with pytest.raises(ValueError):
            RequestLoadGenerator(dataset, qps=10.0).generate(0)

    @pytest.mark.parametrize("n_requests", [2.7, float("nan"), float("inf")])
    def test_fractional_count_rejected_not_truncated(self, dataset, n_requests):
        with pytest.raises(ValueError, match="n_requests must be an integer >= 1"):
            RequestLoadGenerator(dataset, qps=100.0).generate(n_requests)
