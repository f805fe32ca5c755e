"""MetricsRegistry core: families, label sets, histograms, snapshots.

The property tests pin the histogram quantile estimator: it always answers
with an observed value (exact mode) or a bound no larger than the observed
max (bucketed mode).
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    DEFAULT_EXACT_LIMIT,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    linear_buckets,
)


class TestBuckets:
    def test_exponential_buckets_grow_geometrically(self):
        b = exponential_buckets(1.0, 2.0, 4)
        assert b == (1.0, 2.0, 4.0, 8.0)

    def test_linear_buckets(self):
        b = linear_buckets(0.5, 0.25, 3)
        assert b == (0.5, 0.75, 1.0)

    def test_default_buckets_cover_microseconds_to_minutes(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] > 60.0


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "requests")
        c.inc()
        c.inc(2, stage="payload")
        c.inc(3, stage="payload")
        assert c.series() == {(): 1.0, (("stage", "payload"),): 5.0}

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("n_total").inc(-1)

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("n_total") is reg.counter("n_total")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("n_total")
        with pytest.raises(TypeError):
            reg.gauge("n_total")

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("9starts-with-digit")


class TestGauge:
    def test_set_keeps_the_last_value_per_label_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(4.0, queue="a")
        g.set(2.5, queue="a")
        g.set(1.0, queue="b")
        assert g.series() == {(("queue", "a"),): 2.5, (("queue", "b"),): 1.0}

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().gauge("depth").set(float("nan"))


class TestHistogramExactRank:
    """Satellite 1's estimator contract: exact-rank order statistics."""

    def test_small_sample_quantiles_are_observed_values(self):
        h = Histogram("lat")
        samples = [0.001, 0.002, 0.01, 0.5]
        for s in samples:
            h.observe(s)
        # rank = max(1, ceil(q*n)): p50 of 4 samples is the 2nd, p99 the 4th
        assert h.quantile(0.5) == 0.002
        assert h.quantile(0.99) == 0.5
        assert h.quantile(0.0) == 0.001
        assert h.quantile(1.0) == 0.5

    def test_single_sample_every_quantile_is_it(self):
        h = Histogram("lat")
        h.observe(0.125)
        for q in (0.0, 0.5, 0.9, 1.0):
            assert h.quantile(q) == 0.125

    def test_reservoir_dropped_beyond_exact_limit(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        quarter = DEFAULT_EXACT_LIMIT // 4
        for v in (0.5, 1.5, 3.0, 5.0):
            for _ in range(quarter):
                h.observe(v)
        assert h.data().exact == (0.5,) * quarter + (1.5,) * quarter + (3.0,) * quarter + (5.0,) * quarter
        h.observe(2.5)
        data = h.data()
        assert data.exact is None
        assert data.count == DEFAULT_EXACT_LIMIT + 1
        # bucketed fallback: upper edge clamped to the observed max;
        # overflow ranks answer the max itself.  The median rank lands in
        # the (2.0, 4.0] bucket.
        assert data.quantile(0.5) == 4.0
        assert data.quantile(1.0) == 5.0

    def test_counts_include_overflow_bucket(self):
        h = Histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.data().counts == (1, 1, 1)

    def test_empty_quantile_raises(self):
        h = Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.data().quantile(1.5)
        reg = MetricsRegistry()
        reg.histogram("empty_hist").observe(1.0, k="a")
        with pytest.raises(KeyError):
            reg.histogram("empty_hist").data(k="b")

    def test_non_finite_observation_rejected(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        with pytest.raises(ValueError):
            h.observe(float("inf"))


class TestSnapshot:
    def test_snapshot_is_frozen_against_later_updates(self):
        reg = MetricsRegistry()
        reg.counter("n_total").inc(1)
        snap = reg.snapshot()
        reg.counter("n_total").inc(10)
        assert snap.counter_value("n_total") == 1
        assert reg.snapshot().counter_value("n_total") == 11

    def test_counter_value_reads_counters_only(self):
        reg = MetricsRegistry()
        reg.counter("n_total").inc(2, kind="a")
        reg.gauge("depth").set(1.0)
        snap = reg.snapshot()
        assert snap.counter_value("n_total", kind="a") == 2
        assert snap.counter_value("n_total", kind="b") == 0
        with pytest.raises(TypeError):
            snap.counter_value("depth")
        with pytest.raises(KeyError):
            snap.family("absent")


# ------------------------------------------------------------- properties

finite_values = st.floats(
    min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestQuantileProperties:
    @given(st.lists(finite_values, min_size=1, max_size=30), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_exact_mode_answers_an_observed_value(self, samples, q):
        h = Histogram("dist", bounds=(1.0, 10.0))
        for v in samples:
            h.observe(v)
        assert h.quantile(q) in samples

    @given(st.lists(finite_values, min_size=1, max_size=30), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bucketed_mode_bounded_by_min_and_max(self, samples, q):
        h = Histogram("dist", bounds=(1.0, 10.0, 100.0))
        for v in samples:
            h.observe(v)
        estimate = replace(h.data(), exact=None).quantile(q)
        assert estimate <= max(samples)
        # a bucket upper edge can only over-estimate within its bucket,
        # never answer below the smallest sample's bucket floor
        assert estimate >= min(min(samples), 1.0) or math.isclose(estimate, min(samples))

    @given(st.lists(finite_values, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_quantile_monotone_in_q(self, samples):
        h = Histogram("dist", bounds=(1.0, 10.0))
        for v in samples:
            h.observe(v)
        qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        estimates = [h.quantile(q) for q in qs]
        assert estimates == sorted(estimates)
