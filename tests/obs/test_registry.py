"""MetricsRegistry core: families, label sets, histograms, snapshot laws.

The property tests pin the algebra the exporters and multi-tier merges
rely on: snapshot merge is associative, and the histogram quantile
estimator always answers with an observed value (exact mode) or a bound
no larger than the observed max (bucketed mode).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    linear_buckets,
)
from tests.conftest import series_value


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
        assert c.value() == 1
        assert c.value(stage="payload") == 5

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
    def test_set_add_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(4.0, queue="a")
        g.add(-1.5, queue="a")
        assert g.value(queue="a") == 2.5

    def test_missing_series_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            reg.gauge("depth").value(queue="nope")


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
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0), exact_limit=4)
        for v in (0.5, 1.5, 3.0, 5.0):
            h.observe(v)
        assert h.data().exact == (0.5, 1.5, 3.0, 5.0)
        h.observe(2.5)
        data = h.data()
        assert data.exact is None
        assert data.count == 5
        # bucketed fallback: upper edge clamped to the observed max;
        # overflow ranks answer the max itself.  p50 of 5 samples is rank
        # 3 = 2.5, which lives in the (2.0, 4.0] bucket.
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

    def test_merge_sums_counters_and_right_biases_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total").inc(2)
        b.counter("n_total").inc(3)
        a.gauge("depth").set(1.0)
        b.gauge("depth").set(9.0)
        merged = a.snapshot() | b.snapshot()
        assert merged.counter_value("n_total") == 5
        assert series_value(merged, "depth") == 9.0

    def test_merge_is_disjoint_union_over_names(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("left_total").inc()
        b.counter("right_total").inc()
        merged = a.snapshot().merge(b.snapshot())
        assert merged.names() == ["left_total", "right_total"]

    def test_histogram_merge_rejects_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(1.0)
        b.histogram("h", bounds=(1.0, 3.0)).observe(1.0)
        with pytest.raises(ValueError):
            a.snapshot().merge(b.snapshot())


# ------------------------------------------------------------- properties

finite_values = st.floats(
    min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False
)

# Merge equality is exact, so the associativity property feeds integral
# values (counts, bytes — what counters carry in practice): float sums of
# integers this size are exact, while arbitrary floats would fail on
# rounding, not on the merge algebra.
integral_values = st.integers(min_value=0, max_value=10**9).map(float)


def _registry_from(counter_incs, gauge_sets, hist_obs, exact_limit):
    reg = MetricsRegistry()
    for label, v in counter_incs:
        reg.counter("ops_total").inc(v, kind=label)
    for label, v in gauge_sets:
        reg.gauge("level").set(v, kind=label)
    h = reg.histogram("dist", bounds=(1.0, 10.0, 100.0), exact_limit=exact_limit)
    for v in hist_obs:
        h.observe(v)
    return reg


registry_state = st.builds(
    _registry_from,
    st.lists(st.tuples(st.sampled_from("abc"), integral_values), max_size=5),
    st.lists(st.tuples(st.sampled_from("abc"), integral_values), max_size=5),
    st.lists(integral_values, max_size=12),
    st.integers(min_value=0, max_value=8),
)


class TestMergeProperties:
    @given(registry_state, registry_state, registry_state)
    @settings(max_examples=60, deadline=None)
    def test_merge_associative(self, ra, rb, rc):
        a, b, c = ra.snapshot(), rb.snapshot(), rc.snapshot()
        assert (a | b) | c == a | (b | c)

    @given(registry_state, registry_state)
    @settings(max_examples=60, deadline=None)
    def test_merge_sums_counter_totals(self, ra, rb):
        a, b = ra.snapshot(), rb.snapshot()

        def total(snap):
            return sum(
                v
                for name, kind, _key, v in snap.iter_series()
                if kind == "counter"
            )

        assert total(a | b) == pytest.approx(total(a) + total(b))

    @given(registry_state, registry_state)
    @settings(max_examples=60, deadline=None)
    def test_merged_histogram_count_and_total_sum(self, ra, rb):
        a, b = ra.snapshot(), rb.snapshot()
        merged = a | b
        if "dist" not in merged.names():
            return
        def stats(snap):
            try:
                d = series_value(snap, "dist")
            except KeyError:  # family or unlabeled series absent
                return 0, 0.0
            return d.count, d.total
        ca, ta = stats(a)
        cb, tb = stats(b)
        cm, tm = stats(merged)
        assert cm == ca + cb
        assert tm == pytest.approx(ta + tb)


class TestQuantileProperties:
    @given(st.lists(finite_values, min_size=1, max_size=30), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_exact_mode_answers_an_observed_value(self, samples, q):
        h = Histogram("dist", bounds=(1.0, 10.0), exact_limit=64)
        for v in samples:
            h.observe(v)
        assert h.quantile(q) in samples

    @given(st.lists(finite_values, min_size=1, max_size=30), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bucketed_mode_bounded_by_min_and_max(self, samples, q):
        h = Histogram("dist", bounds=(1.0, 10.0, 100.0), exact_limit=0)
        for v in samples:
            h.observe(v)
        estimate = h.quantile(q)
        assert estimate <= max(samples)
        # a bucket upper edge can only over-estimate within its bucket,
        # never answer below the smallest sample's bucket floor
        assert estimate >= min(min(samples), 1.0) or math.isclose(estimate, min(samples))

    @given(st.lists(finite_values, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_quantile_monotone_in_q(self, samples):
        h = Histogram("dist", bounds=(1.0, 10.0), exact_limit=64)
        for v in samples:
            h.observe(v)
        qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        estimates = [h.quantile(q) for q in qs]
        assert estimates == sorted(estimates)
