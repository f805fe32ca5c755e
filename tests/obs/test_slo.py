"""SLO burn-rate monitors: windows, monotonicity, multi-window firing.

The property the harness pins: with the totals fixed, more bad
observations in the window never lower the burn rate.  Plus the
multi-window alert semantics (fast AND slow must both exceed their
thresholds), the zero-budget ``objective == 1`` infinite burn, and the
live-feed integration through the day-in-the-life scenario.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.runtime import OBS
from repro.obs.slo import (
    SLOW_WINDOW,
    BurnRateMonitor,
    SloHub,
    SLOSpec,
    attach_hub,
    default_monitors,
)


def _spec(**overrides) -> SLOSpec:
    base = dict(
        name="m", source="feed", threshold=1.0, objective=0.99,
        fast_window=1.0, slow_window=10.0,
    )
    base.update(overrides)
    return SLOSpec(**base)


class TestSpecValidation:
    def test_defaults_are_the_google_multiwindow_pair(self):
        spec = SLOSpec(name="m", source="feed", threshold=1.0)
        assert spec.fast_burn == 14.4
        assert spec.slow_burn == 6.0
        assert spec.objective == 0.99

    @pytest.mark.parametrize("overrides", [
        {"name": ""},
        {"source": ""},
        {"objective": 0.0},
        {"objective": 1.1},
        {"objective": -0.5},
        {"threshold": -1.0},
        {"threshold": math.inf},
        {"fast_window": 2.0, "slow_window": 1.0},
    ])
    def test_bad_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            _spec(**overrides)

    def test_objective_one_is_legal_zero_budget(self):
        monitor = BurnRateMonitor(_spec(objective=1.0))
        monitor.observe(0.5, 0.0)  # good
        assert monitor.burn_rate(1.0, now=1.0) == 0.0


class TestWindowSemantics:
    def test_window_is_half_open_on_the_left(self):
        monitor = BurnRateMonitor(_spec())
        monitor.observe(0.0, 2.0)
        monitor.observe(1.0, 2.0)
        # (now - window, now] => t=0.0 excluded, t=1.0 included
        assert monitor.window_counts(1.0, 1.0) == (1, 1)
        assert monitor.window_counts(2.0, 1.0) == (2, 2)

    def test_burn_rate_is_windowed_fraction_over_budget(self):
        monitor = BurnRateMonitor(_spec())
        monitor.observe(0.5, 0.0)   # good
        monitor.observe(0.9, 2.0)   # bad
        # 1 bad of 2 in window / 0.01 budget = 50
        assert monitor.burn_rate(1.0, now=1.0) == pytest.approx(50.0)

    def test_no_samples_or_no_bad_is_zero_burn(self):
        monitor = BurnRateMonitor(_spec())
        assert monitor.burn_rate(1.0, now=5.0) == 0.0
        monitor.observe(4.9, 0.5)  # good
        assert monitor.burn_rate(1.0, now=5.0) == 0.0

    def test_zero_budget_breach_burns_infinitely(self):
        monitor = BurnRateMonitor(_spec(objective=1.0))
        monitor.observe(0.5, 2.0)
        assert monitor.burn_rate(1.0, now=1.0) == math.inf

    def test_now_defaults_to_last_sample_time(self):
        monitor = BurnRateMonitor(_spec())
        monitor.observe(3.0, 2.0)
        monitor.observe(7.0, 2.0)
        assert monitor.last_time == 7.0
        assert monitor.burn_rate(1.0) == monitor.burn_rate(1.0, now=7.0)

    def test_non_finite_time_rejected(self):
        monitor = BurnRateMonitor(_spec())
        with pytest.raises(ValueError):
            monitor.observe(math.nan, 1.0)


class TestMonotonicity:
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=30),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_more_bad_never_lowers_the_burn_rate(self, times, data):
        """Fixed sample times and totals; flipping one more observation
        from good to bad never decreases the windowed burn rate."""
        k = data.draw(st.integers(min_value=0, max_value=len(times) - 1))
        spec = _spec(fast_window=1.0, slow_window=1.0)

        def build(n_bad: int) -> BurnRateMonitor:
            monitor = BurnRateMonitor(spec)
            for i, t in enumerate(times):
                monitor.observe(t, 2.0 if i < n_bad else 0.0)
            return monitor

        fewer = build(k).burn_rate(1.0, now=1.0)
        more = build(k + 1).burn_rate(1.0, now=1.0)
        assert more >= fewer

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_burn_rate_never_negative(self, times, n_bad):
        monitor = BurnRateMonitor(_spec())
        for i, t in enumerate(times):
            monitor.observe(t, 2.0 if i < n_bad else 0.0)
        assert monitor.burn_rate(1.0, now=1.0) >= 0.0


class TestMultiWindowFiring:
    def test_both_windows_hot_fires(self):
        monitor = BurnRateMonitor(_spec())
        for t in (0.2, 0.4, 0.6, 9.8):
            monitor.observe(t, 2.0)  # every observation bad
        state = monitor.state()
        assert state.fast_burn_rate >= monitor.spec.fast_burn
        assert state.slow_burn_rate >= monitor.spec.slow_burn
        assert state.firing

    def test_fast_only_does_not_fire(self):
        monitor = BurnRateMonitor(_spec())
        # A long good history dilutes the slow window; the burst at the
        # end saturates only the fast window.
        for i in range(100):
            monitor.observe(0.5 + i * 0.09, 0.0)
        monitor.observe(9.95, 2.0)
        monitor.observe(9.99, 2.0)
        state = monitor.state()
        assert state.fast_burn_rate >= monitor.spec.fast_burn
        assert state.slow_burn_rate < monitor.spec.slow_burn
        assert not state.firing

    def test_slow_only_does_not_fire(self):
        monitor = BurnRateMonitor(_spec())
        for t in (0.5, 1.5, 2.5):
            monitor.observe(t, 2.0)  # old badness, outside the fast window
        monitor.observe(9.5, 0.0)  # the fast window sees only good
        state = monitor.state()
        assert state.fast_burn_rate < monitor.spec.fast_burn
        assert state.slow_burn_rate >= monitor.spec.slow_burn
        assert not state.firing

    def test_state_counts_cover_all_samples(self):
        monitor = BurnRateMonitor(_spec())
        monitor.observe(0.1, 2.0)
        monitor.observe(5.0, 0.0)
        state = monitor.state()
        assert state.samples == 2
        assert state.bad_samples == 1

    def test_state_json_maps_inf_to_string(self):
        monitor = BurnRateMonitor(_spec(objective=1.0))
        monitor.observe(9.9, 2.0)
        doc = monitor.state().to_json_dict()
        assert doc["fast_burn_rate"] == "inf"
        assert doc["slow_burn_rate"] == "inf"
        assert doc["firing"] is True  # inf exceeds any threshold pair


class TestSloHub:
    def test_each_monitor_is_evaluated_at_its_own_last_sample(self):
        early = BurnRateMonitor(_spec(name="early", source="a"))
        late = BurnRateMonitor(_spec(name="late", source="b"))
        hub = SloHub([early, late])
        hub.feed("a", 0.5, 2.0)
        hub.feed("b", 7.0, 0.0)
        assert [(s.name, s.now) for s in hub.states()] == [("early", 0.5), ("late", 7.0)]
        assert [s.name for s in hub.firing()] == ["early"]

    def test_feed_routes_by_source(self):
        serve = BurnRateMonitor(_spec(name="a", source="serve_latency"))
        train = BurnRateMonitor(_spec(name="b", source="train_step"))
        hub = SloHub([serve, train])
        hub.feed("serve_latency", 0.5, 2.0)
        hub.feed("train_step", 0.5, 0.0)
        hub.feed("unknown_source", 0.5, 2.0)
        assert serve.window_counts(1.0, 0.5) == (1, 1)
        assert train.window_counts(1.0, 0.5) == (1, 0)

    def test_firing_filters_states(self):
        hot = BurnRateMonitor(
            _spec(name="hot", source="s", objective=1.0,
                  fast_burn=1.0, slow_burn=1.0)
        )
        cold = BurnRateMonitor(_spec(name="cold", source="s", threshold=5.0))
        hub = SloHub([hot, cold])
        hub.feed("s", 0.5, 2.0)
        names = [state.name for state in hub.firing()]
        assert names == ["hot"]
        assert len(hub.states()) == 2

    def test_to_json_dict_carries_spec_and_state(self):
        hub = SloHub([BurnRateMonitor(_spec(name="m1", source="s1"))])
        hub.feed("s1", 0.5, 2.0)
        doc = hub.to_json_dict()
        (mon,) = doc["monitors"]
        assert mon["name"] == "m1"
        assert mon["source"] == "s1"
        assert mon["threshold"] == 1.0
        assert mon["objective"] == 0.99
        assert mon["samples"] == 1
        assert mon["bad_samples"] == 1
        assert isinstance(mon["firing"], bool)

    def test_attach_hub(self):
        before = OBS.slo_hub
        try:
            hub = attach_hub()
            assert OBS.slo_hub is hub
            mine = SloHub()
            assert attach_hub(mine) is mine
            assert OBS.slo_hub is mine
        finally:
            OBS.slo_hub = before


class TestDefaultMonitors:
    def test_standard_three(self):
        monitors = default_monitors(
            serve_p99_target=2e-3,
            publish_staleness_bound=0.05,
            train_step_target=5e-3,
        )
        specs = {m.spec.name: m.spec for m in monitors}
        assert set(specs) == {
            "serve_p99_latency", "publish_staleness", "train_step_time"
        }
        assert specs["serve_p99_latency"].source == "serve_latency"
        assert specs["train_step_time"].source == "train_step"
        publish = specs["publish_staleness"]
        assert publish.objective == 1.0
        assert publish.fast_burn == publish.slow_burn == 1.0
        for spec in specs.values():
            assert spec.fast_window == pytest.approx(spec.slow_window / 5.0)

    def test_every_monitor_uses_the_standard_window(self):
        monitors = default_monitors(
            serve_p99_target=1e-3, publish_staleness_bound=0.01, train_step_target=1e-2
        )
        assert [m.spec.slow_window for m in monitors] == [SLOW_WINDOW] * 3
        assert [m.spec.fast_window for m in monitors] == [SLOW_WINDOW / 5.0] * 3


class TestLiveFeedIntegration:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.obs import run_day_in_the_life

        return run_day_in_the_life(n_iterations=2, n_requests=60)

    def test_all_three_tiers_fed_the_hub(self, result):
        assert result.slo is not None
        samples = {state.name: state.samples for state in result.slo.states()}
        assert samples == {"serve_p99_latency": 60, "publish_staleness": 1, "train_step_time": 2}

    def test_scenario_slos_hold(self, result):
        # The scenario's own budgets are sized to its workload: a firing
        # monitor here means either a real regression or a broken feed.
        assert result.slo.firing() == []

    def test_hub_detached_after_scenario(self, result):
        # run_day_in_the_life attaches its hub inside capture(); the
        # caller's runtime state must come back untouched.
        assert OBS.slo_hub is not result.slo
