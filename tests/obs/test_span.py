"""``OBS_STREAM`` annotations, counter tracks and the zero-overhead
runtime switch.

Annotations (trainer steps, publications, serving requests, fault
windows) live on the ``OBS_STREAM`` lane: they render in the chrome trace
but never enter the profiling layer's time accounting — the invariant
that lets instrumentation annotate work the simulator already charged
without double counting.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.dist.timeline import OBS_STREAM, EventCategory, Timeline
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import OBS, capture, disable, enable, enabled
from repro.profiling.breakdown import overlap_report


class TestNoDoubleCounting:
    def test_obs_spans_excluded_from_category_totals(self):
        timeline = Timeline()
        timeline.record(0, EventCategory.EMB_LOOKUP, 0.0, 1.0)
        timeline.record(0, EventCategory.TRAIN_STEP, 0.0, 10.0, stream=OBS_STREAM)
        totals = timeline.total_by_category(rank=0)
        assert EventCategory.TRAIN_STEP not in totals
        assert totals[EventCategory.EMB_LOOKUP] == 1.0

    def test_obs_spans_excluded_from_overlap_report(self):
        timeline = Timeline()
        timeline.record(0, EventCategory.EMB_LOOKUP, 0.0, 1.0)
        baseline = overlap_report(timeline)
        timeline.record(0, EventCategory.TRAIN_STEP, 0.0, 50.0, stream=OBS_STREAM)
        assert overlap_report(timeline) == baseline

    def test_obs_spans_render_in_chrome_trace(self):
        timeline = Timeline()
        timeline.record(0, EventCategory.TRAIN_STEP, 0.0, 1.0, stream=OBS_STREAM)
        trace = timeline.to_chrome_trace()
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert any(e["name"] == EventCategory.TRAIN_STEP for e in spans)


class TestRuntimeSwitch:
    def test_disabled_by_default_in_tests(self):
        assert not OBS.enabled
        assert not enabled()

    def test_enable_disable(self):
        reg = enable()
        try:
            assert enabled()
            assert OBS.registry is reg
            assert isinstance(reg, MetricsRegistry)
        finally:
            disable()
        assert not enabled()

    def test_enable_accepts_existing_registry(self):
        mine = MetricsRegistry()
        try:
            assert enable(mine) is mine
            assert OBS.registry is mine
        finally:
            disable()

    def test_capture_restores_prior_state(self):
        outer = enable()
        try:
            with capture() as inner:
                assert inner is not outer
                assert OBS.registry is inner
            assert OBS.registry is outer
            assert enabled()
        finally:
            disable()

    def test_capture_restores_disabled_state(self):
        assert not enabled()
        with capture():
            assert enabled()
        assert not enabled()


class TestTimelineCounterTracks:
    def test_record_counter_validates(self):
        timeline = Timeline()
        with pytest.raises(ValueError):
            timeline.record_counter("", 0.0, 1.0)
        with pytest.raises(ValueError):
            timeline.record_counter("depth", -1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_or_value_rejected(self, bad):
        """Regression: ``nan < 0`` is False, so a NaN time (and any
        non-finite value) used to be accepted and exported as a ``NaN`` /
        ``Infinity`` token, which no JSON parser reads."""
        timeline = Timeline()
        with pytest.raises(ValueError, match="time"):
            timeline.record_counter("depth", bad, 1.0)
        with pytest.raises(ValueError, match="value"):
            timeline.record_counter("depth", 1.0, bad)
        assert timeline.counters == []
        json.dumps(timeline.to_chrome_trace(), allow_nan=False)

    def test_chrome_trace_emits_counter_events(self):
        timeline = Timeline()
        timeline.record_counter("depth", 1.5, 4.0)
        trace = timeline.to_chrome_trace()
        counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        assert len(counters) == 1
        [event] = counters
        assert event["name"] == "depth"
        assert event["ts"] == pytest.approx(1.5e6)
        assert event["args"] == {"value": 4.0}
