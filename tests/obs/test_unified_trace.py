"""Acceptance: ONE chrome trace from one run carries every tier.

The day-in-the-life scenario trains with compressed chunked exchanges,
publishes a delta, and serves a request trace; the unified trace must
show trainer step spans, Communicator stage events, the delta
publication, and serving request spans, with at least two counter
tracks — and the exporters must round-trip the same run's snapshot.
"""

from __future__ import annotations

import json

import pytest

from repro.dist.timeline import EventCategory, Timeline
from repro.obs.exporters import snapshot_to_json, to_prometheus
from repro.obs.scenario import build_day_world, run_day_in_the_life, write_artifacts
from repro.obs.trace import unified_chrome_trace
from tests.conftest import from_json
from tests.obs.prometheus_parser import from_prometheus, scrub_exact


@pytest.fixture(scope="module")
def result():
    return run_day_in_the_life(n_iterations=2, n_requests=60)


class TestUnifiedTrace:
    def test_all_tiers_in_one_trace(self, result):
        spans = [e for e in result.trace["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in spans}
        # trainer steps
        assert EventCategory.TRAIN_STEP in names
        # Communicator stage events (the compressed exchange's ① and ②)
        assert EventCategory.COMPRESS in names
        assert EventCategory.METADATA in names
        # the delta publication and the serving requests
        assert EventCategory.PUBLISH in names
        assert EventCategory.SERVE_REQUEST in names

    def test_tiers_are_separate_process_lanes(self, result):
        by_pid: dict[int, set[str]] = {}
        for e in result.trace["traceEvents"]:
            if e.get("ph") == "X":
                by_pid.setdefault(e["pid"], set()).add(e["name"])
        lanes_with = lambda cat: [p for p, names in by_pid.items() if cat in names]
        assert lanes_with(EventCategory.TRAIN_STEP) != lanes_with(EventCategory.SERVE_REQUEST)
        assert len(by_pid) == 3  # train, publish, serve

    def test_at_least_two_counter_tracks(self, result):
        tracks = {
            e["name"] for e in result.trace["traceEvents"] if e.get("ph") == "C"
        }
        assert len(tracks) >= 2
        assert "serve_queue_depth" in tracks
        assert "train_wire_bytes" in tracks

    def test_offsets_shift_later_tiers(self, result):
        spans = [e for e in result.trace["traceEvents"] if e.get("ph") == "X"]
        train_end = max(
            e["ts"] + e["dur"]
            for e in spans
            if e["name"] == EventCategory.TRAIN_STEP
        )
        publish_start = min(
            e["ts"] for e in spans if e["name"] == EventCategory.PUBLISH
        )
        assert publish_start >= train_end - 1  # 1 us rounding slack

    def test_exporters_round_trip_the_same_run(self, result):
        snap = result.snapshot
        assert from_json(snapshot_to_json(snap)) == snap
        assert from_prometheus(to_prometheus(snap)) == scrub_exact(snap)

    def test_snapshot_covers_all_tiers(self, result):
        names = set(dict(result.snapshot.families))
        assert {"train_iterations_total", "comm_seconds_total",
                "pipeline_raw_bytes_total", "publish_rounds_total",
                "serve_requests_total"} <= names

    def test_report_mentions_each_tier_breakdown(self, result):
        for tier in ("train", "publish", "serve"):
            assert f"{tier} time breakdown" in result.report


class TestScenarioHelpersShared:
    """``build_day_world`` / ``write_artifacts`` serve both day-in-the-life
    drivers (``repro.faults.scenario`` imports them)."""

    def test_default_arguments_reproduce_the_recorded_run(self):
        """Recorded at ``16243c1``, before the world builder and artifact
        writer moved out of the two scenario bodies.  The wire bytes were
        re-recorded (3684 before, all six tables shipping all-zero codes)
        when the publication began skipping tables within their bound: the
        three tables with evicted rows ship, the other three do not."""
        default = run_day_in_the_life()
        assert default.train_makespan == 0.0002696328618596025
        assert default.publish_wire_nbytes == 1892
        assert default.serve_p99_latency == 5.513712608802351e-05

    def test_artifact_sets(self, result, tmp_path):
        run = (result.snapshot, result.trace, result.report)
        assert write_artifacts(None, *run, trace_name="t.json") == {}
        paths = write_artifacts(
            tmp_path / "run", *run, trace_name="t.json", extra={"note.txt": "hello\n"}
        )
        assert set(paths) == {"metrics.json", "metrics.prom", "t.json", "run_report.txt", "note.txt"}
        assert json.loads(paths["t.json"].read_text()) == json.loads(json.dumps(result.trace))
        assert paths["run_report.txt"].read_text() == result.report + "\n"
        assert paths["note.txt"].read_text() == "hello\n"

    def test_twin_worlds_match(self):
        _, config_a, trainer_a = build_day_world("twin", 3, 50, seed=5)
        _, config_b, trainer_b = build_day_world("twin", 3, 50, seed=5)
        assert config_a == config_b
        for p, q in zip(trainer_a.model.parameters(), trainer_b.model.parameters()):
            assert p.data.tobytes() == q.data.tobytes()


class TestUnifiedTraceHelpers:
    def test_unknown_offset_tier_rejected(self):
        with pytest.raises(ValueError):
            unified_chrome_trace({"a": Timeline()}, offsets={"b": 1.0})

    def test_trace_survives_json(self):
        timeline = Timeline()
        timeline.record(0, EventCategory.EMB_LOOKUP, 0.0, 1.0)
        trace = unified_chrome_trace({"train": timeline})
        doc = json.loads(json.dumps(trace))
        assert doc == trace and doc["traceEvents"]
