"""Exporters: JSON and Prometheus round-trips, schema validation, run_report.

The two fidelity laws:

* JSON is lossless: ``from_json(snapshot_to_json(s)) == s``, where
  ``from_json`` validates the document, then walks it.
* Prometheus keeps buckets but not reservoirs:
  ``from_prometheus(to_prometheus(s)) == scrub_exact(s)``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.exporters import run_report, snapshot_to_json, to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.schema import (
    SCHEMA_ID,
    SCHEMA_ID_V1,
    SnapshotSchemaError,
    validate_snapshot_json,
)
from tests.conftest import from_json
from tests.obs.prometheus_parser import from_prometheus, scrub_exact


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("wire_bytes_total", "bytes on the wire").inc(4096, stage="payload")
    reg.counter("wire_bytes_total").inc(128, stage="metadata")
    reg.gauge("queue_depth", "outstanding requests").set(3.0, replica="0")
    h = reg.histogram("latency_seconds", "request latency", bounds=(0.001, 0.01, 0.1))
    for v in (0.0004, 0.002, 0.05, 0.2):
        h.observe(v)
    reg.histogram("ratio", bounds=(2.0, 8.0)).observe(5.0, table="3")
    return reg


integral_values = st.integers(min_value=0, max_value=10**9).map(float)


def _build_registry(counter_incs, hist_obs):
    reg = MetricsRegistry()
    for label, v in counter_incs:
        reg.counter("ops_total").inc(v, kind=label)
    h = reg.histogram("dist", bounds=(1.0, 10.0, 100.0))
    for v in hist_obs:
        h.observe(v)
    return reg


registry_state = st.builds(
    _build_registry,
    st.lists(st.tuples(st.sampled_from("abc"), integral_values), max_size=4),
    st.lists(integral_values, max_size=12),
)


class TestJsonRoundTrip:
    def test_lossless(self):
        snap = populated_registry().snapshot()
        assert from_json(snapshot_to_json(snap)) == snap

    def test_histograms_carry_the_fixed_reservoir_limit(self):
        from repro.obs.registry import DEFAULT_EXACT_LIMIT

        doc = json.loads(snapshot_to_json(populated_registry().snapshot()))
        histograms = [
            series["histogram"]
            for family in doc["families"]
            if family["kind"] == "histogram"
            for series in family["series"]
        ]
        assert histograms
        assert {h["exact_limit"] for h in histograms} == {DEFAULT_EXACT_LIMIT}

    def test_json_carries_schema_id(self):
        doc = json.loads(snapshot_to_json(populated_registry().snapshot()))
        assert doc["schema"] == SCHEMA_ID

    def test_accepts_live_registry(self):
        reg = populated_registry()
        assert from_json(snapshot_to_json(reg)) == reg.snapshot()

    @given(registry_state)
    @settings(max_examples=40, deadline=None)
    def test_lossless_property(self, reg):
        snap = reg.snapshot()
        assert from_json(snapshot_to_json(snap)) == snap


class TestPrometheusRoundTrip:
    def test_scrub_law(self):
        snap = populated_registry().snapshot()
        assert from_prometheus(to_prometheus(snap)) == scrub_exact(snap)

    def test_exposition_shape(self):
        text = to_prometheus(populated_registry().snapshot())
        assert '# TYPE wire_bytes_total counter' in text
        assert 'wire_bytes_total{stage="payload"} 4096' in text
        assert '# TYPE latency_seconds histogram' in text
        assert 'latency_seconds_bucket{le="+Inf"} 4' in text
        assert "latency_seconds_count 4" in text

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("odd_total").inc(1, path='a\\b "c"\nd')
        snap = reg.snapshot()
        assert from_prometheus(to_prometheus(snap)) == scrub_exact(snap)

    def test_empty_label_set_round_trips(self):
        """A labelless series renders without braces and must come back
        as the empty label key, for every metric kind."""
        reg = MetricsRegistry()
        reg.counter("bare_total").inc(7)
        reg.gauge("bare_gauge").set(2.5)
        reg.histogram("bare_hist", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        text = to_prometheus(snap)
        assert "bare_total 7" in text
        assert "bare_total{" not in text
        assert from_prometheus(text) == scrub_exact(snap)

    @pytest.mark.parametrize("value", [
        "",                      # empty label value
        '"',                     # lone quote
        "\\",                    # lone backslash
        "\\\\",                  # double backslash
        'tail\\',                # backslash at end
        'a"b\\c\nd',             # all three escapables
        "\n\n",                  # newlines only
        "a,b}c{d",               # exposition syntax characters
        'le="0.5"',              # looks like a label pair itself
    ])
    def test_adversarial_label_values_round_trip(self, value):
        reg = MetricsRegistry()
        reg.counter("edge_total").inc(3, key=value)
        snap = reg.snapshot()
        assert from_prometheus(to_prometheus(snap)) == scrub_exact(snap)

    def test_adversarial_labels_on_histograms_round_trip(self):
        reg = MetricsRegistry()
        h = reg.histogram("edge_hist", bounds=(1.0, 10.0))
        h.observe(0.5, path='a\\b "c"\nd')
        h.observe(20.0, path='a\\b "c"\nd')
        snap = reg.snapshot()
        assert from_prometheus(to_prometheus(snap)) == scrub_exact(snap)

    @given(st.text(max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_label_value_round_trip_property(self, value):
        from repro.obs.exporters import _esc_label
        from tests.obs.prometheus_parser import _unesc_label

        assert _unesc_label(_esc_label(value)) == value

    @given(registry_state)
    @settings(max_examples=40, deadline=None)
    def test_scrub_law_property(self, reg):
        snap = reg.snapshot()
        assert from_prometheus(to_prometheus(snap)) == scrub_exact(snap)

    def test_both_exporters_agree_on_the_same_snapshot(self):
        """The acceptance criterion: one snapshot through both formats
        lands on the same bucket-level state."""
        snap = populated_registry().snapshot()
        via_json = from_json(snapshot_to_json(snap))
        via_prom = from_prometheus(to_prometheus(snap))
        assert scrub_exact(via_json) == via_prom


class TestSchemaValidation:
    def test_valid_snapshot_passes(self):
        text = snapshot_to_json(populated_registry().snapshot())
        doc = validate_snapshot_json(text)
        assert doc["schema"] == SCHEMA_ID

    def test_wrong_schema_id_rejected(self):
        doc = json.loads(snapshot_to_json(populated_registry().snapshot()))
        doc["schema"] = "something/else"
        with pytest.raises(SnapshotSchemaError):
            validate_snapshot_json(json.dumps(doc))

    def test_histogram_count_mismatch_rejected(self):
        doc = json.loads(snapshot_to_json(populated_registry().snapshot()))
        for family in doc["families"]:
            if family["kind"] == "histogram":
                family["series"][0]["histogram"]["count"] += 1
                break
        with pytest.raises(SnapshotSchemaError):
            validate_snapshot_json(json.dumps(doc))

    def test_duplicate_family_rejected(self):
        doc = json.loads(snapshot_to_json(populated_registry().snapshot()))
        doc["families"].append(doc["families"][0])
        with pytest.raises(SnapshotSchemaError):
            validate_snapshot_json(json.dumps(doc))

    def test_cli_main(self, tmp_path, capsys):
        from repro.obs.schema import main

        path = tmp_path / "metrics.json"
        path.write_text(snapshot_to_json(populated_registry().snapshot()))
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        path.write_text("{}")
        assert main([str(path)]) != 0
        assert "INVALID" in capsys.readouterr().err


def _minimal_critical_path_block() -> dict:
    return {
        "train": {
            "makespan": 1.5,
            "attribution": [
                {"rank": 0, "stream": "compute", "category": "compress", "seconds": 1.0},
                {"rank": 1, "stream": "comm", "category": "alltoall_fwd", "seconds": 0.5},
            ],
            "steps": [
                {
                    "event_index": 0, "rank": 0, "stream": "compute",
                    "category": "compress", "start": 0.0, "end": 1.0,
                },
                {
                    "event_index": None, "rank": 1, "stream": "comm",
                    "category": "idle", "start": 1.0, "end": 1.5,
                },
            ],
        }
    }


def _minimal_slo_block() -> dict:
    from repro.obs.slo import BurnRateMonitor, SloHub, SLOSpec

    hub = SloHub(
        [
            BurnRateMonitor(
                SLOSpec(
                    name="serve_p99_latency", source="serve_latency",
                    threshold=1.0, objective=1.0,
                    fast_window=0.2, slow_window=1.0,
                )
            )
        ]
    )
    hub.feed("serve_latency", 0.5, 2.0)  # zero-budget breach -> "inf" burns
    return hub.to_json_dict()


class TestSchemaV2Migration:
    """v2 = v1 families + an optional ``reports`` block; both versions
    must keep parsing and validating."""

    def test_v1_document_still_parses(self):
        snap = populated_registry().snapshot()
        doc = json.loads(snapshot_to_json(snap))
        doc["schema"] = SCHEMA_ID_V1
        assert from_json(json.dumps(doc)) == snap

    def test_v1_document_still_validates(self):
        doc = json.loads(snapshot_to_json(populated_registry().snapshot()))
        doc["schema"] = SCHEMA_ID_V1
        validate_snapshot_json(json.dumps(doc))

    def test_reports_block_requires_v2(self):
        doc = json.loads(
            snapshot_to_json(
                populated_registry().snapshot(),
                reports={"critical_path": _minimal_critical_path_block()},
            )
        )
        doc["schema"] = SCHEMA_ID_V1
        with pytest.raises(SnapshotSchemaError, match="reports"):
            validate_snapshot_json(json.dumps(doc))

    def test_v1_document_has_no_reports(self):
        doc = json.loads(snapshot_to_json(populated_registry().snapshot()))
        doc["schema"] = SCHEMA_ID_V1
        assert "reports" not in validate_snapshot_json(json.dumps(doc))

    def test_v2_document_without_block_has_no_reports(self):
        text = snapshot_to_json(populated_registry().snapshot())
        assert "reports" not in validate_snapshot_json(text)

    def test_reports_round_trip(self):
        reports = {
            "critical_path": _minimal_critical_path_block(),
            "slo": _minimal_slo_block(),
        }
        text = snapshot_to_json(populated_registry().snapshot(), reports=reports)
        assert validate_snapshot_json(text)["reports"] == reports
        # The families parse is unaffected by the extra block.
        assert (
            from_json(text) == populated_registry().snapshot()
        )

    def test_inf_burn_rates_validate(self):
        block = _minimal_slo_block()
        (mon,) = block["monitors"]
        assert mon["fast_burn_rate"] == "inf"
        text = snapshot_to_json(
            populated_registry().snapshot(), reports={"slo": block}
        )
        validate_snapshot_json(text)

    def test_unknown_report_block_rejected(self):
        text = snapshot_to_json(
            populated_registry().snapshot(), reports={"mystery": {}}
        )
        with pytest.raises(SnapshotSchemaError, match="unknown report"):
            validate_snapshot_json(text)

    def test_conservation_violation_rejected(self):
        block = _minimal_critical_path_block()
        block["train"]["attribution"][0]["seconds"] = 0.25  # sums to 0.75 != 1.5
        text = snapshot_to_json(
            populated_registry().snapshot(), reports={"critical_path": block}
        )
        with pytest.raises(SnapshotSchemaError, match="sum to the makespan"):
            validate_snapshot_json(text)

    def test_step_with_start_after_end_rejected(self):
        block = _minimal_critical_path_block()
        block["train"]["steps"][0]["end"] = -1.0
        text = snapshot_to_json(
            populated_registry().snapshot(), reports={"critical_path": block}
        )
        with pytest.raises(SnapshotSchemaError, match="start must not exceed"):
            validate_snapshot_json(text)

    def test_scenario_metrics_json_validates_end_to_end(self, tmp_path):
        """The exact artifact CI validates: a day-in-the-life metrics.json
        with live critical-path and SLO blocks."""
        from repro.obs import run_day_in_the_life
        from repro.obs.schema import main as schema_main

        result = run_day_in_the_life(
            n_iterations=1, n_requests=20, out_dir=tmp_path
        )
        assert schema_main([str(result.paths["metrics.json"])]) == 0
        reports = validate_snapshot_json(result.paths["metrics.json"].read_text())["reports"]
        assert set(reports) == {"critical_path", "slo"}
        assert {m["name"] for m in reports["slo"]["monitors"]} == {
            "serve_p99_latency", "publish_staleness", "train_step_time"
        }


class TestRunReport:
    def test_report_renders_all_kinds(self):
        report = run_report(populated_registry(), title="My run")
        assert "My run" in report
        assert "wire_bytes_total{stage=payload}" in report
        assert "queue_depth" in report
        assert "latency_seconds" in report
        # histogram row shows count and quantiles
        assert "p50" in report and "p99" in report

    def test_report_subsumes_breakdown(self):
        from repro.dist.timeline import EventCategory, Timeline

        timeline = Timeline()
        timeline.record(0, EventCategory.EMB_LOOKUP, 0.0, 1.0)
        report = run_report(
            populated_registry(), timelines={"train": timeline}, title="Run"
        )
        assert "train time breakdown" in report
        assert "Embedding lookup" in report

    def test_report_renders_critical_path_section(self):
        from repro.dist.timeline import EventCategory, Timeline
        from repro.obs.critpath import extract_critical_path

        timeline = Timeline()
        timeline.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        timeline.record(0, EventCategory.ALLTOALL_FWD, 1.0, 0.5)
        result = extract_critical_path(timeline)
        report = run_report(
            populated_registry(),
            critical_paths={"train": result},
            title="Run",
        )
        assert "train critical path" in report
        assert "makespan 1.500000s" in report

    def test_report_renders_slo_section_from_hub_or_states(self):
        from repro.obs.slo import BurnRateMonitor, SloHub, SLOSpec

        hub = SloHub(
            [
                BurnRateMonitor(
                    SLOSpec(
                        name="serve_p99_latency", source="serve_latency",
                        threshold=1.0, objective=1.0,
                        fast_window=0.2, slow_window=1.0,
                        fast_burn=1.0, slow_burn=1.0,
                    )
                )
            ]
        )
        hub.feed("serve_latency", 0.5, 2.0)
        via_hub = run_report(populated_registry(), slo=hub, title="Run")
        assert "SLO burn rates" in via_hub
        assert "serve_p99_latency" in via_hub
        assert "FIRING" in via_hub
        via_states = run_report(
            populated_registry(), slo=hub.states(), title="Run"
        )
        assert "SLO burn rates" in via_states
