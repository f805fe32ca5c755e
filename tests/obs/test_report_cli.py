"""The offline report CLI: re-render a run from its archived artifacts.

``python -m repro.obs.report metrics.json [--trace obs_trace.json]``
must reproduce the run report — including fresh critical-path
extraction from the archived unified trace — without re-running the
scenario, and fall back to the archived ``reports`` blocks when the
trace is absent.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import run_day_in_the_life
from repro.obs.report import main
from repro.obs.schema import SCHEMA_ID as SCHEMA
from repro.obs.trace import timelines_from_chrome_trace

#: a histogram with one bucket count for one bound (it needs two: the
#: bound's bucket and the overflow)
ONE_COUNT_ONE_BOUND = {
    "bounds": [1.0],
    "counts": [1],
    "count": 1,
    "total": 0.5,
    "min": 0.5,
    "max": 0.5,
    "exact": None,
    "exact_limit": 0,
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs_artifacts")
    result = run_day_in_the_life(n_iterations=2, n_requests=60, out_dir=out)
    return result, result.paths


class TestWithTrace:
    def test_reproduces_critical_path_tables(self, artifacts, capsys):
        result, paths = artifacts
        code = main(
            [
                str(paths["metrics.json"]),
                "--trace", str(paths["obs_trace.json"]),
                "--title", "Replayed",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Replayed" in out
        for tier in ("train", "publish", "serve"):
            assert f"{tier} critical path" in out
            assert f"{tier} time breakdown" in out
        # With a trace, the summary is fresh, not archived.
        assert "Archived critical paths" not in out
        assert "Archived SLOs: 3 monitors" in out

    def test_fresh_extraction_matches_archived_makespans(self, artifacts):
        """The conservation anchor of the offline path: re-extracting
        from the archived trace lands on the archived makespans (to the
        microsecond rounding of the chrome-trace format)."""
        from repro.obs.critpath import extract_critical_path

        result, paths = artifacts
        trace = json.loads(paths["obs_trace.json"].read_text())
        timelines = timelines_from_chrome_trace(trace)
        archived = json.loads(paths["critical_path.json"].read_text())
        assert set(archived) == {
            name for name, tl in timelines.items() if len(tl.events)
        }
        for name, block in archived.items():
            fresh = extract_critical_path(timelines[name])
            assert fresh.makespan == pytest.approx(
                block["makespan"], rel=1e-6, abs=1e-9
            )

    def test_highlight_lane_is_not_reimported(self, artifacts):
        """The critpath highlight lane is derived, not recorded work;
        splitting the trace back must drop it or every step would be
        double-counted."""
        result, paths = artifacts
        trace = json.loads(paths["obs_trace.json"].read_text())
        assert any(
            e.get("cat") == "critpath" for e in trace["traceEvents"]
        )
        timelines = timelines_from_chrome_trace(trace)
        for name, timeline in timelines.items():
            pid = trace["metadata"]["tiers"][name]["pid"]
            recorded = [
                e
                for e in trace["traceEvents"]
                if e.get("ph") == "X"
                and e.get("pid") == pid
                and e.get("cat") != "critpath"
            ]
            assert len(timeline.events) == len(recorded)


class TestWithoutTrace:
    def test_falls_back_to_archived_summary(self, artifacts, capsys):
        result, paths = artifacts
        code = main([str(paths["metrics.json"])])
        out = capsys.readouterr().out
        assert code == 0
        assert "Archived critical paths:" in out
        assert "dominated by" in out
        assert "Archived SLOs: 3 monitors" in out
        assert "none firing" in out

    def test_old_snapshot_without_reports_still_renders(self, tmp_path, capsys):
        from repro.obs.exporters import snapshot_to_json
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("x_total").inc(1)
        path = tmp_path / "metrics.json"
        path.write_text(snapshot_to_json(reg.snapshot()))
        code = main([str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "x_total" in out
        assert "Archived" not in out


class TestErrors:
    def test_missing_metrics_file(self, tmp_path, capsys):
        code = main([str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_metrics_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code = main([str(path)])
        assert code == 2
        assert "not a snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, where",
        [
            ({"schema": SCHEMA, "families": [1]}, "$.families[0]:"),
            ([], "$:"),
            (
                {"schema": SCHEMA, "families": [], "reports": {"slo": {"monitors": [1]}}},
                "$.reports.slo.monitors[0]:",
            ),
            (
                {
                    "schema": SCHEMA,
                    "families": [
                        {
                            "name": "h",
                            "kind": "histogram",
                            "help": "",
                            "series": [{"labels": {}, "histogram": ONE_COUNT_ONE_BOUND}],
                        }
                    ],
                },
                "$.families[0].series[0].histogram.counts:",
            ),
        ],
        ids=["family-not-object", "top-level-list", "slo-monitor-not-object", "short-counts"],
    )
    def test_hostile_document_exits_2_naming_the_node(self, tmp_path, capsys, document, where):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(document))
        code = main([str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert where in captured.err
        assert captured.out == ""  # rejected before any of the report prints

    def test_trace_without_tier_metadata(self, artifacts, tmp_path, capsys):
        result, paths = artifacts
        bare = tmp_path / "bare_trace.json"
        bare.write_text(json.dumps({"traceEvents": []}))
        code = main([str(paths["metrics.json"]), "--trace", str(bare)])
        assert code == 2
        assert "metadata.tiers" in capsys.readouterr().err

    def test_missing_trace_file(self, artifacts, tmp_path, capsys):
        result, paths = artifacts
        code = main(
            [str(paths["metrics.json"]), "--trace", str(tmp_path / "no.json")]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err
