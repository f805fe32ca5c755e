"""The day-in-the-life chaos scenario: acceptance invariants + artifacts."""

from __future__ import annotations

import json

import pytest

from repro.faults import run_day_in_the_life_under_faults
from repro.obs.schema import validate_snapshot_json


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("chaos")
    return run_day_in_the_life_under_faults(
        n_iterations=4, n_requests=120, out_dir=out
    )


class TestInvariants:
    def test_resume_is_bit_identical(self, result):
        assert result.params_bit_identical
        assert result.restores >= 1
        assert result.checkpoints_taken >= 1

    def test_training_makespan_never_shrinks_under_faults(self, result):
        assert result.faulty_train_makespan >= result.healthy_train_makespan

    def test_publisher_staleness_within_bound_after_failed_rounds(self, result):
        assert result.failed_publish_rounds >= 1
        assert result.publish_attempts_total > result.publish_rounds
        assert result.staleness_after_last_success <= (
            result.last_success_staleness_bound * (1 + 1e-5)
        )

    def test_served_rows_bounded_or_flagged(self, result):
        assert result.fresh_requests + result.impaired_requests == result.n_requests
        assert result.stale_rows + result.degraded_rows > 0
        assert result.compound_bound > 0.0

    def test_both_fallbacks_fire(self, result):
        """The warm-up traffic gives ``keep_stale`` rows to displace, so the
        crash window is answered from the stale store where it can be and
        as zeros elsewhere (it used to be 0 stale rows: empty caches at the
        one successful publication)."""
        assert result.stale_rows > 0
        assert result.degraded_rows > 0
        assert result.snapshot.counter_value("serve_stale_rows_total") == result.stale_rows
        assert (
            result.snapshot.counter_value("serve_degraded_rows_total")
            == result.degraded_rows
        )

    def test_default_arguments_keep_the_parent_accounting(self):
        """Recorded at ``16243c1`` (0 stale / 327 degraded there): the
        publication invalidates every table, so the measured trace still
        meets cold caches — only the stale/degraded split moved."""
        default = run_day_in_the_life_under_faults()
        assert default.stale_rows > 0
        assert default.stale_rows + default.degraded_rows == 327
        assert (default.impaired_requests, default.fresh_requests) == (109, 91)
        assert default.healthy_train_makespan == 0.0005392657237192049
        assert default.faulty_train_makespan == 0.0007165795443413493
        assert default.staleness_after_last_success == 0.0054786354303359985

    def test_scenario_is_deterministic(self, result):
        twin = run_day_in_the_life_under_faults(n_iterations=4, n_requests=120)
        assert twin.faulty_train_makespan == result.faulty_train_makespan
        assert twin.impaired_requests == result.impaired_requests
        assert twin.staleness_after_last_success == result.staleness_after_last_success


class TestObservability:
    def test_fault_and_retry_counters_land_in_the_snapshot(self, result):
        names = set(result.snapshot.names())
        assert "faults_injected_total" in names
        assert "publish_retries_total" in names
        assert "publish_corrupt_payloads_total" in names
        assert "publish_failed_rounds_total" in names
        assert "checkpoints_taken_total" in names
        assert "checkpoint_restores_total" in names
        assert "serve_degraded_rows_total" in names
        assert "serve_stale_rows_total" in names

    def test_fault_configured_serving_counts_cache_hits_and_misses(self, result):
        """The chaos serve run goes through the one ``gather``: every lookup
        of every request served under OBS is a counted hit or miss (the
        forked fault path emitted neither family)."""
        snapshot = result.snapshot

        def total(name):
            return sum(snapshot.family(name).as_dict().values())

        lookups = total("serve_cache_hits_total") + total("serve_cache_misses_total")
        n_tables = 6
        assert lookups == n_tables * snapshot.counter_value("serve_requests_total")
        assert snapshot.counter_value("serve_requests_total") >= result.n_requests

    def test_trace_carries_fault_annotation_spans(self, result):
        fault_spans = [
            e
            for e in result.trace["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "fault"
        ]
        assert fault_spans, "FAULT windows must be visible in the chrome trace"
        kinds = {e["args"]["kind"] for e in fault_spans if "args" in e}
        assert "shard_crash" in kinds

    def test_artifacts_written_and_valid(self, result):
        assert set(result.paths) == {
            "metrics.json",
            "metrics.prom",
            "chaos_trace.json",
            "run_report.txt",
        }
        for path in result.paths.values():
            assert path.exists() and path.stat().st_size > 0
        validate_snapshot_json(result.paths["metrics.json"].read_text())
        trace = json.loads(result.paths["chaos_trace.json"].read_text())
        assert trace["traceEvents"]
        assert "fault" in result.paths["run_report.txt"].read_text().lower()


class TestValidation:
    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_day_in_the_life_under_faults(n_iterations=1)
        with pytest.raises(ValueError):
            run_day_in_the_life_under_faults(n_requests=0)
        with pytest.raises(ValueError):
            run_day_in_the_life_under_faults(checkpoint_every=0)