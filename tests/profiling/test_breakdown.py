"""Tests for breakdown reports and run comparison."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.timeline import COMM_STREAM, EventCategory, Timeline
from repro.profiling import (
    breakdown_report,
    breakdown_rows,
    compare_runs,
    overlap_efficiency,
)


class TestBreakdownRows:
    def test_fractions_sum_to_one(self):
        seconds = {
            EventCategory.ALLTOALL_FWD: 6.0,
            EventCategory.TOP_MLP_FWD: 3.0,
            EventCategory.ALLREDUCE: 1.0,
        }
        rows = breakdown_rows(seconds)
        assert sum(f for _, _, f in rows) == pytest.approx(1.0)

    def test_zero_categories_skipped(self):
        rows = breakdown_rows({EventCategory.ALLTOALL_FWD: 1.0, EventCategory.COMPRESS: 0.0})
        labels = [label for label, _, _ in rows]
        assert "Compression" not in labels

    def test_unknown_category_included(self):
        rows = breakdown_rows({"custom_stage": 2.0})
        assert rows[0][0] == "custom_stage"

    def test_empty(self):
        assert breakdown_rows({}) == []


class TestBreakdownReport:
    def test_report_from_timeline(self):
        tl = Timeline()
        tl.record(0, EventCategory.ALLTOALL_FWD, 0.0, 0.6)
        tl.record(0, EventCategory.TOP_MLP_FWD, 0.6, 0.4)
        out = breakdown_report(tl, title="Run")
        assert "Run" in out
        assert "All-to-all (fwd)" in out
        assert "60.0%" in out
        assert "communication" in out

    def test_report_from_mapping(self):
        out = breakdown_report({EventCategory.ALLREDUCE: 1.0})
        assert "All-reduce (dense)" in out
        assert "100.0%" in out


class TestCompareRuns:
    def test_end_to_end_speedup(self):
        baseline = {EventCategory.ALLTOALL_FWD: 6.0, EventCategory.TOP_MLP_FWD: 4.0}
        optimized = {
            EventCategory.ALLTOALL_FWD: 1.0,
            EventCategory.COMPRESS: 0.5,
            EventCategory.DECOMPRESS: 0.5,
            EventCategory.METADATA: 0.2,
            EventCategory.TOP_MLP_FWD: 4.0,
        }
        summary = compare_runs(baseline, optimized)
        assert summary.end_to_end == pytest.approx(10.0 / 6.2)
        assert summary.communication == pytest.approx(6.0 / 2.2)

    def test_no_speedup_when_identical(self):
        run = {EventCategory.ALLTOALL_FWD: 2.0}
        summary = compare_runs(run, run)
        assert summary.end_to_end == 1.0


class TestOverlapEfficiency:
    """``overlap_efficiency`` is the one definition of wire hidden behind
    compute: per rank, charged minus busy seconds; summed over ranks and
    divided by the summed communication seconds, clamped to [0, 1]."""

    def test_sequential_run_has_zero_overlap(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(0, EventCategory.ALLTOALL_FWD, 1.0, 2.0, stream=COMM_STREAM)
        assert overlap_efficiency(tl) == 0.0

    def test_double_booked_time_counts_as_overlap(self):
        tl = Timeline()
        # 1 s of compression fully inside a 2 s wire window.
        tl.record(0, EventCategory.COMPRESS, 0.5, 1.0)
        tl.record(0, EventCategory.ALLTOALL_FWD, 0.0, 2.0, stream=COMM_STREAM)
        assert overlap_efficiency(tl) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 64), st.integers(1, 64), st.integers(0, 64), st.integers(1, 64)
    )
    def test_two_stream_ledger_is_intersection_over_wire(
        self, compute_at, compute_len, wire_at, wire_len
    ):
        # Eighths keep every sum and difference exact, so the law is ==.
        a, c, b, w = (v / 8 for v in (compute_at, compute_len, wire_at, wire_len))
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, a, c)
        tl.record(0, EventCategory.ALLTOALL_FWD, b, w, stream=COMM_STREAM)
        hidden = max(0.0, min(a + c, b + w) - max(a, b))
        assert overlap_efficiency(tl) == hidden / w

    def test_no_comm_means_zero_efficiency(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        assert overlap_efficiency(tl) == 0.0

    def test_concurrency_across_ranks_is_not_overlap(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(1, EventCategory.ALLTOALL_FWD, 0.0, 1.0, stream=COMM_STREAM)
        assert overlap_efficiency(tl) == 0.0

    def test_overlap_on_one_rank_does_not_leak_into_another(self):
        tl = Timeline()
        # Rank 0 hides 1 s of its 2 s wire; rank 1 runs its 2 s sequentially.
        tl.record(0, EventCategory.COMPRESS, 0.5, 1.0)
        tl.record(0, EventCategory.ALLTOALL_FWD, 0.0, 2.0, stream=COMM_STREAM)
        tl.record(1, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(1, EventCategory.ALLTOALL_FWD, 1.0, 2.0, stream=COMM_STREAM)
        assert overlap_efficiency(tl) == 1.0 / 4.0

    def test_efficiency_is_clamped_to_one(self):
        tl = Timeline()
        # 3 s double-booked (two kernels and the wire) against 1 s of wire.
        tl.record(0, EventCategory.COMPRESS, 0.0, 2.0)
        tl.record(0, EventCategory.DECOMPRESS, 0.0, 2.0)
        tl.record(0, EventCategory.ALLTOALL_FWD, 0.0, 1.0, stream=COMM_STREAM)
        assert overlap_efficiency(tl) == 1.0

    def test_simulated_pipelined_exchange_hides_wire(self):
        from repro.dist import ClusterSimulator, NetworkModel

        sim = ClusterSimulator(2, network=NetworkModel(bandwidth=1e9, latency=1e-6))
        sim.comm.compressed_all_to_all(
            [[b"x" * 50_000] * 2] * 2,
            overlap=True,
            compress_seconds=[1e-3, 1e-3],
            decompress_seconds=[5e-4, 5e-4],
            chunks_per_rank=[8, 8],
        )
        assert 0.0 < overlap_efficiency(sim.timeline) <= 1.0
