"""FaultPlan queries and FaultInjector behavior against the simulator."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.compression import CorruptPayloadError, frame_with_checksum, verify_checksum_frame
from repro.dist import ClusterSimulator
from repro.dist.timeline import COMM_STREAM, COMPUTE_STREAM, OBS_STREAM, EventCategory, Timeline
from repro.faults import (
    CorruptionFault,
    FaultInjector,
    FaultPlan,
    LinkFault,
    RankFailureFault,
    ShardCrashFault,
    StragglerFault,
)


def matches(fault: LinkFault, src: int, dst: int) -> bool:
    """Whether ``fault``, turned into an outage, takes ``src -> dst`` down."""
    return not FaultPlan(links=(replace(fault, outage=True),)).link_state(src, dst, fault.start).up


class TestLinkFault:
    def test_window_and_matching(self):
        fault = LinkFault(start=1.0, duration=0.5, src=0, dst=1)
        assert fault.active(1.0) and fault.active(1.49)
        assert not fault.active(0.99) and not fault.active(1.5)
        assert matches(fault, 0, 1)
        assert matches(fault, 1, 0)  # a link carries both directions
        assert not matches(fault, 0, 2)

    def test_half_wildcard_and_wildcard(self):
        from_zero = LinkFault(start=0, duration=1, src=0)
        assert matches(from_zero, 0, 5) and matches(from_zero, 5, 0)
        assert not matches(from_zero, 3, 5)
        fabric_wide = LinkFault(start=0, duration=1, outage=True)
        assert matches(fabric_wide, 3, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFault(start=-1, duration=1)
        with pytest.raises(ValueError):
            LinkFault(start=0, duration=0)
        with pytest.raises(ValueError):
            LinkFault(start=0, duration=1, bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            StragglerFault(rank=0, start=0, duration=1, slowdown=0.5)


class TestPlanQueries:
    def test_link_state_worst_case_over_matches(self):
        plan = FaultPlan(
            links=(
                LinkFault(start=0, duration=1, src=0, dst=1, bandwidth_factor=0.5),
                LinkFault(start=0, duration=1, src=0, dst=1, extra_latency=1e-4),
            )
        )
        state = plan.link_state(0, 1, 0.5)
        assert state.up
        assert state.bandwidth_factor == 0.5
        assert state.extra_latency == 1e-4
        assert plan.link_state(0, 1, 2.0).bandwidth_factor == 1.0

    def test_outage_takes_link_down(self):
        plan = FaultPlan(links=(LinkFault(start=0, duration=1, src=0, dst=1, outage=True),))
        assert not plan.link_state(0, 1, 0.5).up
        assert plan.link_state(0, 2, 0.5).up

    def test_wire_slowdown_is_worst_active_degradation(self):
        plan = FaultPlan(
            links=(
                LinkFault(start=0, duration=1, bandwidth_factor=0.25),
                LinkFault(start=0, duration=1, bandwidth_factor=0.5),
            )
        )
        assert plan.wire_slowdown(0.5) == 4.0
        assert plan.wire_slowdown(1.5) == 1.0

    def test_wire_available_at_skips_chained_outages(self):
        plan = FaultPlan(
            links=(
                LinkFault(start=0.0, duration=1.0, outage=True),
                LinkFault(start=0.9, duration=1.0, outage=True),
            )
        )
        assert plan.wire_available_at(0.5) == pytest.approx(1.9)
        assert plan.wire_available_at(2.0) == 2.0

    def test_compute_slowdown_and_shard_down(self):
        plan = FaultPlan(
            stragglers=(StragglerFault(rank=1, start=0, duration=1, slowdown=3.0),),
            shard_crashes=(ShardCrashFault(shard_rank=0, start=2, duration=1),),
        )
        assert plan.compute_slowdown(1, 0.5) == 3.0
        assert plan.compute_slowdown(0, 0.5) == 1.0
        assert plan.shard_down(0, 2.5) and not plan.shard_down(0, 3.5)
        assert not plan.shard_down(1, 2.5)

    def test_corrupts_and_rank_failure(self):
        plan = FaultPlan(
            corruptions=(CorruptionFault(round_index=2, table_index=1, attempt=0),),
            rank_failures=(RankFailureFault(rank=1, at_iteration=5),),
        )
        assert plan.corrupts(2, 1, 0)
        assert not plan.corrupts(2, 1, 1)  # retry attempt is clean
        assert plan.rank_failure_at(5).rank == 1
        assert plan.rank_failure_at(4) is None


class TestInjectorAdjustments:
    def test_straggler_stretches_compute_only(self):
        plan = FaultPlan(stragglers=(StragglerFault(rank=1, start=0, duration=10, slowdown=2.0),))
        injector = FaultInjector(plan)
        start, seconds = injector.adjust_stream_event(1, COMPUTE_STREAM, 1.0, 0.5)
        assert (start, seconds) == (1.0, 1.0)
        assert injector.adjust_stream_event(0, COMPUTE_STREAM, 1.0, 0.5) == (1.0, 0.5)
        assert injector.adjust_stream_event(1, COMM_STREAM, 1.0, 0.5) == (1.0, 0.5)
        assert injector.injected["straggler"] == 1

    def test_outage_delays_comm_then_degradation_stretches(self):
        plan = FaultPlan(
            links=(
                LinkFault(start=0.0, duration=1.0, outage=True),
                LinkFault(start=1.0, duration=1.0, bandwidth_factor=0.5),
            )
        )
        injector = FaultInjector(plan)
        start, seconds = injector.adjust_stream_event(0, COMM_STREAM, 0.5, 0.1)
        assert start == pytest.approx(1.0)  # waited out the outage
        assert seconds == pytest.approx(0.2)  # then the degraded link bites
        start, seconds = injector.adjust_collective(0.5, 0.1)
        assert (start, seconds) == (pytest.approx(1.0), pytest.approx(0.2))

    def test_injector_delays_simulator_makespan(self):
        plan = FaultPlan(stragglers=(StragglerFault(rank=0, start=0, duration=10, slowdown=4.0),))
        healthy = ClusterSimulator(2)
        healthy.compute(0, 0.01, EventCategory.BOTTOM_MLP_FWD)
        faulty = ClusterSimulator(2)
        faulty.fault_injector = FaultInjector(plan)
        faulty.compute(0, 0.01, EventCategory.BOTTOM_MLP_FWD)
        assert faulty.makespan() == pytest.approx(4 * healthy.makespan())

    def test_empty_plan_is_a_no_op(self):
        injector = FaultInjector(FaultPlan())
        assert injector.adjust_stream_event(0, COMM_STREAM, 1.0, 0.5) == (1.0, 0.5)
        assert injector.adjust_collective(1.0, 0.5) == (1.0, 0.5)
        assert injector.injected == {}


class TestCorruption:
    def test_corrupt_payload_is_deterministic_and_detected(self):
        injector = FaultInjector(FaultPlan(), seed=4)
        framed = frame_with_checksum(b"embedding delta payload bytes")
        damaged = injector.corrupt_payload(framed, "pub", 0, 1)
        assert damaged != framed
        assert damaged == FaultInjector(FaultPlan(), seed=4).corrupt_payload(framed, "pub", 0, 1)
        assert damaged[:5] == framed[:5]  # envelope prefix untouched
        with pytest.raises(CorruptPayloadError):
            verify_checksum_frame(damaged)
        assert verify_checksum_frame(framed) == b"embedding delta payload bytes"

    def test_empty_payload_rejected_short_payload_still_damaged(self):
        injector = FaultInjector(FaultPlan())
        with pytest.raises(ValueError):
            injector.corrupt_payload(b"")
        # shorter than the envelope prefix: flips land past a clamped offset
        assert injector.corrupt_payload(b"abc") != b"abc"


class TestAnnotate:
    def test_fault_spans_land_on_obs_lane_without_time_cost(self):
        plan = FaultPlan(
            links=(LinkFault(start=0.0, duration=0.5, outage=True),),
            stragglers=(StragglerFault(rank=1, start=0.1, duration=0.2, slowdown=2.0),),
            shard_crashes=(ShardCrashFault(shard_rank=0, start=0.3, duration=0.1),),
        )
        timeline = Timeline()
        timeline.record(0, EventCategory.BOTTOM_MLP_FWD, 0.0, 0.01)
        before = timeline.total_by_category()
        n = FaultInjector(plan).annotate(timeline)
        assert n == 3
        spans = [e for e in timeline.events if e.category == EventCategory.FAULT]
        assert len(spans) == 3
        assert all(e.stream == OBS_STREAM for e in spans)
        kinds = {e.args["kind"] for e in spans}
        assert kinds == {"link_outage", "straggler", "shard_crash"}
        # OBS-lane annotations are excluded from time accounting
        assert timeline.total_by_category() == before
