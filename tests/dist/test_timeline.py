"""Tests for the event timeline and category ledger."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import EventCategory, Timeline
from repro.profiling.breakdown import CATEGORY_LABELS


class TestEventCategory:
    def test_all_fifteen_stages_present(self):
        # 15 pipeline stages + 3 observability annotation categories
        # (train_step / publish / serve_request spans) + 4 fault-tolerance
        # categories (retry / checkpoint / restore / fault spans).
        assert len(list(EventCategory)) == 22

    def test_labels_cover_every_category(self):
        # Every member — including the obs/serve annotation categories —
        # must have a label, or new categories render unlabeled in reports.
        for member in EventCategory:
            assert member in CATEGORY_LABELS, f"no CATEGORY_LABELS entry for {member!r}"
        assert set(CATEGORY_LABELS) == set(EventCategory)

    def test_members_behave_as_strings(self):
        assert EventCategory.COMPRESS == "compress"
        assert str(EventCategory.ALLTOALL_FWD) == "alltoall_fwd"
        # Plain-string dict keys resolve through enum members and back.
        d = {"compress": 1.0}
        assert d[EventCategory.COMPRESS] == 1.0

    def test_communication_subset(self):
        comm = EventCategory.COMMUNICATION
        assert EventCategory.ALLTOALL_FWD in comm
        assert EventCategory.ALLTOALL_BWD in comm
        assert EventCategory.METADATA in comm
        assert EventCategory.ALLREDUCE in comm
        assert EventCategory.COMPRESS not in comm
        assert EventCategory.DECOMPRESS not in comm


class TestTimeline:
    def test_record_and_query(self):
        tl = Timeline()
        e = tl.record(0, EventCategory.COMPRESS, 1.0, 0.5)
        assert e.end == pytest.approx(1.5)
        assert len(tl) == 1
        assert tl.events_for_rank(0) == [e]
        assert tl.events_for_rank(1) == []
        assert tl.events_in_category(EventCategory.COMPRESS) == [e]

    def test_per_rank_aggregation(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(0, EventCategory.COMPRESS, 1.0, 2.0)
        tl.record(0, EventCategory.ALLTOALL_FWD, 3.0, 4.0)
        tl.record(1, EventCategory.COMPRESS, 0.0, 8.0)
        by_rank0 = tl.total_by_category(rank=0)
        assert by_rank0[EventCategory.COMPRESS] == pytest.approx(3.0)
        assert by_rank0[EventCategory.ALLTOALL_FWD] == pytest.approx(4.0)
        assert EventCategory.COMPRESS in tl.total_by_category(rank=1)
        assert tl.total_by_category(rank=1)[EventCategory.COMPRESS] == pytest.approx(8.0)

    def test_all_rank_aggregation_sums_everyone(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(1, EventCategory.COMPRESS, 0.0, 2.0)
        assert tl.total_by_category()[EventCategory.COMPRESS] == pytest.approx(3.0)

    def test_span(self):
        tl = Timeline()
        assert tl.span() == 0.0
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(1, EventCategory.COMPRESS, 5.0, 2.5)
        assert tl.span() == pytest.approx(7.5)
        assert tl.span(rank=0) == pytest.approx(1.0)

    def test_ranks(self):
        tl = Timeline()
        tl.record(3, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(1, EventCategory.COMPRESS, 0.0, 1.0)
        assert tl.ranks() == [1, 3]

    def test_validation(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.record(-1, EventCategory.COMPRESS, 0.0, 1.0)
        with pytest.raises(ValueError):
            tl.record(0, EventCategory.COMPRESS, -1.0, 1.0)
        with pytest.raises(ValueError):
            tl.record(0, EventCategory.COMPRESS, 0.0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, bad):
        """Regression: ``nan < 0`` is False, so ``record`` used to accept a
        NaN (or infinite) start/duration and ``span()`` / the critical
        path were silently poisoned for every direct caller."""
        tl = Timeline()
        with pytest.raises(ValueError, match="duration"):
            tl.record(0, EventCategory.COMPRESS, 0.0, bad)
        with pytest.raises(ValueError, match="start"):
            tl.record(0, EventCategory.COMPRESS, bad, 1.0)
        with pytest.raises(ValueError, match="duration"):
            tl.record_batch([0, 1], EventCategory.COMPRESS, [0.0, 0.0], [1.0, bad])
        with pytest.raises(ValueError, match="start"):
            tl.record_batch([0, 1], EventCategory.COMPRESS, [bad, 0.0], [1.0, 1.0])
        assert len(tl) == 0 and tl.span() == 0.0

    def test_non_finite_chrome_trace_rejected(self):
        trace = Timeline().to_chrome_trace()
        trace["traceEvents"].append(
            {"name": "compress", "ph": "X", "tid": 0, "ts": 0.0, "dur": math.nan}
        )
        with pytest.raises(ValueError, match="duration"):
            Timeline.from_chrome_trace(trace)


# One candidate event: (rank, start, duration, args, release edges).  The
# strategies deliberately wander into every input ``record`` rejects.
_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=1e3),
    st.sampled_from([-1.0, -0.0, math.nan, math.inf]),
)
_EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=5),
        _TIMES,
        _TIMES,
        st.one_of(st.none(), st.just({}), st.dictionaries(st.sampled_from("abc"), st.integers())),
        st.one_of(st.none(), st.lists(st.integers(min_value=-1, max_value=12), max_size=4)),
    ),
    max_size=8,
)


class TestRecordBatch:
    @settings(max_examples=300, deadline=None)
    @given(prefix=st.integers(min_value=0, max_value=3), events=_EVENTS)
    def test_equals_the_sequence_of_record_calls(self, prefix, events):
        """Law: ``record_batch`` leaves the ledger a loop of ``record``
        calls leaves, and raises ``ValueError`` on exactly the inputs that
        loop raises on (negative/NaN/infinite start or duration, negative
        rank, a release edge naming itself or a later event)."""
        one_by_one, batched = Timeline(), Timeline()
        for tl in (one_by_one, batched):
            for rank in range(prefix):
                tl.record(rank, EventCategory.EMB_LOOKUP, 0.0, 1.0)
        failed = False
        try:
            for rank, start, duration, args, edges in events:
                one_by_one.record(
                    rank, EventCategory.COMPRESS, start, duration, "comm", args, edges
                )
        except ValueError:
            failed = True
        columns = list(zip(*events)) if events else [[], [], [], [], []]
        if failed:
            with pytest.raises(ValueError):
                batched.record_batch(
                    columns[0], EventCategory.COMPRESS, columns[1], columns[2], "comm",
                    columns[3], columns[4],
                )
            assert len(batched) == prefix  # all or nothing
        else:
            returned = batched.record_batch(
                columns[0], EventCategory.COMPRESS, columns[1], columns[2], "comm",
                columns[3], columns[4],
            )
            assert batched.events == one_by_one.events
            assert returned == batched.events[prefix:]
            for event in returned:
                assert type(event.rank) is int and type(event.start) is float
                assert type(event.duration) is float
                assert event.release_edges is None or all(
                    type(i) is int for i in event.release_edges
                )

    def test_shared_edges_and_args(self):
        """One edge object for many entries is validated against its first
        use and stored once; one args mapping is copied per event."""
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(1, EventCategory.COMPRESS, 0.0, 2.0)
        edges = np.array([1, 0, 1])
        args = {"exchange": 7}
        events = tl.record_batch(
            np.arange(3), EventCategory.METADATA, np.full(3, 2.0), np.full(3, 0.5),
            "comm", args, [edges] * 3,
        )
        assert [e.release_edges for e in events] == [(1, 0)] * 3
        assert events[0].release_edges is events[2].release_edges
        assert all(e.args == args and e.args is not args for e in events)
        assert events[0].args is not events[1].args

    def test_edges_may_name_earlier_entries_of_the_batch(self):
        tl = Timeline()
        tl.record_batch([0, 0], EventCategory.COMPRESS, [0.0, 1.0], [1.0, 1.0],
                        release_edges=[None, [0]])
        assert tl.events[1].release_edges == (0,)
        with pytest.raises(ValueError, match="release edge 3"):
            tl.record_batch([0, 0], EventCategory.COMPRESS, [2.0, 3.0], [1.0, 1.0],
                            release_edges=[[3], None])  # entry 0 would be index 2
        assert len(tl) == 2

    def test_length_mismatch_rejected(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.record_batch([0, 1], EventCategory.COMPRESS, [0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            tl.record_batch([0, 1], EventCategory.COMPRESS, [0.0, 0.0], [1.0, 1.0],
                            args=[None])
        with pytest.raises(ValueError):
            tl.record_batch([0, 1], EventCategory.COMPRESS, [0.0, 0.0], [1.0, 1.0],
                            release_edges=[None])
        assert len(tl) == 0


class TestChromeTrace:
    def _ledger(self) -> Timeline:
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 0.5)
        tl.record(0, EventCategory.ALLTOALL_FWD, 0.5, 1.25)
        tl.record(2, EventCategory.DECOMPRESS, 1.75, 0.25)
        return tl

    def test_top_level_schema(self):
        trace = self._ledger().to_chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"
        assert isinstance(trace["traceEvents"], list)

    def test_duration_events_schema(self):
        trace = self._ledger().to_chrome_trace()
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3
        for e in xs:
            assert set(e) == {"name", "cat", "ph", "pid", "tid", "ts", "dur", "rank", "stream"}
            assert isinstance(e["name"], str)
            assert e["pid"] == 0
            assert isinstance(e["tid"], int)
            assert isinstance(e["ts"], float) and e["ts"] >= 0.0
            assert isinstance(e["dur"], float) and e["dur"] >= 0.0
            assert isinstance(e["rank"], int)
            assert isinstance(e["stream"], str)

    def test_microsecond_conversion_and_lane_mapping(self):
        trace = self._ledger().to_chrome_trace()
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        alltoall = next(e for e in xs if e["name"] == "alltoall_fwd")
        assert alltoall["ts"] == pytest.approx(0.5e6)
        assert alltoall["dur"] == pytest.approx(1.25e6)
        assert alltoall["tid"] == 0
        decompress = next(e for e in xs if e["name"] == "decompress")
        assert decompress["tid"] == 2

    def test_metadata_events_name_process_and_ranks(self):
        trace = self._ledger().to_chrome_trace(process_name="my-sim")
        metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e for e in metas}
        assert names["process_name"]["args"]["name"] == "my-sim"
        thread_metas = [e for e in metas if e["name"] == "thread_name"]
        assert {e["tid"] for e in thread_metas} == {0, 2}

    def test_event_names_are_plain_strings(self):
        """Chrome chokes on non-string names; enum members must be rendered."""
        trace = self._ledger().to_chrome_trace()
        for e in trace["traceEvents"]:
            assert type(e["name"]) is str

    def test_json_serializable_roundtrip(self, tmp_path):
        import json

        tl = self._ledger()
        path = tl.dump_chrome_trace(tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert loaded == tl.to_chrome_trace()

    def test_empty_timeline_exports_cleanly(self):
        trace = Timeline().to_chrome_trace()
        assert [e["ph"] for e in trace["traceEvents"]] == ["M"]


class TestStreamLanes:
    def _overlapped_ledger(self) -> Timeline:
        from repro.dist import COMM_STREAM, COMPUTE_STREAM

        tl = Timeline()
        # Rank 0 compresses while its comm stream is on the wire; rank 1
        # only computes.
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0, stream=COMPUTE_STREAM)
        tl.record(0, EventCategory.ALLTOALL_FWD, 0.25, 1.0, stream=COMM_STREAM)
        tl.record(1, EventCategory.COMPRESS, 0.0, 0.5, stream=COMPUTE_STREAM)
        return tl

    def test_event_stream_defaults_to_compute(self):
        tl = Timeline()
        event = tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        assert event.stream == "compute"
        assert tl.streams() == ["compute"]

    def test_streams_listed_compute_first(self):
        tl = self._overlapped_ledger()
        assert tl.streams() == ["compute", "comm"]

    def test_overlapped_streams_get_distinct_tid_lanes(self):
        """The satellite fix: concurrent per-rank streams must not share a
        tid, or the trace renders them stacked in one lane."""
        trace = self._overlapped_ledger().to_chrome_trace()
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        rank0_tids = {e["tid"] for e in xs if e["name"] == "compress" and e["ts"] == 0.0}
        wire = next(e for e in xs if e["name"] == "alltoall_fwd")
        compress0 = next(e for e in xs if e["name"] == "compress" and e["dur"] == 1.0e6)
        assert wire["tid"] != compress0["tid"]
        # All tids are distinct per (rank, stream) and deterministic.
        assert len({e["tid"] for e in xs}) == 3

    def test_lane_metadata_names_rank_and_stream(self):
        trace = self._overlapped_ledger().to_chrome_trace()
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "rank 0 [compute]" in thread_names.values()
        assert "rank 0 [comm]" in thread_names.values()
        # One lane per (rank, stream) actually present.
        assert len(thread_names) == 3

    def test_single_stream_keeps_legacy_rank_tids(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(3, EventCategory.COMPRESS, 0.0, 1.0)
        trace = tl.to_chrome_trace()
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in xs} == {0, 3}

    def test_simulator_overlap_run_round_trips_to_json(self, tmp_path):
        import json

        from repro.dist import ClusterSimulator

        sim = ClusterSimulator(2)
        sim.comm.compressed_all_to_all(
            [[b"x" * 1000] * 2] * 2,
            overlap=True,
            compress_seconds=[1e-4, 2e-4],
            decompress_seconds=[1e-4, 1e-4],
            chunks_per_rank=[4, 4],
        )
        path = sim.timeline.dump_chrome_trace(tmp_path / "overlap.json")
        loaded = json.loads(path.read_text())
        assert loaded == sim.timeline.to_chrome_trace()
        xs = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        assert len({e["tid"] for e in xs}) == 4  # 2 ranks x 2 streams


class TestChunkTraceSchema:
    """Chunk events of the pipelined exchange in the chrome-trace export:
    distinct args per chunk, correct (rank, stream) lanes, JSON round-trip."""

    def _chunked_run(self):
        from repro.dist import ClusterSimulator

        sim = ClusterSimulator(2)
        sim.comm.compressed_all_to_all(
            [[b"x" * 1000] * 2] * 2,
            overlap=True,
            compress_seconds=[2e-4, 1e-4],
            decompress_seconds=[1e-4, 1e-4],
            chunks_per_rank=[3, 3],
        )
        return sim

    def test_event_args_recorded_per_chunk(self):
        sim = self._chunked_run()
        wire = sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)
        for rank in (0, 1):
            rank_args = [e.args for e in wire if e.rank == rank]
            assert len(rank_args) == 3
            # Distinct args per chunk event, chunk count and exchange id set.
            assert len({tuple(sorted(a.items())) for a in rank_args}) == 3
            assert {a["chunk"] for a in rank_args} == {0, 1, 2}
            assert all(a["chunks"] == 3 for a in rank_args)
            assert len({a["exchange"] for a in rank_args}) == 1

    def test_exchange_ids_distinguish_back_to_back_exchanges(self):
        sim = self._chunked_run()
        sim.comm.compressed_all_to_all(
            [[b"y" * 500] * 2] * 2,
            overlap=True,
            compress_seconds=[1e-4, 1e-4],
            chunks_per_rank=[2, 2],
        )
        wire = sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)
        assert len({e.args["exchange"] for e in wire}) == 2

    def test_chunk_events_export_args_on_correct_lanes(self):
        sim = self._chunked_run()
        trace = sim.timeline.to_chrome_trace()
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        wire = [e for e in xs if e["name"] == "alltoall_fwd"]
        compress = [e for e in xs if e["name"] == "compress"]
        assert len(wire) == 6 and len(compress) == 6
        for e in wire:
            assert e["args"]["chunk"] in (0, 1, 2)
            assert thread_names[e["tid"]].endswith("[comm]")
        for e in compress:
            assert thread_names[e["tid"]].endswith("[compute]")
        # Wire chunks of one rank all share that rank's comm lane.
        rank0_wire_tids = {
            e["tid"] for e in wire if thread_names[e["tid"]].startswith("rank 0")
        }
        assert len(rank0_wire_tids) == 1

    def test_args_round_trip_through_dump(self, tmp_path):
        import json

        sim = self._chunked_run()
        path = sim.timeline.dump_chrome_trace(tmp_path / "chunks.json")
        loaded = json.loads(path.read_text())
        assert loaded == sim.timeline.to_chrome_trace()
        wire = [
            e
            for e in loaded["traceEvents"]
            if e["ph"] == "X" and e["name"] == "alltoall_fwd"
        ]
        assert all(set(e["args"]) == {"exchange", "chunk", "chunks"} for e in wire)

    def test_events_without_args_keep_the_plain_schema(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        trace = tl.to_chrome_trace()
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert set(xs[0]) == {"name", "cat", "ph", "pid", "tid", "ts", "dur", "rank", "stream"}


class TestReleaseEdges:
    """Dependency edges on the ledger: validation, communicator
    population, and the chrome-trace round-trip the critical-path
    analyzer's offline mode relies on."""

    def test_edges_must_point_backwards(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        e = tl.record(0, EventCategory.ALLTOALL_FWD, 1.0, 1.0, release_edges=[0])
        assert e.release_edges == (0,)
        with pytest.raises(ValueError):
            tl.record(0, EventCategory.DECOMPRESS, 2.0, 1.0, release_edges=[5])
        with pytest.raises(ValueError):
            tl.record(0, EventCategory.DECOMPRESS, 2.0, 1.0, release_edges=[-1])

    def test_edges_deduplicate_and_empty_collapses_to_none(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        e = tl.record(0, EventCategory.ALLTOALL_FWD, 1.0, 1.0, release_edges=[0, 0])
        assert e.release_edges == (0,)
        plain = tl.record(0, EventCategory.DECOMPRESS, 2.0, 1.0, release_edges=[])
        assert plain.release_edges is None

    def _overlapped_sim(self):
        from repro.dist import ClusterSimulator

        sim = ClusterSimulator(2)
        sim.comm.compressed_all_to_all(
            [[b"x" * 1000] * 2] * 2,
            overlap=True,
            compress_seconds=[2e-4, 1e-4],
            decompress_seconds=[1e-4, 1e-4],
            chunks_per_rank=[3, 3],
        )
        return sim

    def test_communicator_populates_edges(self):
        sim = self._overlapped_sim()
        with_edges = [e for e in sim.timeline.events if e.release_edges]
        assert with_edges, "overlapped exchange must record release edges"
        for i, e in enumerate(sim.timeline.events):
            for dep in e.release_edges or ():
                assert 0 <= dep < i  # strictly backwards
                # A releaser finishes before (or exactly when) its
                # dependent starts.
                assert sim.timeline.events[dep].end <= e.start + 1e-12

    def test_edges_survive_the_chrome_trace_round_trip(self):
        sim = self._overlapped_sim()
        trace = sim.timeline.to_chrome_trace()
        rebuilt = Timeline.from_chrome_trace(trace)
        assert len(rebuilt.events) == len(sim.timeline.events)
        for original, back in zip(sim.timeline.events, rebuilt.events):
            assert back.rank == original.rank
            assert back.category == original.category
            assert back.stream == original.stream
            assert back.release_edges == original.release_edges
            assert back.start == pytest.approx(original.start, abs=1e-9)
            assert back.duration == pytest.approx(original.duration, abs=1e-9)

    def test_trace_entry_schema_with_edges(self):
        sim = self._overlapped_sim()
        trace = sim.timeline.to_chrome_trace()
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        flagged = [e for e in xs if "release_edges" in e]
        assert flagged
        for entry in flagged:
            assert isinstance(entry["release_edges"], list)
            assert all(isinstance(i, int) for i in entry["release_edges"])
        # Events without edges keep the plain schema (no null member).
        assert any("release_edges" not in e for e in xs)
