"""Tests for the event timeline and category ledger."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dist.comm
import repro.dist.simulator
import repro.dist.timeline
from repro.dist import EventCategory, Timeline
from repro.dist.timeline import MAX_SECONDS, OBS_STREAM, TimelineEvent
from repro.obs.critpath import TimelineDag, extract_critical_path
from repro.profiling.breakdown import CATEGORY_LABELS, overlap_efficiency
from tests.conftest import events_in
from tests.obs import reference_critpath as reference


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
        assert tl.record(0, EventCategory.COMPRESS, 1.0, 0.5) is None
        assert len(tl) == 1
        (e,) = tl.events
        assert e.end == pytest.approx(1.5)
        assert events_in(tl, EventCategory.COMPRESS) == [e]
        assert tl.total_by_category(rank=0) == {EventCategory.COMPRESS: 0.5}
        assert tl.total_by_category(rank=1) == {}

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

    def test_events_read_back_their_ends(self):
        tl = Timeline()
        assert tl.events == []
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(1, EventCategory.COMPRESS, 5.0, 2.5)
        assert [(e.rank, e.end) for e in tl.events] == [(0, 1.0), (1, 7.5)]

    def test_category_totals_key_by_first_counted_use(self):
        """Keys come in first-use order, each the category object of the
        first event counted (a plain string and its enum member are one
        key), and annotation spans count for nothing."""
        tl = Timeline()
        tl.record(0, EventCategory.TRAIN_STEP, 0.0, 9.0, stream=OBS_STREAM)
        tl.record(1, "compress", 0.0, 1.0)
        tl.record_batch([0, 1], EventCategory.ALLTOALL_FWD, [1.0, 1.0], [0.5, 0.25], "comm")
        tl.record(0, EventCategory.COMPRESS, 2.0, 2.0)
        tl.record(1, EventCategory.COMPRESS, 4.0, 0.5)
        totals = tl.total_by_category()
        assert totals == {"compress": 3.5, "alltoall_fwd": 0.75}
        assert [type(key) for key in totals] == [str, EventCategory]
        rank0 = tl.total_by_category(rank=0)
        assert list(rank0) == ["alltoall_fwd", "compress"]
        assert all(type(key) is EventCategory for key in rank0)
        assert tl.total_by_category(rank=7) == {}

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
        NaN (or infinite) start/duration and the critical path was
        silently poisoned for every direct caller."""
        tl = Timeline()
        with pytest.raises(ValueError, match="duration"):
            tl.record(0, EventCategory.COMPRESS, 0.0, bad)
        with pytest.raises(ValueError, match="start"):
            tl.record(0, EventCategory.COMPRESS, bad, 1.0)
        with pytest.raises(ValueError, match="duration"):
            tl.record_batch([0, 1], EventCategory.COMPRESS, [0.0, 0.0], [1.0, bad])
        with pytest.raises(ValueError, match="start"):
            tl.record_batch([0, 1], EventCategory.COMPRESS, [bad, 0.0], [1.0, 1.0])
        assert len(tl) == 0

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
            batched.record_batch(
                columns[0], EventCategory.COMPRESS, columns[1], columns[2], "comm",
                columns[3], columns[4],
            )
            assert len(batched) == len(one_by_one)
            assert batched.events == one_by_one.events
            for event in batched.events[prefix:]:
                assert type(event.rank) is int and type(event.start) is float
                assert type(event.duration) is float
                assert event.release_edges is None or all(
                    type(i) is int for i in event.release_edges
                )

    def test_shared_edges_and_args(self):
        """One edge object for many entries is validated against its first
        use and stored once; every materialised event owns a copy of the
        one args snapshot."""
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(1, EventCategory.COMPRESS, 0.0, 2.0)
        edges = np.array([1, 0, 1])
        args = {"exchange": 7}
        tl.record_batch(
            np.arange(3), EventCategory.METADATA, np.full(3, 2.0), np.full(3, 0.5),
            "comm", args, [edges] * 3,
        )
        events = tl.events[2:]
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


# One ledger operation for the column-store law: a single record, a batch
# (one args mapping / edge object shared by every entry, or one per entry)
# or a counter sample.  About one entry in eight is one the ledger rejects
# (a negative rank, a NaN time, an edge to itself or later), so most
# operations land and the ledger grows.
_LAW_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.5, 0.0, 0.5, 1.0, math.nan])
_LAW_ARGS = st.one_of(st.none(), st.just({}), st.dictionaries(st.sampled_from("ab"), st.integers(0, 3)))
_LAW_EDGES = st.one_of(st.none(), st.lists(st.integers(min_value=0, max_value=3), max_size=3))
_LAW_ENTRY = st.tuples(
    st.sampled_from([0, 1, 2, 3, 0, 1, 2, -1]), _LAW_TIMES, st.sampled_from([0.5, 1.0]), _LAW_ARGS, _LAW_EDGES
)
_LAW_KIND = st.tuples(
    st.sampled_from([EventCategory.COMPRESS, EventCategory.ALLTOALL_FWD, "custom"]),
    st.sampled_from(["compute", "comm", OBS_STREAM]),
)
_LAW_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), _LAW_KIND, _LAW_ENTRY),
        st.tuples(
            st.just("batch"), _LAW_KIND, st.lists(_LAW_ENTRY, max_size=5), st.booleans(), st.booleans()
        ),
        st.tuples(st.just("counter"), st.sampled_from(["depth", "bytes"]), _LAW_TIMES),
    ),
    max_size=8,
)


def _one_by_one(entries, category, stream, recorded: int) -> list[TimelineEvent] | None:
    """The events ``entries`` append to a ledger holding ``recorded``, built
    one by one, or ``None`` if ``record`` would reject one of them."""
    events = []
    for rank, start, duration, args, edges in entries:
        if rank < 0 or not (0.0 <= start < MAX_SECONDS and 0.0 <= duration < MAX_SECONDS):
            return None
        if edges and not all(0 <= i < recorded + len(events) for i in edges):
            return None
        edges = tuple(dict.fromkeys(edges)) if edges else None
        events.append(
            TimelineEvent(rank, category, start, duration, stream, dict(args) if args else None, edges)
        )
    return events


def _assert_columns_hold(timeline: Timeline, expected: list[TimelineEvent]) -> None:
    """``timeline``'s columns and args read back as ``expected``, field
    for field, with the columns' dtypes and first-use code tables."""
    columns = timeline.columns()
    assert columns.rank.dtype == columns.stream.dtype == columns.category.dtype == np.int64
    assert columns.start.dtype == columns.duration.dtype == np.float64
    assert columns.rank.tolist() == [e.rank for e in expected]
    assert columns.start.tolist() == [e.start for e in expected]
    assert columns.duration.tolist() == [e.duration for e in expected]
    assert columns.streams == tuple(dict.fromkeys(e.stream for e in expected))
    assert columns.categories == tuple(dict.fromkeys(e.category for e in expected))
    assert [columns.streams[i] for i in columns.stream.tolist()] == [e.stream for e in expected]
    assert [columns.categories[i] for i in columns.category.tolist()] == [
        e.category for e in expected
    ]
    assert columns.release_edges == [e.release_edges for e in expected]
    assert timeline.args() == [e.args for e in expected]


def _totals_event_by_event(
    events: list[TimelineEvent], rank: int | None = None
) -> dict[str, float]:
    """``total_by_category`` as one loop over event objects."""
    totals: dict[str, float] = {}
    for e in events:
        if (rank is None or e.rank == rank) and e.stream != OBS_STREAM:
            totals[e.category] = totals.get(e.category, 0.0) + e.duration
    return totals


class TestColumnLedger:
    """The ledger is stored as columns, its one form: every way of
    appending to it must read back as the events built one by one, and
    every reader of the columns must agree with a loop over those
    events."""

    @settings(max_examples=300, deadline=None)
    @given(ops=_LAW_OPS)
    def test_any_interleaving_equals_the_events_built_one_by_one(self, ops):
        """Law: ``len``, ``events``, the columns, ``args``, the category
        totals and the critical path of any interleaving of ``record``,
        ``record_batch`` and ``record_counter`` equal those of the events
        built one by one (the path as the object-per-event reference
        analyser finds it); a rejected call leaves the ledger untouched;
        the caller's args mappings are snapshotted."""
        tl, expected, counters, given_args = Timeline(), [], [], []
        for op in ops:
            if op[0] == "counter":
                _, name, time = op
                if 0.0 <= time < MAX_SECONDS:
                    counters.append(tl.record_counter(name, time, 1.0))
                continue
            (category, stream), entries = op[1], [op[2]] if op[0] == "record" else op[2]
            shared_args = op[0] == "batch" and op[3] and entries
            shared_edges = op[0] == "batch" and op[4] and entries
            if shared_args:  # one args mapping for every entry
                entries = [(*entry[:3], entries[0][3], entry[4]) for entry in entries]
            if shared_edges:  # one edge object for every entry
                entries = [(*entry[:4], entries[0][4]) for entry in entries]
            want = _one_by_one(entries, category, stream, len(expected))
            given_args.extend(entry[3] for entry in entries if entry[3])
            try:
                if op[0] == "record":
                    rank, start, duration, args, edges = op[2]
                    tl.record(rank, category, start, duration, stream, args, edges)
                else:
                    tl.record_batch(
                        [entry[0] for entry in entries],
                        category,
                        [entry[1] for entry in entries],
                        [entry[2] for entry in entries],
                        stream,
                        entries[0][3] if shared_args else [entry[3] for entry in entries],
                        [entry[4] for entry in entries],
                    )
            except ValueError:
                assert want is None
                assert len(tl) == len(expected)
                _assert_columns_hold(tl, expected)
                continue
            assert want is not None
            expected.extend(want)
            assert len(tl) == len(expected)
        for args in given_args:  # the ledger holds snapshots, not the caller's maps
            args["a"] = "mutated"
        _assert_columns_hold(tl, expected)
        assert len(tl) == len(expected)
        assert tl.events == expected
        assert tl.counters == counters
        for rank in (None, 0, 1):
            totals, want = tl.total_by_category(rank), _totals_event_by_event(expected, rank)
            assert totals == want
            assert [(type(k), v.hex()) for k, v in totals.items()] == [
                (type(k), v.hex()) for k, v in want.items()
            ]
        dag, oracle = TimelineDag.from_timeline(tl), reference.TimelineDag.from_timeline(tl)
        assert dag.critical_path() == oracle.critical_path()
        assert dag.speedup_if(EventCategory.COMPRESS, 2.0) == oracle.speedup_if(EventCategory.COMPRESS, 2.0)

    def test_lane_reads_the_columns(self):
        tl = Timeline()
        tl.record(2, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record_batch([0, 1], EventCategory.ALLTOALL_FWD, [1.0, 1.0], [0.5, 0.5], "comm")
        tl.record(3, EventCategory.COMPRESS, 0.0, 1.0, stream="comm")
        assert [tl.lane(i) for i in range(4)] == [(2, "compute"), (0, "comm"), (1, "comm"), (3, "comm")]
        with pytest.raises(IndexError):
            tl.lane(4)

    def test_only_reading_events_builds_an_event(self, monkeypatch):
        """The ledger has one form: charging a chunked exchange and an
        all-reduce, an OBS-on ``train_step``, the chrome-trace export, the
        category totals, the overlap efficiency, the critical path and the
        ``len`` / ``lane`` / ``columns`` / ``args`` reads construct no
        ``TimelineEvent``; every read of ``events`` builds each one anew."""
        from repro.dist import ClusterSimulator
        from repro.obs.runtime import capture
        from tests.obs.test_instrumentation import make_trainer

        built = []

        class Counted(TimelineEvent):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(repro.dist.timeline, "TimelineEvent", Counted)
        sim = ClusterSimulator(4)
        for _ in range(2):
            sim.comm.compressed_all_to_all(
                [[b"x" * 1000] * 4] * 4,
                overlap=True,
                compress_seconds=[1e-4, 2e-4, 0.0, 1e-4],
                decompress_seconds=[1e-4] * 4,
                chunks_per_rank=[3, 1, 4, 2],
            )
            sim.comm.all_reduce_bytes(1 << 16)
        with capture():
            trainer = make_trainer(overlap=True, pipeline_chunks=2)
            trainer.train_step(32, iteration=0)
        for timeline in (sim.timeline, trainer.simulator.timeline):
            assert extract_critical_path(timeline).makespan > 0.0
            assert timeline.to_chrome_trace()["traceEvents"]
            assert timeline.total_by_category(rank=0)
            assert overlap_efficiency(timeline, first=len(timeline) // 2) >= 0.0
            lanes = [timeline.lane(i) for i in range(len(timeline))]
            assert len(timeline.columns().rank) == len(timeline.args()) == len(lanes)
        assert built == []
        assert len(sim.timeline.events) == len(built) == len(sim.timeline) > 0
        sim.timeline.events
        assert len(built) == 2 * len(sim.timeline)

    @pytest.mark.parametrize("module", [repro.dist.simulator, repro.dist.comm])
    def test_simulator_and_communicator_never_read_events(self, module):
        assert re.search(r"\.events\b", Path(module.__file__).read_text()) is None


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

    def test_json_serializable_roundtrip(self):
        import json

        tl = self._ledger()
        loaded = json.loads(json.dumps(tl.to_chrome_trace()))
        assert loaded == tl.to_chrome_trace()

    def test_empty_timeline_exports_cleanly(self):
        trace = Timeline().to_chrome_trace()
        assert [e["ph"] for e in trace["traceEvents"]] == ["M"]

    @settings(max_examples=300, deadline=None)
    @given(
        events=st.lists(st.tuples(st.floats(), st.floats()), max_size=6),
        counters=st.lists(st.tuples(st.floats(), st.floats()), max_size=6),
    )
    def test_every_accepted_ledger_exports_strict_json(self, events, counters):
        """Law: whatever ``record`` and ``record_counter`` accept — any
        float, NaN, infinities and the largest finite ones included —
        exports with no ``NaN`` / ``Infinity`` token, and the JSON reads
        back into the same ledger."""
        tl = Timeline()
        for start, duration in events:
            try:
                tl.record(0, EventCategory.COMPRESS, start, duration)
            except ValueError:
                assert not 0.0 <= start * 1e6 < math.inf or not 0.0 <= duration * 1e6 < math.inf
        for time, value in counters:
            try:
                tl.record_counter("depth", time, value)
            except ValueError:
                assert not 0.0 <= time * 1e6 < math.inf or not math.isfinite(value)
        text = json.dumps(tl.to_chrome_trace(), allow_nan=False)
        back = Timeline.from_chrome_trace(json.loads(text))
        assert len(back.events) == len(tl.events) and len(back.counters) == len(tl.counters)
        assert [s.value for s in back.counters] == [s.value for s in tl.counters]

    def test_largest_accepted_time_exports_finite(self):
        from repro.dist.timeline import MAX_SECONDS

        largest = float(np.nextafter(MAX_SECONDS, 0.0))
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, largest, largest)
        tl.record_counter("depth", largest, 1.0)
        for bad in (MAX_SECONDS, 1e305):
            with pytest.raises(ValueError, match="start"):
                tl.record(0, EventCategory.COMPRESS, bad, 0.0)
            with pytest.raises(ValueError, match="duration"):
                tl.record_batch([0], EventCategory.COMPRESS, [0.0], [bad])
            with pytest.raises(ValueError, match="time"):
                tl.record_counter("depth", bad, 1.0)
        json.dumps(tl.to_chrome_trace(), allow_nan=False)


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
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record_batch([1], EventCategory.COMPRESS, [0.0], [1.0])
        assert tl.columns().streams == ("compute",)
        assert [lane["args"]["name"] for lane in tl.to_chrome_trace()["traceEvents"][1:3]] == [
            "rank 0",
            "rank 1",
        ]

    def test_lanes_number_compute_first(self):
        """Lanes go rank-major, and within a rank the compute stream
        comes first, then the others by name, whatever order they were
        first recorded in."""
        tl = Timeline()
        tl.record(1, EventCategory.OPTIMIZER, 0.0, 1.0, stream="aux")
        tl.record(0, EventCategory.ALLTOALL_FWD, 0.0, 1.0, stream="comm")
        tl.record(1, EventCategory.COMPRESS, 0.0, 1.0)
        lanes = [
            (e["tid"], e["args"]["name"])
            for e in tl.to_chrome_trace()["traceEvents"]
            if e["name"] == "thread_name"
        ]
        assert lanes == [(2, "rank 0 [comm]"), (3, "rank 1 [compute]"), (4, "rank 1 [aux]")]

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

    def test_simulator_overlap_run_round_trips_to_json(self):
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
        loaded = json.loads(json.dumps(sim.timeline.to_chrome_trace()))
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
        wire = events_in(sim.timeline, EventCategory.ALLTOALL_FWD)
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
        wire = events_in(sim.timeline, EventCategory.ALLTOALL_FWD)
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

    def test_args_round_trip_through_json(self):
        import json

        sim = self._chunked_run()
        loaded = json.loads(json.dumps(sim.timeline.to_chrome_trace()))
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
        tl.record(0, EventCategory.ALLTOALL_FWD, 1.0, 1.0, release_edges=[0])
        assert tl.columns().release_edges == [None, (0,)]
        with pytest.raises(ValueError):
            tl.record(0, EventCategory.DECOMPRESS, 2.0, 1.0, release_edges=[5])
        with pytest.raises(ValueError):
            tl.record(0, EventCategory.DECOMPRESS, 2.0, 1.0, release_edges=[-1])

    def test_edges_deduplicate_and_empty_collapses_to_none(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(0, EventCategory.ALLTOALL_FWD, 1.0, 1.0, release_edges=[0, 0])
        tl.record(0, EventCategory.DECOMPRESS, 2.0, 1.0, release_edges=[])
        assert tl.columns().release_edges == [None, (0,), None]

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
        events = sim.timeline.events
        with_edges = [e for e in events if e.release_edges]
        assert with_edges, "overlapped exchange must record release edges"
        for i, e in enumerate(events):
            for dep in e.release_edges or ():
                assert 0 <= dep < i  # strictly backwards
                # A releaser finishes before (or exactly when) its
                # dependent starts.
                assert events[dep].end <= e.start + 1e-12

    def test_edges_survive_the_chrome_trace_round_trip(self):
        sim = self._overlapped_sim()
        trace = sim.timeline.to_chrome_trace()
        rebuilt = Timeline.from_chrome_trace(trace)
        assert len(rebuilt) == len(sim.timeline)
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
