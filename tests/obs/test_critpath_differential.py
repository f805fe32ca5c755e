"""Differential oracle for the column-based critical-path analyser.

``tests/obs/reference_critpath.py`` is the object-per-event ``TimelineDag``
the columns replaced, copied verbatim.  Every ledger below must give
``==`` results on both — ``CriticalPathResult`` (steps, floats and all)
and every what-if makespan — so the rewrite cannot move a report, a
highlight lane or a what-if by one ulp:

* simulator ledgers: flat / hierarchical / oversubscribed fabrics x 1-8
  chunks x overlap on/off x 1-3 rounds with interleaved all-reduces,
  annotation spans recorded mid-ledger, exogenous gaps;
* the same ledgers after a chrome-trace round trip (times move by float
  rounding and only the eps-tolerant matching keeps the DAG together);
* a ``ServingSimulator`` trace (open-loop arrivals: idle steps, floors);
* the nine worlds of ``tests/dist/test_ledger_golden.py``, faults included;
* hand-assembled ledgers: edges that are negative, past the end, forward,
  self-referential or name an annotation span; shared edge tuples; tied
  times; back-to-back collectives with identical spans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import COMM_STREAM, COMPUTE_STREAM, ClusterSimulator, EventCategory, Timeline
from repro.dist.timeline import OBS_STREAM, TimelineEvent
from repro.model import DLRM, DLRMConfig
from repro.obs.critpath import IDLE_CATEGORY, TimelineDag, extract_critical_path
from repro.serve import RequestLoadGenerator, ServingSimulator
from tests.dist.test_ledger_golden import WORLDS
from tests.obs import reference_critpath as reference
from tests.obs.test_critpath import fabric_and_ranks
from tests.serve.test_serving_sim import build_tier

WHAT_IFS = [
    (EventCategory.COMPRESS, 1.0),  # the identity: nothing sped up
    (EventCategory.COMPRESS, 2.0),
    (EventCategory.ALLTOALL_FWD, 2.0),
    (EventCategory.DECOMPRESS, 0.5),
    ("allreduce", 4.0),
    ("no-such-category", 3.0),
]


def assert_same_analysis(timeline: Timeline, what_ifs=WHAT_IFS) -> None:
    """Both analysers agree on the path and on every what-if, exactly."""
    expected = reference.extract_critical_path(timeline)
    result = extract_critical_path(timeline)
    assert result == expected
    for step in result.steps:  # plain Python scalars: the JSON block needs them
        assert type(step.start) is float and type(step.end) is float
        assert type(step.rank) is int
        assert step.event_index is None or type(step.event_index) is int
    dag = TimelineDag.from_timeline(timeline)
    oracle = reference.TimelineDag.from_timeline(timeline)
    assert dag.makespan == oracle.makespan
    for category, factor in what_ifs:
        assert dag.speedup_if(category, factor) == oracle.speedup_if(category, factor)
    for index, node in oracle._nodes.items():
        assert dag.release_edges(index) == node.explicit


# ------------------------------------------------------- simulator ledgers


def simulate(network, n, seed, chunks, overlap, rounds, annotate, stall) -> ClusterSimulator:
    rng = np.random.default_rng(seed)
    sim = ClusterSimulator(n, network=network)
    for round_index in range(rounds):
        sizes = rng.integers(0, 40_000, size=(n, n))
        sendbufs = [[b"x" * int(sizes[src][dst]) for dst in range(n)] for src in range(n)]
        began = sim.makespan()
        sim.comm.compressed_all_to_all(
            sendbufs,
            overlap=overlap,
            compress_seconds=rng.uniform(0.0, 2e-3, size=n).tolist(),
            decompress_seconds=rng.uniform(0.0, 2e-3, size=n).tolist(),
            chunks_per_rank=chunks,
        )
        if annotate:  # an annotation span in the middle of the ledger
            sim.timeline.record(
                round_index % n, EventCategory.TRAIN_STEP, began,
                sim.makespan() - began, stream=OBS_STREAM,
            )
        if round_index % 2 == 0:  # ledgers end on a barrier or on decode chunks
            sim.comm.all_reduce_bytes(int(rng.integers(1, 1 << 18)))
        if stall:  # exogenous gap: work that starts later than anything explains
            rank = int(rng.integers(0, n))
            sim.timeline.record(
                rank, EventCategory.OPTIMIZER, sim.makespan() + 1e-4, 5e-5, stream="aux"
            )
    return sim


class TestSimulatorLedgers:
    @given(
        fabric_and_ranks(),
        st.integers(0, 10_000),
        st.integers(1, 8),
        st.booleans(),
        st.integers(1, 3),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exchange_rounds(self, fabric, seed, chunks, overlap, rounds, annotate, stall):
        network, n = fabric
        sim = simulate(network, n, seed, chunks, overlap, rounds, annotate, stall)
        assert_same_analysis(sim.timeline)

    @given(fabric_and_ranks(), st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 2), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_chrome_trace_round_trip(self, fabric, seed, chunks, rounds, stall):
        """Parsed traces carry microsecond-rounded times: coincident ends
        only match within eps, on both analysers alike."""
        network, n = fabric
        sim = simulate(network, n, seed, chunks, True, rounds, True, stall)
        parsed = Timeline.from_chrome_trace(sim.timeline.to_chrome_trace())
        assert len(parsed.events) == len(sim.timeline.events)
        assert_same_analysis(parsed)

    @pytest.mark.parametrize("name", sorted(WORLDS))
    def test_golden_ledger_worlds(self, name):
        assert_same_analysis(WORLDS[name]().timeline)

    def test_serving_trace(self):
        """Open-loop arrivals: nothing recorded explains when a request
        starts, so the path has idle steps and the what-if keeps floors."""
        spec = make_uniform_spec("critpath-diff", n_tables=6, cardinality=400, zipf_exponent=1.4)
        dataset = SyntheticClickDataset(spec, seed=21)
        config = DLRMConfig.from_dataset(spec, embedding_dim=16, seed=22)
        _, replicas, _ = build_tier(DLRM(config), n_replicas=2, cache_rows=64)
        trace = Timeline()
        requests = RequestLoadGenerator(dataset, qps=3000.0, seed=7).generate(150)
        ServingSimulator(replicas, config).run(requests, trace=trace)
        categories = sorted({str(e.category) for e in trace.events})
        assert_same_analysis(trace, [(category, 2.0) for category in categories])
        assert IDLE_CATEGORY in extract_critical_path(trace).by_category()


# -------------------------------------------------- hand-assembled ledgers


def ledger(*events: TimelineEvent) -> Timeline:
    """A ``Timeline`` assembled without ``record``: no edge validation."""
    return Timeline.from_events(events)


def event(rank, category, start, duration, stream=COMPUTE_STREAM, edges=None) -> TimelineEvent:
    return TimelineEvent(rank, category, float(start), float(duration), stream, None, edges)


class TestEdgeHygiene:
    """``Timeline.from_events`` stores events unvalidated (``train/hybrid.py``
    builds window timelines from a slice of a ledger), so an edge may name
    anything.  Such edges are dropped — never raised, never wrapped round
    to another event."""

    def test_invalid_edges_are_dropped_not_wrapped(self):
        timeline = ledger(
            event(0, "compress", 0.0, 1.0),
            event(0, "train_step", 0.0, 9.0, OBS_STREAM),
            event(1, "compress", 0.0, 3.0),
            # negative (would alias the last event), past the end, forward,
            # itself, an annotation span — and one real releaser
            event(0, "alltoall_fwd", 1.0, 1.0, COMM_STREAM, (-1, -7, 99, 6, 4, 3, 1, 0)),
            event(1, "decompress", 3.0, 1.0, COMPUTE_STREAM, (3,)),
            event(2, "decompress", 5.0, 1.0, COMPUTE_STREAM, (-1,)),
            event(2, "optimizer", 6.0, 2.0),
        )
        dag = TimelineDag.from_timeline(timeline)
        assert dag.release_edges(3) == (0,)
        assert dag.release_edges(4) == (3,)
        assert dag.release_edges(5) == ()  # -1 must not alias event 6
        assert dag.release_edges(0) == ()  # an event without edges
        assert_same_analysis(timeline)

    def test_window_timeline_keeps_only_edges_that_resolve(self):
        """The ``train/hybrid.py`` pattern: a slice of a full ledger whose
        edges still name full-ledger indices."""
        sim = WORLDS["ragged_chunks"]()
        events = sim.timeline.events
        window = ledger(*events[len(events) // 3 :])
        assert any(e.release_edges for e in window.events)
        assert_same_analysis(window)

    def test_one_tuple_shared_by_an_earlier_and_a_later_event(self):
        """A shared tuple is forward for its first user and backward for
        its second: each keeps exactly the entries recorded before it."""
        shared = (0, 2, 4)
        timeline = ledger(
            event(0, "compress", 0.0, 1.0),
            event(1, "alltoall_fwd", 1.0, 1.0, COMM_STREAM, shared),
            event(2, "compress", 0.0, 2.0),
            event(3, "alltoall_fwd", 2.0, 1.0, COMM_STREAM, shared),
            event(0, "compress", 1.0, 2.0),
            event(2, "decompress", 3.0, 1.0, COMPUTE_STREAM, shared),
        )
        dag = TimelineDag.from_timeline(timeline)
        assert [dag.release_edges(i) for i in (1, 3, 5)] == [(0,), (0, 2), (0, 2, 4)]
        assert_same_analysis(timeline)

    def test_releaser_scheduled_after_the_event_it_releases(self):
        """Event 3's releaser (event 1) is recorded earlier but starts
        later, so a forward pass reaches it second and must ignore it —
        while event 4, sharing the very same edge tuple, must wait for it
        once its own lane (the optimizer span) is sped up."""
        shared = (0, 1)
        timeline = ledger(
            event(0, "compress", 0.0, 1.0),
            event(1, "compress", 4.0, 1.0),
            event(3, "optimizer", 0.0, 5.0),
            event(2, "decompress", 1.0, 1.0, COMPUTE_STREAM, shared),
            event(3, "decompress", 5.0, 1.0, COMPUTE_STREAM, shared),
        )
        assert_same_analysis(timeline, [("optimizer", 2.0), ("compress", 2.0)])
        assert TimelineDag.from_timeline(timeline).speedup_if("optimizer", 2.0).predicted_makespan == 6.0

    def test_back_to_back_identical_collectives_split_on_repeated_ranks(self):
        """Two back-to-back collectives of one duration, with the edges
        ``ClusterSimulator.collective`` records: each member of one is
        released by one shared tuple (the compress kernels, then the first
        collective), and what follows by every member of the last.
        Nothing groups identical spans, and rank 0's decode waits on the
        slowest compress through both."""
        released = (0, 1, 2)  # every rank's compress
        first = (3, 4, 5)
        second = (6, 7, 8)
        timeline = ledger(
            *(event(rank, "compress", 0.0, 1.0 + rank / 2) for rank in range(3)),
            *(event(rank, "allreduce", 2.0, 1.0, COMM_STREAM, released) for rank in range(3)),
            *(event(rank, "allreduce", 3.0, 1.0, COMM_STREAM, first) for rank in range(3)),
            # rank 0 owns the makespan only if it waited for the slowest rank
            *(event(rank, "decompress", 4.0, 20.0 - 9 * rank, COMM_STREAM, second) for rank in range(3)),
        )
        assert_same_analysis(timeline)
        dag = TimelineDag.from_timeline(timeline)
        assert [step.event_index for step in dag.critical_path().steps] == [2, 3, 6, 9]
        assert dag.speedup_if("compress", 2.0).predicted_makespan == 23.0

    def test_empty_and_annotation_only_ledgers(self):
        assert_same_analysis(Timeline())
        assert_same_analysis(ledger(event(0, "train_step", 0.0, 1.0, OBS_STREAM)))


GRID = st.integers(0, 6).map(lambda k: k * 0.5)


@st.composite
def arbitrary_ledgers(draw):
    """Small ledgers on a coarse time grid (so ends coincide and keys tie),
    with runs of identical spans and edges drawn from a range wider than
    the ledger, some tuples shared between events."""
    n = draw(st.integers(1, 14))
    pool = draw(
        st.lists(
            st.lists(st.integers(-3, n + 2), max_size=4).map(tuple), min_size=1, max_size=3
        )
    )
    events: list[TimelineEvent] = []
    while len(events) < n:
        stream = draw(st.sampled_from([COMPUTE_STREAM, COMM_STREAM, OBS_STREAM]))
        category = draw(st.sampled_from(["compress", EventCategory.COMPRESS, "allreduce"]))
        start, duration = draw(GRID), draw(GRID)
        edges = draw(st.sampled_from([None, None, *pool]))
        copies = draw(st.sampled_from([1, 1, 1, 2, 3, 4]))
        first_rank = draw(st.integers(0, 2))
        for k in range(copies):  # a run of identical spans on ranks r, r+1, ... mod 3
            events.append(event((first_rank + k) % 3, category, start, duration, stream, edges))
    return ledger(*events)


class TestArbitraryLedgers:
    @given(arbitrary_ledgers())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, timeline):
        assert_same_analysis(timeline, [("compress", 2.0), ("allreduce", 0.5)])
