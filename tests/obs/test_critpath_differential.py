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
* the worlds of ``tests/dist/test_ledger_golden.py``, faults included;
* ledgers recorded by hand through ``record`` / ``record_batch``: edges
  that name an annotation span, edge tuples shared by a batch, a releaser
  that starts after the event it releases, tied times, back-to-back
  collectives with identical spans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import COMM_STREAM, COMPUTE_STREAM, ClusterSimulator, EventCategory, Timeline
from repro.dist.timeline import OBS_STREAM
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


# ------------------------------------------------------ hand-recorded ledgers


def batch(timeline: Timeline, category, stream, spans, edges=None) -> None:
    """Record ``spans`` (``(rank, start, duration)`` each) as one
    ``record_batch`` whose entries all share the one ``edges`` sequence."""
    ranks, starts, durations = zip(*spans)
    timeline.record_batch(
        ranks, category, starts, durations, stream, release_edges=[edges] * len(spans)
    )


class TestRecordedEdges:
    """Ledgers recorded by hand through ``record`` / ``record_batch``: the
    ledger has checked that every edge names an earlier event (the DAG
    drops only the edges that name an annotation span:
    ``test_critpath.py::TestReleaseEdges`` and the arbitrary ledgers
    below)."""

    def test_one_tuple_shared_by_several_events(self):
        """``record_batch`` stores one tuple for every entry that shares an
        edge sequence: each event keeps all of it, and the what-if builds
        one dependency row for it."""
        timeline = Timeline()
        batch(timeline, "compress", COMPUTE_STREAM, [(0, 0.0, 1.0), (2, 0.0, 2.0), (3, 0.0, 0.5)])
        timeline.record(1, "compress", 0.0, 3.0, OBS_STREAM)
        batch(timeline, "alltoall_fwd", COMM_STREAM, [(r, 2.0, 1.0) for r in range(4)], (0, 1, 3))
        columns = timeline.columns()
        assert len({id(edges) for edges in columns.release_edges[4:]}) == 1
        dag = TimelineDag.from_timeline(timeline)
        assert [dag.release_edges(i) for i in range(4, 8)] == [(0, 1)] * 4
        dag.speedup_if("compress", 2.0)
        assert len(dag._plan.rows) == 1
        assert_same_analysis(timeline, [("compress", 2.0), ("alltoall_fwd", 0.5)])

    def test_releaser_scheduled_after_the_event_it_releases(self):
        """Event 3's releaser (event 1) is recorded earlier but starts
        later, so a forward pass reaches it second and must ignore it —
        while event 4, sharing the very same edge tuple, must wait for it
        once its own lane (the optimizer span) is sped up."""
        timeline = Timeline()
        timeline.record(0, "compress", 0.0, 1.0)
        timeline.record(1, "compress", 4.0, 1.0)
        timeline.record(3, "optimizer", 0.0, 5.0)
        batch(timeline, "decompress", COMPUTE_STREAM, [(2, 1.0, 1.0), (3, 5.0, 1.0)], (0, 1))
        assert_same_analysis(timeline, [("optimizer", 2.0), ("compress", 2.0)])
        assert TimelineDag.from_timeline(timeline).speedup_if("optimizer", 2.0).predicted_makespan == 6.0

    def test_back_to_back_identical_collectives_split_on_repeated_ranks(self):
        """Two back-to-back collectives of one duration, with the edges
        ``ClusterSimulator.collective`` records: each member of one is
        released by one shared tuple (the compress kernels, then the first
        collective), and what follows by every member of the last.
        Nothing groups identical spans, and rank 0's decode waits on the
        slowest compress through both."""
        timeline = Timeline()
        batch(timeline, "compress", COMPUTE_STREAM, [(rank, 0.0, 1.0 + rank / 2) for rank in range(3)])
        batch(timeline, "allreduce", COMM_STREAM, [(rank, 2.0, 1.0) for rank in range(3)], (0, 1, 2))
        batch(timeline, "allreduce", COMM_STREAM, [(rank, 3.0, 1.0) for rank in range(3)], (3, 4, 5))
        # rank 0 owns the makespan only if it waited for the slowest rank
        batch(
            timeline, "decompress", COMM_STREAM,
            [(rank, 4.0, 20.0 - 9 * rank) for rank in range(3)], (6, 7, 8),
        )
        assert_same_analysis(timeline)
        dag = TimelineDag.from_timeline(timeline)
        assert [step.event_index for step in dag.critical_path().steps] == [2, 3, 6, 9]
        assert dag.speedup_if("compress", 2.0).predicted_makespan == 23.0

    def test_empty_and_annotation_only_ledgers(self):
        assert_same_analysis(Timeline())
        timeline = Timeline()
        timeline.record(0, "train_step", 0.0, 1.0, OBS_STREAM)
        assert_same_analysis(timeline)


GRID = st.integers(0, 6).map(lambda k: k * 0.5)


@st.composite
def arbitrary_ledgers(draw):
    """Small ledgers on a coarse time grid (so ends coincide and keys tie),
    with runs of identical spans recorded as one batch whose entries share
    one edge sequence, drawn from the events recorded before the run."""
    n = draw(st.integers(1, 14))
    timeline = Timeline()
    while len(timeline) < n:
        stream = draw(st.sampled_from([COMPUTE_STREAM, COMM_STREAM, OBS_STREAM]))
        category = draw(st.sampled_from(["compress", EventCategory.COMPRESS, "allreduce"]))
        start, duration = draw(GRID), draw(GRID)
        edges = None
        if len(timeline) and draw(st.booleans()):
            edges = draw(st.lists(st.integers(0, len(timeline) - 1), max_size=4))
        copies = draw(st.sampled_from([1, 1, 1, 2, 3, 4]))
        first_rank = draw(st.integers(0, 2))
        # a run of identical spans on ranks r, r+1, ... mod 3
        spans = [((first_rank + k) % 3, start, duration) for k in range(copies)]
        batch(timeline, category, stream, spans, edges)
    return timeline


class TestArbitraryLedgers:
    @given(arbitrary_ledgers())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, timeline):
        assert_same_analysis(timeline, [("compress", 2.0), ("allreduce", 0.5)])
