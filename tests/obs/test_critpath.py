"""Critical-path analysis: conservation law, what-ifs, rendering.

The two acceptance properties of ``repro.obs.critpath``:

* **Conservation** — over randomized fabrics, workloads, and chunk
  counts, the critical-path steps tile ``[0, makespan]`` exactly, so
  ``attribution_exact()`` (done in :class:`fractions.Fraction`) sums to
  ``Fraction(makespan)`` identically — no float luck.
* **What-if fidelity** — ``speedup_if(category, factor)`` must land
  within 5% of actually re-running the simulator with that category's
  stage times scaled (the compress/decompress knobs the Fig. 12
  scenarios turn).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    IB_HDR_LIKE,
    NVLINK_LIKE,
    PCIE_LIKE,
    ClusterSimulator,
    EventCategory,
    NetworkModel,
    Timeline,
    Topology,
)
from repro.obs.critpath import (
    IDLE_CATEGORY,
    CriticalPathResult,
    CriticalStep,
    TimelineDag,
    critical_path_report,
    extract_critical_path,
    highlight_trace_events,
    report_json_block,
)

METADATA_BYTES = 16


@st.composite
def fabric_and_ranks(draw):
    """A sampled fabric plus its rank count: flat alpha-beta models and
    heterogeneous two-level topologies (incl. oversubscribed inter links)."""
    kind = draw(st.sampled_from(["flat", "hier"]))
    if kind == "flat":
        n = draw(st.integers(min_value=2, max_value=6))
        bandwidth = draw(st.floats(min_value=1e8, max_value=1e11))
        latency = draw(st.floats(min_value=0.0, max_value=1e-5))
        return NetworkModel(bandwidth=bandwidth, latency=latency), n
    n_nodes, gpus = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]))
    intra = draw(st.sampled_from([NVLINK_LIKE, PCIE_LIKE]))
    inter = draw(
        st.sampled_from([IB_HDR_LIKE, PCIE_LIKE, IB_HDR_LIKE.oversubscribed(4.0)])
    )
    topology = Topology.hierarchical(n_nodes, gpus, intra, inter)
    return NetworkModel.from_topology(topology), n_nodes * gpus


def _workload(n: int, seed: int):
    rng = np.random.default_rng(seed)
    compress = rng.uniform(0.0, 2e-3, size=n).tolist()
    decompress = rng.uniform(0.0, 2e-3, size=n).tolist()
    sizes = rng.integers(0, 60_000, size=(n, n))
    return compress, decompress, sizes


def _run(network, compress, decompress, sizes, chunks, *, overlap=True):
    n = len(compress)
    sim = ClusterSimulator(n, network=network)
    sendbufs = [
        [b"x" * int(sizes[src][dst]) for dst in range(n)] for src in range(n)
    ]
    sim.comm.compressed_all_to_all(
        sendbufs,
        metadata_bytes_per_entry=METADATA_BYTES,
        overlap=overlap,
        compress_seconds=compress,
        decompress_seconds=decompress,
        chunks_per_rank=chunks,
    )
    return sim


class TestConservationLaw:
    @given(fabric_and_ranks(), st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_exact_attribution_sums_to_makespan(self, fabric, seed, chunks):
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        sim = _run(network, compress, decompress, sizes, chunks)
        result = extract_critical_path(sim.timeline)
        assert result.makespan == sim.makespan()
        total = sum(result.attribution_exact().values(), Fraction(0))
        assert total == Fraction(result.makespan)

    @given(fabric_and_ranks(), st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_steps_tile_the_interval_contiguously(self, fabric, seed, chunks):
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        sim = _run(network, compress, decompress, sizes, chunks)
        result = extract_critical_path(sim.timeline)
        assert result.steps
        assert result.steps[0].start == 0.0
        assert result.steps[-1].end == result.makespan
        for prev, cur in zip(result.steps, result.steps[1:]):
            assert prev.end == cur.start

    def test_sequential_layout_conserves_too(self):
        compress, decompress, sizes = _workload(4, seed=5)
        sim = _run(
            NetworkModel(bandwidth=1e9, latency=1e-6),
            compress, decompress, sizes, 3, overlap=False,
        )
        result = extract_critical_path(sim.timeline)
        total = sum(result.attribution_exact().values(), Fraction(0))
        assert total == Fraction(sim.makespan())

    def test_empty_timeline(self):
        result = extract_critical_path(Timeline())
        assert result.makespan == 0.0
        assert result.steps == ()
        assert result.attribution() == {}


class TestIdleAttribution:
    def test_unexplained_gap_becomes_idle_step(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(0, EventCategory.DECOMPRESS, 2.0, 1.0)  # exogenous gap
        result = extract_critical_path(tl)
        categories = [s.category for s in result.steps]
        assert IDLE_CATEGORY in categories
        idle = next(s for s in result.steps if s.category == IDLE_CATEGORY)
        assert idle.event_index is None
        assert (idle.start, idle.end) == (1.0, 2.0)
        total = sum(result.attribution_exact().values(), Fraction(0))
        assert total == Fraction(3.0)

    def test_fully_explained_schedule_has_no_idle(self):
        compress, decompress, sizes = _workload(3, seed=11)
        sim = _run(NetworkModel(bandwidth=1e9, latency=0.0),
                   compress, decompress, sizes, 2)
        result = extract_critical_path(sim.timeline)
        assert result.by_category().get(IDLE_CATEGORY, 0.0) == 0.0


class TestReleaseEdges:
    def test_complete_ledger_keeps_every_recorded_edge(self):
        """Without skipped annotation spans every recorded edge names an
        earlier node, so the DAG's edges equal the ledger's."""
        compress, decompress, sizes = _workload(4, seed=5)
        sim = _run(NetworkModel(bandwidth=1e9, latency=1e-6),
                   compress, decompress, sizes, 3)
        dag = TimelineDag.from_timeline(sim.timeline)
        edged = [i for i, e in enumerate(sim.timeline.events) if e.release_edges]
        assert edged
        for index in edged:
            assert dag.release_edges(index) == sim.timeline.events[index].release_edges

    def test_edges_naming_skipped_spans_are_dropped(self):
        from repro.dist import COMM_STREAM
        from repro.dist.timeline import OBS_STREAM

        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        tl.record(0, EventCategory.TRAIN_STEP, 0.0, 2.0, stream=OBS_STREAM)
        tl.record(0, EventCategory.ALLTOALL_FWD, 1.0, 1.0, stream=COMM_STREAM,
                  release_edges=[1, 0])
        dag = TimelineDag.from_timeline(tl)
        assert dag.release_edges(2) == (0,)
        assert [s.event_index for s in dag.critical_path().steps] == [0, 2]


FIG12_CONFIGS = [
    # (ranks, chunks, seed) — the Fig.-12-like sweep configurations
    (4, 4, 12),
    (8, 4, 12),
    (6, 2, 3),
    (8, 8, 99),
]


class TestSpeedupIf:
    @pytest.mark.parametrize("n,chunks,seed", FIG12_CONFIGS)
    @pytest.mark.parametrize("category,factor", [
        (EventCategory.COMPRESS, 2.0),
        (EventCategory.COMPRESS, 4.0),
        (EventCategory.DECOMPRESS, 2.0),
        (EventCategory.COMPRESS, 0.5),  # slowdown
    ])
    def test_prediction_within_5pct_of_resimulation(
        self, n, chunks, seed, category, factor
    ):
        network = NetworkModel(bandwidth=1e9, latency=1e-6)
        compress, decompress, sizes = _workload(n, seed)
        sim = _run(network, compress, decompress, sizes, chunks)
        estimate = TimelineDag.from_timeline(sim.timeline).speedup_if(
            category, factor
        )
        scaled_c = [
            c / factor if category == EventCategory.COMPRESS else c
            for c in compress
        ]
        scaled_d = [
            d / factor if category == EventCategory.DECOMPRESS else d
            for d in decompress
        ]
        actual = _run(network, scaled_c, scaled_d, sizes, chunks).makespan()
        assert estimate.baseline_makespan == sim.makespan()
        assert estimate.predicted_makespan == pytest.approx(actual, rel=0.05)

    @given(
        fabric_and_ranks(),
        st.integers(0, 10_000),
        st.integers(1, 5),
        st.sampled_from([0.5, 2.0, 4.0]),
        st.sampled_from([EventCategory.COMPRESS, EventCategory.DECOMPRESS]),
    )
    @settings(max_examples=25, deadline=None)
    def test_prediction_matches_resimulation_randomized(
        self, fabric, seed, chunks, factor, category
    ):
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        sim = _run(network, compress, decompress, sizes, chunks)
        estimate = TimelineDag.from_timeline(sim.timeline).speedup_if(
            category, factor
        )
        scaled_c = [
            c / factor if category == EventCategory.COMPRESS else c
            for c in compress
        ]
        scaled_d = [
            d / factor if category == EventCategory.DECOMPRESS else d
            for d in decompress
        ]
        actual = _run(network, scaled_c, scaled_d, sizes, chunks).makespan()
        assert estimate.predicted_makespan == pytest.approx(actual, rel=0.05)

    def test_identity_factor_reproduces_makespan(self):
        compress, decompress, sizes = _workload(5, seed=21)
        sim = _run(NetworkModel(bandwidth=5e9, latency=1e-6),
                   compress, decompress, sizes, 3)
        dag = TimelineDag.from_timeline(sim.timeline)
        assert dag.reschedule(lambda e: 1.0) == pytest.approx(
            sim.makespan(), rel=1e-9
        )
        estimate = dag.speedup_if(EventCategory.COMPRESS, 1.0)
        assert estimate.predicted_makespan == pytest.approx(
            sim.makespan(), rel=1e-9
        )
        assert estimate.speedup == pytest.approx(1.0, rel=1e-9)

    def test_speeding_up_compress_never_hurts(self):
        compress, decompress, sizes = _workload(6, seed=8)
        sim = _run(NetworkModel(bandwidth=1e9, latency=1e-6),
                   compress, decompress, sizes, 4)
        dag = TimelineDag.from_timeline(sim.timeline)
        estimate = dag.speedup_if(EventCategory.COMPRESS, 3.0)
        assert estimate.predicted_makespan <= dag.makespan * (1 + 1e-9)
        assert estimate.speedup >= 1.0 - 1e-9

    def test_invalid_factor_rejected(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        dag = TimelineDag.from_timeline(tl)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                dag.speedup_if(EventCategory.COMPRESS, bad)

    def test_invalid_scale_rejected(self):
        tl = Timeline()
        tl.record(0, EventCategory.COMPRESS, 0.0, 1.0)
        dag = TimelineDag.from_timeline(tl)
        with pytest.raises(ValueError):
            dag.reschedule(lambda e: -0.5)


class TestRendering:
    def _result(self) -> CriticalPathResult:
        compress, decompress, sizes = _workload(4, seed=17)
        sim = _run(NetworkModel(bandwidth=1e9, latency=1e-6),
                   compress, decompress, sizes, 3)
        return extract_critical_path(sim.timeline)

    def test_report_table(self):
        result = self._result()
        text = critical_path_report(result, title="My path")
        assert "My path" in text
        assert f"{result.makespan:.6f}" in text
        assert "compress" in text
        assert "share" in text

    def test_highlight_lane_entries(self):
        result = self._result()
        entries = highlight_trace_events(
            result, pid=2, offset_seconds=1.0, process_name="train"
        )
        metas = [e for e in entries if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"train", "critical path"}
        xs = [e for e in entries if e["ph"] == "X"]
        assert len(xs) == len(result.steps)
        for entry, step in zip(xs, result.steps):
            assert entry["cat"] == "critpath"
            assert entry["pid"] == 2
            assert entry["ts"] == pytest.approx(step.start * 1e6 + 1e6)
            assert entry["dur"] == pytest.approx(step.seconds * 1e6)
            assert entry["args"]["event_index"] == step.event_index

    def test_json_block_shape(self):
        result = self._result()
        block = report_json_block({"train": result})
        doc = block["train"]
        assert doc["makespan"] == result.makespan
        seconds = [row["seconds"] for row in doc["attribution"]]
        assert seconds == sorted(seconds, reverse=True)
        assert sum(seconds) == pytest.approx(result.makespan, rel=1e-9)
        assert len(doc["steps"]) == len(result.steps)
        assert all(
            {"event_index", "rank", "stream", "category", "start", "end"}
            == set(step)
            for step in doc["steps"]
        )

    def test_step_seconds_property(self):
        step = CriticalStep(
            event_index=3, rank=0, stream="compute",
            category="compress", start=1.0, end=2.5,
        )
        assert step.seconds == pytest.approx(1.5)
