"""Critical-path analysis: conservation law, what-ifs, rendering.

The two acceptance properties of ``repro.obs.critpath``:

* **Conservation** — over randomized fabrics, workloads, and chunk
  counts, the critical-path steps tile ``[0, makespan]`` exactly, so
  ``attribution_exact()`` (done in :class:`fractions.Fraction`) sums to
  ``Fraction(makespan)`` identically — no float luck.
* **Exactness** — the simulator records every dependency it creates, so
  on any fault-free program ``reschedule(lambda e: 1.0)`` reproduces the
  makespan exactly, and ``speedup_if(category, factor)`` equals actually
  re-running the program with that category's seconds scaled (to float
  rounding: the DAG multiplies by ``1/factor`` where the re-run divides).
"""

from __future__ import annotations

import ast
import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    COMM_STREAM,
    IB_HDR_LIKE,
    NVLINK_LIKE,
    PCIE_LIKE,
    ClusterSimulator,
    EventCategory,
    NetworkModel,
    Timeline,
    Topology,
)
from repro.obs import critpath
from repro.obs.critpath import (
    HIGHLIGHT_TID,
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
    def test_prediction_matches_resimulation(
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
        assert estimate.predicted_makespan == pytest.approx(actual, rel=1e-9)

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
        assert estimate.predicted_makespan == pytest.approx(actual, rel=1e-9)

    def test_identity_factor_reproduces_makespan(self):
        compress, decompress, sizes = _workload(5, seed=21)
        sim = _run(NetworkModel(bandwidth=5e9, latency=1e-6),
                   compress, decompress, sizes, 3)
        dag = TimelineDag.from_timeline(sim.timeline)
        assert dag.reschedule(lambda e: 1.0) == sim.makespan()
        estimate = dag.speedup_if(EventCategory.COMPRESS, 1.0)
        assert estimate.predicted_makespan == sim.makespan()
        assert estimate.speedup == 1.0

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
        entries = highlight_trace_events(result, pid=2, offset_seconds=1.0)
        metas = [e for e in entries if e["ph"] == "M"]
        assert [m["args"]["name"] for m in metas] == ["critical path"]
        xs = [e for e in entries if e["ph"] == "X"]
        assert len(xs) == len(result.steps)
        for entry, step in zip(xs, result.steps):
            assert entry["cat"] == "critpath"
            assert entry["pid"] == 2
            assert entry["ts"] == pytest.approx(step.start * 1e6 + 1e6)
            assert entry["dur"] == pytest.approx(step.seconds * 1e6)
            assert entry["args"]["event_index"] == step.event_index

    def test_highlight_lane_is_one_thread(self):
        result = self._result()
        entries = highlight_trace_events(result)
        assert {e["tid"] for e in entries} == {HIGHLIGHT_TID}
        assert {e["pid"] for e in entries} == {0}
        assert [e["name"] for e in entries if e["ph"] == "M"] == ["thread_name"]

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


# ---------------------------------------------------------------- exactness


class _ScaledNetwork:
    """``network`` with each collective kind's time divided by the factor
    of the category it is charged under (the metadata round, every
    all-to-all wire, the all-reduce)."""

    def __init__(self, network: NetworkModel, scale: dict[str, float]):
        self.topology = network.topology
        self._network, self._scale = network, scale

    def all_to_all_time(self, byte_matrix):
        return self._network.all_to_all_time(byte_matrix) / self._scale.get("alltoall_fwd", 1.0)

    def uniform_all_to_all_time(self, nbytes_per_pair, n_ranks):
        seconds = self._network.uniform_all_to_all_time(nbytes_per_pair, n_ranks)
        return seconds / self._scale.get("metadata", 1.0)

    def all_reduce_time(self, nbytes, n_ranks):
        return self._network.all_reduce_time(nbytes, n_ranks) / self._scale.get("allreduce", 1.0)


OPS = [
    "compute", "kernels", "comm", "aux", "sync", "barrier", "collective", "exchange", "bytes",
    "allreduce",
]
#: every category a program below charges
CATEGORIES = [
    "bottom_mlp_fwd", "bottom_mlp_bwd", "optimizer", "alltoall_bwd", "retry",
    "allreduce", "compress", "decompress", "metadata", "alltoall_fwd",
]


def _program(ops: list[str], n: int, seed: int) -> list[tuple]:
    """A fault-free program: each op with its seeded arguments."""
    rng = np.random.default_rng(seed)

    def seconds(size=None, zero=0.3):
        values = rng.uniform(1e-5, 1e-3, size=size)
        return np.where(rng.random(size) < zero, 0.0, values).tolist() if size else float(values)

    program = []
    for op in ops:
        rank = int(rng.integers(0, n))
        if op in ("compute", "kernels"):  # kernels: one equal-cost kernel per rank
            category = str(rng.choice(["bottom_mlp_fwd", "bottom_mlp_bwd", "optimizer"]))
            program.append((op, rank, seconds(), category))
        elif op in ("comm", "aux"):
            program.append((op, rank, seconds(), str(rng.choice(["alltoall_bwd", "optimizer"]))))
        elif op == "sync":
            program.append((op, rank))
        elif op == "collective":
            program.append((op, seconds(), str(rng.choice(["allreduce", "retry"]))))
        elif op == "exchange":
            program.append((
                op, rng.integers(0, 40_000, size=(n, n)).tolist(), seconds(n), seconds(n),
                bool(rng.integers(0, 2)), rng.integers(1, 5, size=n).tolist(), seconds(n, 0.6),
            ))
        elif op == "bytes":
            program.append((op, rng.integers(0, 1 << 16, size=(n, n)), seconds(n, 0.5)))
        elif op == "allreduce":
            program.append((op, int(rng.integers(1, 1 << 18))))
        else:
            program.append((op,))
    return program


def _execute(program, network, n, scale=None) -> ClusterSimulator:
    """Run ``program``, each category's seconds divided by ``scale[category]``."""
    scale = scale or {}

    def scaled(values, category):
        factor = scale.get(category, 1.0)
        return [v / factor for v in values] if isinstance(values, list) else values / factor

    sim = ClusterSimulator(n, network=_ScaledNetwork(network, scale))
    for op, *a in program:
        if op == "compute":
            sim.compute(a[0], scaled(a[1], a[2]), a[2])
        elif op == "kernels":
            for rank in range(n):
                sim.compute(rank, scaled(a[1], a[2]), a[2])
        elif op in ("comm", "aux"):
            stream = COMM_STREAM if op == "comm" else "aux"
            sim.stream_compute(a[0], scaled(a[1], a[2]), a[2], stream)
        elif op == "sync":
            sim.sync(a[0])
        elif op == "barrier":
            sim.barrier()
        elif op == "collective":
            sim.collective(scaled(a[0], a[1]), a[1])
        elif op == "exchange":
            sizes, compress, decompress, overlap, chunks, overlap_compute = a
            sim.comm.compressed_all_to_all(
                [[b"x" * size for size in row] for row in sizes],
                overlap=overlap,
                compress_seconds=scaled(compress, "compress"),
                decompress_seconds=scaled(decompress, "decompress"),
                chunks_per_rank=chunks,
                overlap_compute_seconds=scaled(overlap_compute, "bottom_mlp_bwd"),
            )
        elif op == "bytes":
            sim.comm.all_to_all_bytes(
                a[0], overlap_compute_seconds=scaled(a[1], "bottom_mlp_bwd")
            )
        else:
            sim.comm.all_reduce_bytes(a[0])
    return sim


class TestExactness:
    """What-ifs are exact by construction on simulator ledgers: every
    dependency is a recorded edge or a same-lane predecessor."""

    @given(
        fabric_and_ranks(),
        st.lists(st.sampled_from(OPS), min_size=1, max_size=9),
        st.integers(0, 10_000),
        st.sampled_from(CATEGORIES),
        st.sampled_from([0.25, 0.5, 2.0, 3.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_identity_and_what_if_equal_a_rerun(self, fabric, ops, seed, category, factor):
        network, n = fabric
        program = _program(ops, n, seed)
        sim = _execute(program, network, n)
        dag = TimelineDag.from_timeline(sim.timeline)
        assert dag.reschedule(lambda e: 1.0) == sim.makespan()
        predicted = dag.speedup_if(category, factor).predicted_makespan
        rerun = _execute(program, network, n, {category: factor}).makespan()
        assert predicted == pytest.approx(rerun, rel=1e-9)

    def test_equal_cost_kernels_are_not_a_collective(self):
        """Back-to-back equal-cost kernels on distinct ranks are not a
        barrier: the long comm event on rank 0 sets the makespan alone."""
        sim = ClusterSimulator(3)
        sim.stream_compute(0, 10.0, EventCategory.ALLTOALL_BWD, COMM_STREAM)
        for seconds in (1.0, 2.0):
            for rank in range(3):
                sim.compute(rank, seconds, "compute")
        dag = TimelineDag.from_timeline(sim.timeline)
        assert sim.makespan() == 10.0
        assert dag.reschedule(lambda e: 1.0) == 10.0
        assert dag.speedup_if(EventCategory.ALLTOALL_BWD, 2.0).predicted_makespan == 5.0

    def test_request_keeps_its_arrival_floor(self):
        """A request arriving at an idle replica just as another replica's
        request ends was not released by it: its arrival stays a floor."""
        timeline = Timeline()
        timeline.record(0, EventCategory.SERVE_REQUEST, 0.0, 1.0, stream="replica")
        timeline.record(1, EventCategory.SERVE_REQUEST, 1.0, 1.0, stream="replica")
        dag = TimelineDag.from_timeline(timeline)
        assert dag.speedup_if(EventCategory.SERVE_REQUEST, 2.0).predicted_makespan == 1.5
        steps = dag.critical_path().steps
        assert [(s.event_index, s.category) for s in steps] == [(None, IDLE_CATEGORY), (1, "serve_request")]

    def test_analyser_infers_no_dependency(self):
        """The analyser reads recorded edges and the same-lane predecessor
        only: no barrier groups, no joins on coincident ends."""
        tree = ast.parse(inspect.getsource(critpath))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        inferred = {"_ending_at", "searchsorted", "group", "group_start", "joins", "_by_end"}
        assert not names & inferred
