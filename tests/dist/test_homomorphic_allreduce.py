"""Timing and numerics laws of ``Communicator.compressed_all_reduce``.

The homomorphic all-reduce's pitch is structural: payloads aggregate in
compressed space, so the reduction pays codec time once at the leaves and
once at the end, never per hop.  These Hypothesis laws pin that pitch over
randomized fabrics (flat alpha-beta models and heterogeneous topologies,
including oversubscribed inter links and switch-aggregation fabrics):

* codec time is paid once at the leaves and once at the end: the makespan
  is the codec-free one plus the encode and decode seconds, whatever the
  hop count;
* the makespan is monotone non-decreasing in the rank count;
* ``algorithm="switch"`` on a fabric *without* aggregation nodes is
  *exactly* the hierarchical schedule — bit-equal makespans (the
  degeneracy law), and the single-rank collective is free;
* numerics ride along: ``count_sum`` totals are bit-identical to
  correctly-rounded sums on every fabric and algorithm, and the obs
  counters account aggregated bytes and saved hops.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    IB_HDR_LIKE,
    NVLINK_LIKE,
    PCIE_LIKE,
    ClusterSimulator,
    NetworkModel,
    Topology,
)

ALGORITHMS = ("ring", "hierarchical", "switch")


@st.composite
def fabric_and_ranks(draw):
    """A sampled fabric plus its rank count, switch-aggregation included."""
    kind = draw(st.sampled_from(["flat", "hier", "switch"]))
    if kind == "flat":
        n = draw(st.integers(min_value=2, max_value=6))
        bandwidth = draw(st.floats(min_value=1e8, max_value=1e11))
        latency = draw(st.floats(min_value=0.0, max_value=1e-5))
        return NetworkModel(bandwidth=bandwidth, latency=latency), n
    n_nodes, gpus = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]))
    intra = draw(st.sampled_from([NVLINK_LIKE, PCIE_LIKE]))
    inter = draw(
        st.sampled_from([IB_HDR_LIKE, PCIE_LIKE, IB_HDR_LIKE.oversubscribed(4.0)])
    )
    topology = Topology.hierarchical(
        n_nodes, gpus, intra, inter, switch_aggregation=(kind == "switch")
    )
    return NetworkModel.from_topology(topology), n_nodes * gpus


def _arrays(n: int, seed: int, size: int = 257) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.asarray(rng.normal(0.0, 2.0, size=size), dtype=np.float32)
        for _ in range(n)
    ]


def _makespan(network, arrays, **kwargs) -> float:
    sim = ClusterSimulator(len(arrays), network=network)
    sim.comm.compressed_all_reduce(arrays, **kwargs)
    return sim.makespan()


class TestMakespanLaws:
    @settings(max_examples=40, deadline=None)
    @given(
        fabric_and_ranks(),
        st.sampled_from(ALGORITHMS),
        st.sampled_from(["count_sum", "quant_sum"]),
        st.integers(0, 2**31),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2e-3)),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2e-3)),
    )
    def test_codec_time_is_paid_once_not_per_hop(
        self, fabric, algorithm, codec, seed, enc, dec
    ):
        network, n = fabric
        arrays = _arrays(n, seed)
        kwargs = dict(codec=codec, error_bound=1e-3, algorithm=algorithm)
        wire_only = _makespan(network, arrays, **kwargs)
        with_codec = _makespan(
            network, arrays, encode_seconds=[enc] * n, decode_seconds=[dec] * n, **kwargs
        )
        assert with_codec == pytest.approx(wire_only + enc + dec, rel=1e-12, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from(["count_sum", "quant_sum"]))
    def test_monotone_in_rank_count(self, seed, codec):
        network = NetworkModel(bandwidth=1e9, latency=1e-6)
        rng = np.random.default_rng(seed)
        base = np.asarray(rng.normal(0.0, 2.0, size=129), dtype=np.float32)
        makespans = []
        for n in (1, 2, 4, 8):
            makespans.append(
                _makespan(
                    network,
                    [base.copy() for _ in range(n)],
                    codec=codec,
                    error_bound=1e-3,
                )
            )
        assert makespans == sorted(makespans)
        assert makespans[0] == 0.0  # single rank: nothing on the wire

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([(2, 2), (2, 4), (4, 2), (3, 2)]),
        st.sampled_from([IB_HDR_LIKE, PCIE_LIKE, IB_HDR_LIKE.oversubscribed(4.0)]),
        st.integers(0, 2**31),
        st.sampled_from(["count_sum", "quant_sum"]),
    )
    def test_switch_degenerates_exactly_without_aggregation(
        self, layout, inter, seed, codec
    ):
        n_nodes, gpus = layout
        n = n_nodes * gpus
        plain = NetworkModel.from_topology(
            Topology.hierarchical(n_nodes, gpus, NVLINK_LIKE, inter)
        )
        arrays = _arrays(n, seed)
        kwargs = dict(codec=codec, error_bound=1e-3, encode_seconds=[1e-4] * n)
        switch = _makespan(plain, arrays, algorithm="switch", **kwargs)
        hierarchical = _makespan(plain, arrays, algorithm="hierarchical", **kwargs)
        assert switch == hierarchical

    def test_switch_aggregation_beats_hierarchical_when_latency_bound(self):
        """Small payload, many ranks: 4 latency terms beat 2(g-1)+2(N-1)."""
        base = Topology.hierarchical(4, 8, NVLINK_LIKE, IB_HDR_LIKE)
        n = 32
        arrays = _arrays(n, 0, size=16)
        plain = _makespan(
            NetworkModel.from_topology(base),
            arrays,
            codec="count_sum",
            algorithm="hierarchical",
        )
        switched = _makespan(
            NetworkModel.from_topology(
                Topology.hierarchical(4, 8, NVLINK_LIKE, IB_HDR_LIKE, switch_aggregation=True)
            ),
            arrays,
            codec="count_sum",
            algorithm="switch",
        )
        assert switched < plain


class TestNumericsOnFabrics:
    @settings(max_examples=25, deadline=None)
    @given(fabric_and_ranks(), st.sampled_from(ALGORITHMS), st.integers(0, 2**31))
    def test_count_sum_bit_identical_everywhere(self, fabric, algorithm, seed):
        network, n = fabric
        arrays = _arrays(n, seed, size=37)
        sim = ClusterSimulator(n, network=network)
        results = sim.comm.compressed_all_reduce(
            arrays, codec="count_sum", algorithm=algorithm
        )
        expected = np.array(
            [math.fsum(float(a[i]) for a in arrays) for i in range(37)],
            dtype=np.float64,
        ).astype(np.float32)
        for result in results:
            np.testing.assert_array_equal(result, expected)

    @settings(max_examples=25, deadline=None)
    @given(fabric_and_ranks(), st.integers(0, 2**31))
    def test_quant_sum_within_composed_bound(self, fabric, seed):
        network, n = fabric
        eb = 1e-3
        arrays = _arrays(n, seed, size=37)
        sim = ClusterSimulator(n, network=network)
        results = sim.comm.compressed_all_reduce(
            arrays, codec="quant_sum", error_bound=eb
        )
        exact = np.sum([a.astype(np.float64) for a in arrays], axis=0)
        for result in results:
            assert np.max(np.abs(result.astype(np.float64) - exact)) <= n * eb * (
                1 + 1e-9
            ) + 1e-12

    def test_single_rank_is_identity(self):
        sim = ClusterSimulator(1)
        table = np.asarray([[1.25, -3.5, 0.0]], dtype=np.float32)
        (result,) = sim.comm.compressed_all_reduce([table], codec="count_sum")
        np.testing.assert_array_equal(result, table)
        assert sim.makespan() == 0.0

    def test_validation_errors(self):
        sim = ClusterSimulator(2)
        table = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="expected 2 arrays"):
            sim.comm.compressed_all_reduce([table])
        with pytest.raises(ValueError, match="share a shape"):
            sim.comm.compressed_all_reduce([table, np.ones((3, 2), np.float32)])
        with pytest.raises(ValueError, match="homomorphic"):
            sim.comm.compressed_all_reduce([table, table], codec="hybrid")
        with pytest.raises(ValueError, match="algorithm"):
            sim.comm.compressed_all_reduce([table, table], algorithm="mesh")

    def test_mixed_dtypes_rejected(self):
        sim = ClusterSimulator(2)
        table = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"share a dtype, got \['float32', 'float64'\]"):
            sim.comm.compressed_all_reduce([table, table.astype(np.float64)])


class TestObsCounters:
    def test_aggregated_bytes_and_hops_saved(self):
        from repro.obs.runtime import capture

        n = 4
        sim = ClusterSimulator(n)
        arrays = _arrays(n, 3, size=64)
        with capture() as registry:
            sim.comm.compressed_all_reduce(arrays, codec="count_sum")
            sim.comm.compressed_all_reduce(arrays, codec="count_sum")
            snapshot = registry.snapshot()
        aggregated = snapshot.counter_value(
            "comm_homomorphic_aggregated_bytes_total",
            codec="count_sum",
            algorithm="ring",
        )
        hops_saved = snapshot.counter_value(
            "comm_homomorphic_hops_saved_total",
            codec="count_sum",
            algorithm="ring",
        )
        assert aggregated > 0
        assert hops_saved == 2 * (n - 1)  # every call saves n - 1 round-trips
