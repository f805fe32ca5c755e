"""Timing and numerics laws of ``Communicator.compressed_all_reduce``.

The homomorphic all-reduce's pitch is structural: payloads aggregate in
compressed space, so the reduction pays codec time once at the leaves and
once at the end, never per hop.  These Hypothesis laws pin that pitch over
randomized fabrics (flat alpha-beta models and heterogeneous topologies,
including oversubscribed inter links), under every schedule:

* codec time is paid once at the leaves and once at the end: the makespan
  is the codec-free one plus the encode and decode seconds, whatever the
  hop count;
* the makespan is monotone non-decreasing in the rank count, and the
  single-rank collective is free;
* the in-network ``"switch"`` tree beats the hierarchical schedule when
  the payload is latency-bound;
* numerics ride along: on inputs that sit on the codec's grid the totals
  are bit-identical to the exact sums on every fabric and algorithm, and
  the obs counters account aggregated bytes and saved hops;
* a refused call charges nothing.
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
from repro.dist.network import ALLREDUCE_ALGORITHMS as ALGORITHMS

#: error bound of the grid-aligned laws: every value ``k * 2**-9`` sits on
#: the grid ``2 * EB``, so it encodes to the code ``k`` with no rounding
EB = 2.0**-10


@st.composite
def fabric_and_ranks(draw):
    """A sampled fabric plus its rank count."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=6))
        bandwidth = draw(st.floats(min_value=1e8, max_value=1e11))
        latency = draw(st.floats(min_value=0.0, max_value=1e-5))
        return NetworkModel(bandwidth=bandwidth, latency=latency), n
    n_nodes, gpus = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]))
    intra = draw(st.sampled_from([NVLINK_LIKE, PCIE_LIKE]))
    inter = draw(
        st.sampled_from([IB_HDR_LIKE, PCIE_LIKE, IB_HDR_LIKE.oversubscribed(4.0)])
    )
    topology = Topology.hierarchical(n_nodes, gpus, intra, inter)
    return NetworkModel.from_topology(topology), n_nodes * gpus


def _arrays(n: int, seed: int, size: int = 257) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.asarray(rng.normal(0.0, 2.0, size=size), dtype=np.float32)
        for _ in range(n)
    ]


def _grid_arrays(n: int, seed: int, size: int = 37) -> list[np.ndarray]:
    """``n`` arrays of grid values ``k * 2 * EB`` with ``|k| < 1000``: every
    partial sum is exact in float32, so the all-reduce must be too."""
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(-999, 1000, size=size) * (2 * EB)).astype(np.float32)
        for _ in range(n)
    ]


_TABLE = np.ones((2, 2), dtype=np.float32)

#: refused two-rank calls -> (arrays, keyword arguments, error)
REFUSALS = {
    "one array": ([_TABLE], {"error_bound": EB}, "expected 2 arrays"),
    "two shapes": ([_TABLE, np.ones((3, 2), np.float32)], {"error_bound": EB}, "share a shape"),
    "two dtypes": ([_TABLE, _TABLE.astype(np.float64)], {"error_bound": EB}, "share a dtype"),
    "unknown algorithm": ([_TABLE, _TABLE], {"error_bound": EB, "algorithm": "mesh"}, "algorithm"),
    **{
        f"error_bound={bound}": (
            [_TABLE, _TABLE],
            {"error_bound": bound},
            "finite, positive error_bound",
        )
        for bound in (math.inf, math.nan, -EB, 0.0)
    },
}


def _makespan(network, arrays, **kwargs) -> float:
    sim = ClusterSimulator(len(arrays), network=network)
    sim.comm.compressed_all_reduce(arrays, **kwargs)
    return sim.makespan()


class TestMakespanLaws:
    @settings(max_examples=40, deadline=None)
    @given(
        fabric_and_ranks(),
        st.sampled_from(ALGORITHMS),
        st.integers(0, 2**31),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2e-3)),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2e-3)),
    )
    def test_codec_time_is_paid_once_not_per_hop(self, fabric, algorithm, seed, enc, dec):
        network, n = fabric
        arrays = _arrays(n, seed)
        kwargs = dict(error_bound=1e-3, algorithm=algorithm)
        wire_only = _makespan(network, arrays, **kwargs)
        with_codec = _makespan(
            network, arrays, encode_seconds=[enc] * n, decode_seconds=[dec] * n, **kwargs
        )
        assert with_codec == pytest.approx(wire_only + enc + dec, rel=1e-12, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_monotone_in_rank_count(self, seed):
        network = NetworkModel(bandwidth=1e9, latency=1e-6)
        rng = np.random.default_rng(seed)
        base = np.asarray(rng.normal(0.0, 2.0, size=129), dtype=np.float32)
        makespans = []
        for n in (1, 2, 4, 8):
            makespans.append(
                _makespan(
                    network,
                    [base.copy() for _ in range(n)],
                    error_bound=1e-3,
                )
            )
        assert makespans == sorted(makespans)
        assert makespans[0] == 0.0  # single rank: nothing on the wire

    def test_switch_tree_beats_hierarchical_when_latency_bound(self):
        """Small payload, many ranks: 4 latency terms beat 2(g-1)+2(N-1)."""
        network = NetworkModel.from_topology(
            Topology.hierarchical(4, 8, NVLINK_LIKE, IB_HDR_LIKE)
        )
        arrays = _arrays(32, 0, size=16)
        plain = _makespan(network, arrays, error_bound=EB, algorithm="hierarchical")
        switched = _makespan(network, arrays, error_bound=EB, algorithm="switch")
        assert switched < plain


class TestNumericsOnFabrics:
    @settings(max_examples=25, deadline=None)
    @given(fabric_and_ranks(), st.sampled_from(ALGORITHMS), st.integers(0, 2**31))
    def test_grid_values_bit_identical_everywhere(self, fabric, algorithm, seed):
        network, n = fabric
        arrays = _grid_arrays(n, seed)
        sim = ClusterSimulator(n, network=network)
        results = sim.comm.compressed_all_reduce(arrays, EB, algorithm=algorithm)
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
        results = sim.comm.compressed_all_reduce(arrays, eb)
        exact = np.sum([a.astype(np.float64) for a in arrays], axis=0)
        for result in results:
            assert np.max(np.abs(result.astype(np.float64) - exact)) <= n * eb * (
                1 + 1e-9
            ) + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(fabric_and_ranks(), st.sampled_from(ALGORITHMS), st.integers(0, 2**31))
    def test_float64_grid_values_bit_identical_everywhere(self, fabric, algorithm, seed):
        """float64 inputs come back float64, exact for grid codes up to 2**40
        (every partial sum stays below 2**53)."""
        network, n = fabric
        rng = np.random.default_rng(seed)
        arrays = [rng.integers(-(2**40), 2**40, size=37) * (2 * EB) for _ in range(n)]
        results = ClusterSimulator(n, network=network).comm.compressed_all_reduce(
            arrays, EB, algorithm=algorithm
        )
        expected = np.array([math.fsum(float(a[i]) for a in arrays) for i in range(37)])
        for result in results:
            assert result.dtype == np.float64
            np.testing.assert_array_equal(result, expected)

    def test_every_algorithm_decodes_the_same_totals(self):
        """The schedule prices the wire; the totals are one fold's decode."""
        arrays = _arrays(4, 7, size=61)
        totals = {
            algorithm: ClusterSimulator(4).comm.compressed_all_reduce(
                arrays, 1e-3, algorithm=algorithm
            )[0].tobytes()
            for algorithm in ALGORITHMS
        }
        assert len(set(totals.values())) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_rank_is_identity(self, algorithm, dtype):
        sim = ClusterSimulator(1)
        table = np.asarray([[1.25, -3.5, 0.0]], dtype=dtype)
        (result,) = sim.comm.compressed_all_reduce([table], EB, algorithm=algorithm)
        assert result.dtype == dtype
        np.testing.assert_array_equal(result, table)
        assert sim.makespan() == 0.0

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_a_refused_call_charges_nothing(self, case):
        """Every argument is checked before anything is charged: a refused
        all-reduce leaves the ledger empty and the clocks at 0."""
        sim = ClusterSimulator(2)
        arrays, kwargs, match = REFUSALS[case]
        with pytest.raises(ValueError, match=match):
            sim.comm.compressed_all_reduce(arrays, **kwargs)
        assert len(sim.timeline) == 0
        assert sim.makespan() == 0.0

    def test_validation_errors(self):
        sim = ClusterSimulator(2)
        table = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="expected 2 arrays"):
            sim.comm.compressed_all_reduce([table], EB)
        with pytest.raises(ValueError, match="share a shape"):
            sim.comm.compressed_all_reduce([table, np.ones((3, 2), np.float32)], EB)
        with pytest.raises(ValueError, match="algorithm"):
            sim.comm.compressed_all_reduce([table, table], EB, algorithm="mesh")
        with pytest.raises(ValueError, match="finite, positive error_bound"):
            sim.comm.compressed_all_reduce([table, table], 0.0)

    def test_mixed_dtypes_rejected(self):
        sim = ClusterSimulator(2)
        table = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"share a dtype, got \['float32', 'float64'\]"):
            sim.comm.compressed_all_reduce([table, table.astype(np.float64)], EB)


class TestObsCounters:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_aggregated_bytes_and_hops_saved(self, algorithm):
        from repro.compression import get_compressor
        from repro.obs.runtime import capture

        n = 4
        sim = ClusterSimulator(n)
        arrays = _arrays(n, 3, size=64)
        with capture() as registry:
            sim.comm.compressed_all_reduce(arrays, EB, algorithm=algorithm)
            sim.comm.compressed_all_reduce(arrays, EB, algorithm=algorithm)
            snapshot = registry.snapshot()
        aggregated = snapshot.counter_value(
            "comm_homomorphic_aggregated_bytes_total",
            codec="quant_sum",
            algorithm=algorithm,
        )
        hops_saved = snapshot.counter_value(
            "comm_homomorphic_hops_saved_total",
            codec="quant_sum",
            algorithm=algorithm,
        )
        codec = get_compressor("quant_sum")
        leaf_bytes = sum(len(codec.compress(a.reshape(1, -1), EB)) for a in arrays)
        assert aggregated == 2 * leaf_bytes  # every call sums each leaf once
        assert hops_saved == 2 * (n - 1)  # every call saves n - 1 round-trips
