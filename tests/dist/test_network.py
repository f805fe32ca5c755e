"""Tests for the alpha-beta network cost model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    IB_HDR_LIKE,
    NVLINK_LIKE,
    PAPER_FABRIC,
    LinkSpec,
    NetworkModel,
    Topology,
)


def uniform_matrix(n: int, nbytes: float) -> np.ndarray:
    return np.full((n, n), nbytes, dtype=np.float64)


#: every byte-priced collective, on the flat alpha-beta model and on a
#: topology, called with a negative byte count
NEGATIVE_BYTES = {
    "flat_uniform_all_to_all": lambda: NetworkModel().uniform_all_to_all_time(-1.0, 4),
    "flat_all_reduce": lambda: NetworkModel().all_reduce_time(-1.0, 4),
    "flat_hierarchical_all_reduce": lambda: NetworkModel().hierarchical_all_reduce_time(-1.0, 4),
    "flat_switch_all_reduce": lambda: NetworkModel().switch_all_reduce_time(-1.0, 4),
    "topology_ring_all_reduce": lambda: Topology.hierarchical(2, 2).ring_all_reduce_time(-1.0),
    "topology_hierarchical_all_reduce": (
        lambda: Topology.hierarchical(2, 2).hierarchical_all_reduce_time(-1.0)
    ),
    "topology_switch_all_reduce": lambda: Topology.hierarchical(2, 2).switch_all_reduce_time(-1.0),
    "topology_all_reduce_inter_bytes": (
        lambda: Topology.hierarchical(2, 2).all_reduce_inter_bytes(-1.0)
    ),
}


class TestNetworkModel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0.0)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=1e9, latency=-1.0)

    @pytest.mark.parametrize("case", sorted(NEGATIVE_BYTES))
    def test_negative_bytes_rejected(self, case):
        with pytest.raises(ValueError, match=r"must be >= 0, got -1\.0"):
            NEGATIVE_BYTES[case]()

    def test_zero_bytes_cost_the_latency_terms_alone(self):
        """The alpha half of the alpha-beta model: an empty payload still
        pays one latency per ring or all-to-all step."""
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        assert net.uniform_all_to_all_time(0.0, 8) == pytest.approx(7e-6)
        assert net.all_reduce_time(0.0, 8) == pytest.approx(14e-6)
        assert net.all_to_all_time(np.zeros((8, 8))) == pytest.approx(7e-6)


class TestAllToAll:
    def test_bigger_payload_costs_more(self):
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        small = net.all_to_all_time(uniform_matrix(8, 1_000))
        large = net.all_to_all_time(uniform_matrix(8, 1_000_000))
        assert large > small

    def test_lower_bandwidth_costs_more(self):
        matrix = uniform_matrix(8, 1_000_000)
        fast = NetworkModel(bandwidth=10e9, latency=1e-6)
        slow = NetworkModel(bandwidth=1e9, latency=1e-6)
        assert slow.all_to_all_time(matrix) > fast.all_to_all_time(matrix)

    def test_diagonal_is_free(self):
        net = NetworkModel(bandwidth=1e9, latency=0.0)
        only_self = np.diag([1e9, 1e9, 1e9]).astype(float)
        assert net.all_to_all_time(only_self) == 0.0

    def test_bottlenecked_by_busiest_port(self):
        """One hot sender sets the pace even if everyone else is idle."""
        net = NetworkModel(bandwidth=1e9, latency=0.0)
        matrix = np.zeros((4, 4))
        matrix[2, :] = 1e9  # rank 2 sends 1 GB to everyone
        # 3 GB egress on rank 2 (self excluded) at 1 GB/s.
        assert net.all_to_all_time(matrix) == pytest.approx(3.0)

    def test_ingress_can_be_the_bottleneck(self):
        net = NetworkModel(bandwidth=1e9, latency=0.0)
        matrix = np.zeros((4, 4))
        matrix[:, 1] = 1e9  # everyone sends rank 1 a gigabyte
        assert net.all_to_all_time(matrix) == pytest.approx(3.0)

    def test_single_rank_is_free(self):
        assert NetworkModel().all_to_all_time(np.array([[123.0]])) == 0.0

    def test_latency_scales_with_cluster_size(self):
        net = NetworkModel(bandwidth=1e12, latency=1e-3)
        t4 = net.all_to_all_time(uniform_matrix(4, 1.0))
        t8 = net.all_to_all_time(uniform_matrix(8, 1.0))
        assert t8 > t4

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            NetworkModel().all_to_all_time(np.zeros((2, 3)))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel().all_to_all_time(np.full((2, 2), -1.0))

    def test_uniform_helper_matches_matrix_form(self):
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        n, per_pair = 8, 4096.0
        expected = net.all_to_all_time(uniform_matrix(n, per_pair))
        assert net.uniform_all_to_all_time(per_pair, n) == pytest.approx(expected)

    @given(
        st.integers(min_value=2, max_value=16),
        st.floats(min_value=1.0, max_value=1e9),
        st.floats(min_value=1e6, max_value=1e12),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_bytes_and_bandwidth(self, n, nbytes, bandwidth):
        net = NetworkModel(bandwidth=bandwidth, latency=1e-6)
        t = net.all_to_all_time(uniform_matrix(n, nbytes))
        assert t >= net.all_to_all_time(uniform_matrix(n, nbytes / 2))
        slower = NetworkModel(bandwidth=bandwidth / 2, latency=1e-6)
        assert slower.all_to_all_time(uniform_matrix(n, nbytes)) >= t


class TestAllReduce:
    def test_bigger_payload_costs_more(self):
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        assert net.all_reduce_time(1e8, 8) > net.all_reduce_time(1e6, 8)

    def test_lower_bandwidth_costs_more(self):
        slow = NetworkModel(bandwidth=1e9, latency=1e-6)
        fast = NetworkModel(bandwidth=4e9, latency=1e-6)
        assert slow.all_reduce_time(1e8, 8) > fast.all_reduce_time(1e8, 8)

    def test_ring_formula(self):
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        n, nbytes = 4, 1e9
        expected = 2 * 3 * 1e-6 + 2 * 3 / 4 * 1.0
        assert net.all_reduce_time(nbytes, n) == pytest.approx(expected)

    def test_single_rank_is_free(self):
        assert NetworkModel().all_reduce_time(1e9, 1) == 0.0

    def test_bandwidth_term_approaches_2x_volume(self):
        """Ring all-reduce moves ~2x the buffer regardless of scale."""
        net = NetworkModel(bandwidth=1e9, latency=0.0)
        assert net.all_reduce_time(1e9, 64) == pytest.approx(2 * 63 / 64, rel=1e-12)


class TestPaperFabric:
    def test_paper_effective_bandwidth(self):
        """The default fabric is the paper's 4 GB/s all-to-all setting."""
        assert PAPER_FABRIC.bandwidth == pytest.approx(4 * 1024**3)
        assert NetworkModel() == PAPER_FABRIC


class TestLinkSpec:
    def test_presets_are_ordered(self):
        assert NVLINK_LIKE.bandwidth > IB_HDR_LIKE.bandwidth
        assert NVLINK_LIKE.latency < IB_HDR_LIKE.latency

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0.0, latency=1e-6)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=1e9, latency=-1.0)


class TestTopology:
    def test_a_topology_model_is_a_usable_dict_key(self):
        """A topology compares and hashes by identity, so a frozen model
        carrying one stays hashable."""
        topo = Topology.hierarchical(2, 4)
        model = NetworkModel.from_topology(topo)
        assert {model: 1}[NetworkModel.from_topology(topo)] == 1
        assert topo == topo and topo != Topology.hierarchical(2, 4)

    def test_hierarchical_structure(self):
        topo = Topology.hierarchical(2, 4)
        assert topo.n_ranks == 8
        assert topo.n_nodes == 2
        assert topo.node_ids[0] == 0 and topo.node_ids[7] == 1
        assert topo.bandwidth_matrix[0, 1] == pytest.approx(NVLINK_LIKE.bandwidth)
        assert topo.bandwidth_matrix[0, 4] == pytest.approx(IB_HDR_LIKE.bandwidth)

    def test_from_topology_prices_through_the_topology(self):
        topo = Topology.hierarchical(2, 4, switch_aggregation=True)
        model = NetworkModel.from_topology(topo)
        assert model == NetworkModel(topology=topo)
        matrix = np.random.default_rng(2).integers(0, 1 << 20, size=(8, 8)).astype(np.float64)
        assert model.all_to_all_time(matrix) == topo.all_to_all_time(matrix)
        assert model.all_reduce_time(1e7, 8) == topo.ring_all_reduce_time(1e7)
        assert model.hierarchical_all_reduce_time(1e7, 8) == topo.hierarchical_all_reduce_time(1e7)
        assert model.switch_all_reduce_time(1e7, 8) == topo.switch_all_reduce_time(1e7)

    def test_flat_equals_single_fabric_model(self):
        """A single-link topology prices every collective like the flat
        alpha-beta model (uniform byte matrices)."""
        link = LinkSpec(bandwidth=1e9, latency=1e-6)
        topo = Topology.flat(8, link)
        model = NetworkModel.from_topology(topo)
        flat = NetworkModel(bandwidth=1e9, latency=1e-6)
        matrix = uniform_matrix(8, 12_345.0)
        assert model.all_to_all_time(matrix) == pytest.approx(flat.all_to_all_time(matrix))
        assert model.all_reduce_time(1e8, 8) == pytest.approx(flat.all_reduce_time(1e8, 8))

    def test_heterogeneous_all_to_all_larger_than_intra_flat(self):
        """Acceptance: NVLink+IB topology prices the same byte matrix
        strictly above a flat model built from the intra-node link."""
        topo = Topology.hierarchical(2, 4)
        hetero = NetworkModel.from_topology(topo)
        intra_flat = NetworkModel(
            bandwidth=NVLINK_LIKE.bandwidth, latency=NVLINK_LIKE.latency
        )
        rng = np.random.default_rng(5)
        matrix = rng.integers(1 << 16, 1 << 22, size=(8, 8)).astype(np.float64)
        assert hetero.all_to_all_time(matrix) > intra_flat.all_to_all_time(matrix)

    def test_phased_all_to_all_bottlenecked_by_slowest_phase_pair(self):
        """Each shift phase lasts as long as its slowest pair."""
        link = LinkSpec(bandwidth=1e9, latency=0.0)
        topo = Topology.flat(4, link)
        matrix = np.zeros((4, 4))
        matrix[2, 3] = 1e9  # phase 1 carries the only payload
        # 3 phases at zero latency; only phase 1 moves bytes.
        assert topo.all_to_all_time(matrix) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "topo",
        [
            Topology.flat(7, LinkSpec(bandwidth=3e9, latency=1.3e-6)),
            Topology.hierarchical(3, 4),
            Topology.hierarchical(16, 8, NVLINK_LIKE, IB_HDR_LIKE.oversubscribed(4)),
            Topology.hierarchical(1, 1),
        ],
        ids=["flat", "hierarchical", "oversubscribed", "single-rank"],
    )
    def test_all_to_all_equals_the_phase_loop_bit_for_bit(self, topo):
        """The one-gather form prices every exchange to the last bit of
        the definition: per shift phase the slowest pair, phases added
        left to right."""
        n = topo.n_ranks
        rng = np.random.default_rng(n)
        for matrix in (
            rng.integers(0, 1 << 22, size=(n, n)),
            rng.uniform(0.0, 1e7, size=(n, n)),
            np.full((n, n), 64.0),
            np.zeros((n, n)),
            rng.uniform(0.0, 1e7, size=(n, n)).T,  # non-contiguous input
        ):
            total = 0.0
            src = np.arange(n)
            for k in range(1, n):
                dst = (src + k) % n
                pair_time = (
                    topo.latency_matrix[src, dst]
                    + np.asarray(matrix, dtype=np.float64)[src, dst]
                    / topo.bandwidth_matrix[src, dst]
                )
                total += float(pair_time.max())
            assert topo.all_to_all_time(matrix) == total

    def test_all_to_all_shape_and_sign_validation(self):
        topo = Topology.hierarchical(2, 2)
        with pytest.raises(ValueError, match="does not match"):
            topo.all_to_all_time(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            topo.all_to_all_time(np.full((4, 4), -1.0))

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="square"):
            Topology(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            Topology(np.zeros((2, 2)), np.zeros((2, 2)))  # zero bandwidth
        with pytest.raises(ValueError, match="node_ids"):
            Topology(np.ones((2, 2)), np.zeros((2, 2)), node_ids=np.zeros(3, dtype=int))

    def test_simulator_rejects_mismatched_topology(self):
        from repro.dist import ClusterSimulator

        net = NetworkModel.from_topology(Topology.hierarchical(2, 4))
        with pytest.raises(ValueError, match="topology"):
            ClusterSimulator(4, network=net)
        assert ClusterSimulator(8, network=net).n_ranks == 8


class TestHierarchicalAllReduce:
    def _uniform_topo(self, n_nodes, gpus, bandwidth=1e9, latency=0.0):
        link = LinkSpec(bandwidth=bandwidth, latency=latency)
        return Topology.hierarchical(n_nodes, gpus, intra_link=link, inter_link=link)

    def test_equals_flat_ring_when_intra_equals_inter(self):
        """On a uniform fabric the rail-parallel hierarchical schedule
        moves exactly the flat ring's bytes: the bandwidth terms coincide
        (compare at zero latency, where the formulas are pure bandwidth)."""
        topo = self._uniform_topo(4, 4)
        net = NetworkModel.from_topology(topo)
        nbytes = 1e9
        assert net.hierarchical_all_reduce_time(nbytes, 16) == pytest.approx(
            net.all_reduce_time(nbytes, 16), rel=1e-12
        )

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=1e3, max_value=1e12),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_below_flat_ring_on_uniform_fabrics(self, n_nodes, gpus, nbytes):
        """Property: the flat ring is bandwidth-optimal on a uniform
        fabric, so hierarchical can never beat it there (they tie)."""
        topo = self._uniform_topo(n_nodes, gpus)
        hier = topo.hierarchical_all_reduce_time(nbytes)
        flat = topo.ring_all_reduce_time(nbytes)
        assert hier >= flat - 1e-9 * max(1.0, flat)
        assert hier == pytest.approx(flat, rel=1e-9, abs=1e-15)

    def test_beats_flat_ring_on_heterogeneous_fabric(self):
        """The point of the hierarchy: only 1/g of the volume crosses the
        slow inter-node link, so it wins when NVLink >> IB."""
        topo = Topology.hierarchical(4, 4)
        nbytes = 1e9
        assert topo.hierarchical_all_reduce_time(nbytes) < topo.ring_all_reduce_time(nbytes)

    def test_single_node_degenerates_to_intra_ring(self):
        link = LinkSpec(bandwidth=1e9, latency=1e-6)
        topo = Topology.hierarchical(1, 8, intra_link=link, inter_link=IB_HDR_LIKE)
        flat = NetworkModel(bandwidth=1e9, latency=1e-6)
        assert topo.hierarchical_all_reduce_time(1e8) == pytest.approx(
            flat.all_reduce_time(1e8, 8)
        )

    def test_one_gpu_per_node_degenerates_to_inter_ring(self):
        link = LinkSpec(bandwidth=1e9, latency=1e-6)
        topo = Topology.hierarchical(8, 1, intra_link=NVLINK_LIKE, inter_link=link)
        flat = NetworkModel(bandwidth=1e9, latency=1e-6)
        assert topo.hierarchical_all_reduce_time(1e8) == pytest.approx(
            flat.all_reduce_time(1e8, 8)
        )

    def test_flat_fallback_without_topology(self):
        """Without a topology the cluster is one node: hierarchical ==
        flat ring exactly, latency included."""
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        assert net.hierarchical_all_reduce_time(1e8, 8) == pytest.approx(
            net.all_reduce_time(1e8, 8)
        )

    def test_unbalanced_nodes_rejected(self):
        node_ids = np.array([0, 0, 0, 1])
        topo = Topology(np.full((4, 4), 1e9), np.zeros((4, 4)), node_ids)
        with pytest.raises(ValueError, match="balanced"):
            topo.hierarchical_all_reduce_time(1e6)

    def test_single_rank_free(self):
        topo = Topology.flat(1, LinkSpec(1e9, 0.0))
        assert topo.hierarchical_all_reduce_time(1e9) == 0.0
        assert topo.all_to_all_time(np.array([[5.0]])) == 0.0
