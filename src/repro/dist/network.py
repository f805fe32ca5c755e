"""Network cost models: flat alpha-beta fabric and per-link topologies.

Classic ``alpha + n * beta`` pricing (Hockney): every message pays a fixed
per-hop ``latency`` (alpha) plus a bandwidth term (beta = 1/bandwidth).
Collectives compose the point-to-point model the standard way:

* **all-to-all** — with full-bisection fabric every rank sends and
  receives concurrently, so the exchange finishes when the *busiest* rank
  has moved its bytes: ``(n-1) * alpha + max_rank(bytes sent or received)
  / bandwidth``.  The byte matrix may be non-uniform (variable-size
  compressed payloads) — this is exactly the paper's stage-③ exchange.
* **ring all-reduce** — ``2 * (n-1)`` steps moving ``nbytes / n`` each:
  ``2 * (n-1) * alpha + 2 * (n-1)/n * nbytes / bandwidth``.

Real training clusters are not single fabrics: GPUs inside one node talk
over NVLink/NVSwitch-class links while nodes talk over InfiniBand — often
an order of magnitude slower.  :class:`Topology` captures that with
per-ordered-pair bandwidth/latency matrices (built from ``(n_nodes,
gpus_per_node, intra_link, inter_link)``), prices the all-to-all *per
shift phase* at the bottleneck link of each phase, and adds the
**hierarchical all-reduce** (intra-node reduce-scatter → inter-node rail
rings → intra-node all-gather) that beats the flat ring exactly when the
inter-node link is the bottleneck.

The default flat fabric is calibrated to the paper's evaluation setup: a
4 GB/s effective all-to-all (Section IV) with NVSwitch-class
(sub-microsecond) per-hop latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.utils.units import GB
from repro.utils.validation import check_positive

__all__ = [
    "LinkSpec",
    "Topology",
    "NetworkModel",
    "PAPER_FABRIC",
    "NVLINK_LIKE",
    "IB_HDR_LIKE",
    "PCIE_LIKE",
]


@dataclass(frozen=True)
class LinkSpec:
    """One link class: bandwidth (bytes/s), per-message latency (s)."""

    bandwidth: float
    latency: float
    name: str = "link"

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        check_positive("latency", self.latency, strict=False)

    def oversubscribed(self, factor: float) -> "LinkSpec":
        """The same link class behind a ``factor``:1 oversubscribed switch
        tier: effective per-pair bandwidth divides by ``factor`` (latency
        unchanged) — the standard fat-tree taper of large training pods."""
        check_positive("factor", factor)
        return LinkSpec(
            bandwidth=self.bandwidth / factor,
            latency=self.latency,
            name=f"{self.name}/{factor:g}x",
        )


#: NVLink/NVSwitch-class intra-node link (A100 HGX: ~300 GB/s aggregate,
#: ~150 GB/s effective per direction, sub-microsecond hops).
NVLINK_LIKE = LinkSpec(bandwidth=150.0 * GB, latency=2e-7, name="nvlink")

#: HDR-InfiniBand-class inter-node link (200 Gb/s -> ~12.5 GB/s effective
#: per port after protocol overheads, microsecond-scale hops).
IB_HDR_LIKE = LinkSpec(bandwidth=12.5 * GB, latency=1.5e-6, name="ib-hdr")

#: PCIe-Gen3-x16-class host-mediated link (~16 GB/s raw -> ~8 GB/s
#: effective once staged through host memory without GPUDirect): the
#: inter-node class of commodity clouds and NVSwitch-less boxes.
PCIE_LIKE = LinkSpec(bandwidth=8.0 * GB, latency=1.2e-6, name="pcie")


class Topology:
    """Per-ordered-pair link map of a training cluster.

    ``bandwidth_matrix[src, dst]`` / ``latency_matrix[src, dst]`` price one
    message from ``src`` to ``dst``; ``node_ids[rank]`` records which node
    each rank lives on (for hierarchical collectives).  Diagonal entries
    are ignored — self-transfers are local.

    Build with :meth:`hierarchical` (the common NVLink-inside /
    IB-between-nodes shape) or :meth:`flat` (single fabric, equivalent to
    a plain :class:`NetworkModel`).
    """

    def __init__(
        self,
        bandwidth_matrix: np.ndarray,
        latency_matrix: np.ndarray,
        node_ids: np.ndarray | None = None,
        name: str = "custom",
        switch_aggregation: bool = False,
    ):
        # Copy (never alias) the inputs: they are frozen read-only below,
        # and freezing a caller's own array would poison it.
        bw = np.array(bandwidth_matrix, dtype=np.float64, copy=True)
        lat = np.array(latency_matrix, dtype=np.float64, copy=True)
        if bw.ndim != 2 or bw.shape[0] != bw.shape[1]:
            raise ValueError(f"bandwidth matrix must be square, got shape {bw.shape}")
        if lat.shape != bw.shape:
            raise ValueError(
                f"latency matrix shape {lat.shape} != bandwidth matrix shape {bw.shape}"
            )
        if (bw <= 0).any():
            raise ValueError("all pairwise bandwidths must be > 0")
        if (lat < 0).any():
            raise ValueError("all pairwise latencies must be >= 0")
        n = bw.shape[0]
        if node_ids is None:
            node_ids = np.zeros(n, dtype=np.int64)
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.shape != (n,):
            raise ValueError(f"node_ids must have shape ({n},), got {node_ids.shape}")
        # Normalize arbitrary node labels to contiguous ids 0..k-1 (the
        # grouping is what matters; n_nodes/bincount assume dense labels).
        node_ids = np.unique(node_ids, return_inverse=True)[1].astype(np.int64)
        self.bandwidth_matrix = bw
        self.latency_matrix = lat
        self.node_ids = node_ids
        self.name = name
        #: whether the fabric's switches host aggregation nodes (one per
        #: node plus a spine) that sum *homomorphic* compressed payloads at
        #: wire speed — see :meth:`switch_all_reduce_time`.
        self.switch_aggregation = bool(switch_aggregation)
        for a in (self.bandwidth_matrix, self.latency_matrix, self.node_ids):
            a.setflags(write=False)

    # ------------------------------------------------------------- builders

    @classmethod
    def hierarchical(
        cls,
        n_nodes: int,
        gpus_per_node: int,
        intra_link: LinkSpec = NVLINK_LIKE,
        inter_link: LinkSpec = IB_HDR_LIKE,
        switch_aggregation: bool = False,
    ) -> "Topology":
        """NVLink-inside-node / IB-between-nodes cluster of
        ``n_nodes * gpus_per_node`` ranks (node-contiguous rank order)."""
        check_positive("n_nodes", n_nodes)
        check_positive("gpus_per_node", gpus_per_node)
        node_ids = np.repeat(np.arange(int(n_nodes), dtype=np.int64), int(gpus_per_node))
        same_node = node_ids[:, None] == node_ids[None, :]
        bw = np.where(same_node, intra_link.bandwidth, inter_link.bandwidth)
        lat = np.where(same_node, intra_link.latency, inter_link.latency)
        topo = cls(
            bw,
            lat,
            node_ids,
            name=f"{intra_link.name}x{gpus_per_node}+{inter_link.name}x{n_nodes}",
            switch_aggregation=switch_aggregation,
        )
        return topo

    @classmethod
    def flat(cls, n_ranks: int, link: LinkSpec) -> "Topology":
        """Single-fabric cluster: every pair uses the same link."""
        check_positive("n_ranks", n_ranks)
        n = int(n_ranks)
        return cls(
            np.full((n, n), link.bandwidth),
            np.full((n, n), link.latency),
            np.zeros(n, dtype=np.int64),
            name=f"{link.name}x{n}",
        )

    # ------------------------------------------------------------ structure

    @property
    def n_ranks(self) -> int:
        return self.bandwidth_matrix.shape[0]

    @property
    def n_nodes(self) -> int:
        return int(self.node_ids.max()) + 1

    def _balanced_gpus_per_node(self) -> int:
        counts = np.bincount(self.node_ids, minlength=self.n_nodes)
        if (counts != counts[0]).any():
            raise ValueError(
                f"hierarchical collectives need balanced nodes, got sizes {counts.tolist()}"
            )
        return int(counts[0])

    def _intra_inter_links(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Bottleneck ``(bandwidth, latency)`` among intra- and inter-node
        pairs.  With a single node (or single rank per node) the missing
        class falls back to the other, so degenerate layouts stay priced."""
        same = self.node_ids[:, None] == self.node_ids[None, :]
        off_diag = ~np.eye(self.n_ranks, dtype=bool)
        intra_mask = same & off_diag
        inter_mask = ~same
        def bottleneck(mask: np.ndarray) -> tuple[float, float] | None:
            if not mask.any():
                return None
            return (
                float(self.bandwidth_matrix[mask].min()),
                float(self.latency_matrix[mask].max()),
            )
        intra = bottleneck(intra_mask)
        inter = bottleneck(inter_mask)
        if intra is None and inter is None:  # single rank
            return (float("inf"), 0.0), (float("inf"), 0.0)
        return intra or inter, inter or intra

    # ----------------------------------------------------------- collectives

    def all_to_all_time(self, byte_matrix: np.ndarray) -> float:
        """Phased variable-size all-to-all: in shift phase ``k`` every rank
        ``i`` sends to ``(i + k) mod n``, and the phase lasts as long as its
        slowest pair — the bottleneck link.  On a uniform single fabric
        this reduces exactly to the flat model's ``(n-1) * alpha +
        busiest_port / bandwidth`` for uniform byte matrices; on a
        heterogeneous fabric every phase crosses at least one inter-node
        link, which is what makes the hetero exchange slower than any
        flat model built from the intra-node link."""
        matrix = np.asarray(byte_matrix, dtype=np.float64)
        n = self.n_ranks
        if matrix.shape != (n, n):
            raise ValueError(
                f"byte matrix shape {matrix.shape} does not match topology with {n} ranks"
            )
        if (matrix < 0).any():
            raise ValueError("byte matrix entries must be >= 0")
        if n <= 1:
            return 0.0
        pairs, latency, bandwidth = self._shift_phases
        phase_seconds = (latency + matrix.ravel()[pairs] / bandwidth).max(axis=1)
        # Plain left-to-right float adds, phase 1 first: ``np.sum`` pairs
        # its operands and builtin ``sum`` compensates since Python 3.12,
        # and every priced second must stay bit-identical.
        total = 0.0
        for seconds in phase_seconds.tolist():
            total += seconds
        return total

    @cached_property
    def _shift_phases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``n - 1`` shift phases of :meth:`all_to_all_time` as one
        gather: row ``k - 1`` holds, for every ``src``, the flat index of
        the pair ``(src, (src + k) mod n)`` in a raveled ``n x n`` matrix,
        and that pair's latency and bandwidth."""
        n = self.n_ranks
        src = np.arange(n)
        pairs = src * n + (src + np.arange(1, n)[:, None]) % n
        return pairs, self.latency_matrix.ravel()[pairs], self.bandwidth_matrix.ravel()[pairs]

    def ring_all_reduce_time(self, nbytes: float) -> float:
        """Flat ring all-reduce over the node-contiguous ring
        ``0 -> 1 -> ... -> n-1 -> 0``: ``2 * (n-1)`` steps in which every
        rank forwards ``nbytes / n`` to its successor, each step paced by
        the slowest ring edge (the inter-node link, when there is one)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        n = self.n_ranks
        if n <= 1:
            return 0.0
        src = np.arange(n)
        dst = (src + 1) % n
        step = float(
            (self.latency_matrix[src, dst] + (nbytes / n) / self.bandwidth_matrix[src, dst]).max()
        )
        return 2 * (n - 1) * step

    def hierarchical_all_reduce_time(self, nbytes: float) -> float:
        """Hierarchical all-reduce: intra-node reduce-scatter, inter-node
        ring all-reduce of the ``1/g`` shards (one ring per intra-node
        *rail*, all rails concurrent), intra-node all-gather (broadcast of
        the reduced shards).

        With ``g`` GPUs per node and ``N`` nodes this moves ``2 (g-1)/g *
        nbytes`` over the intra link and ``2 (N-1)/(N g) * nbytes`` over
        the inter link — the same total bytes as the flat ring when the
        two links are equal (the bandwidth terms coincide exactly), but
        only a ``1/g`` fraction crosses the slow inter-node fabric."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        n = self.n_ranks
        if n <= 1:
            return 0.0
        g = self._balanced_gpus_per_node()
        n_nodes = self.n_nodes
        (intra_bw, intra_lat), (inter_bw, inter_lat) = self._intra_inter_links()
        total = 0.0
        if g > 1:
            # Intra-node reduce-scatter + (after the inter stage) all-gather.
            stage = (g - 1) * intra_lat + (g - 1) / g * nbytes / intra_bw
            total += 2 * stage
        if n_nodes > 1:
            shard = nbytes / g
            total += 2 * (n_nodes - 1) * inter_lat + 2 * (n_nodes - 1) / n_nodes * shard / inter_bw
        return total

    def switch_all_reduce_time(self, nbytes: float) -> float:
        """In-network (switch-hosted) aggregation-tree all-reduce.

        Only meaningful for payloads that *sum in compressed space* (the
        homomorphic codecs): each leaf sends its whole payload up one hop
        to its node's aggregator (all ports concurrent, summation at wire
        speed), node aggregates go up one more hop to a spine aggregator,
        and the reduced payload comes back down the same two hops —
        ``2 * (intra_lat + nbytes / intra_bw) + 2 * (inter_lat + nbytes /
        inter_bw)``.  Four latency terms total versus the hierarchical
        schedule's ``2 (g - 1) + 2 (N - 1)``, which is exactly why
        in-network aggregation wins latency-bound dense layers; the price
        is the full payload (not a ``1/g`` shard) on the inter link.

        With ``switch_aggregation`` disabled the fabric has no aggregation
        nodes, so this degenerates *exactly* to
        :meth:`hierarchical_all_reduce_time` — the property tests pin that
        equality.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        if not self.switch_aggregation:
            return self.hierarchical_all_reduce_time(nbytes)
        n = self.n_ranks
        if n <= 1:
            return 0.0
        g = self._balanced_gpus_per_node()
        n_nodes = self.n_nodes
        (intra_bw, intra_lat), (inter_bw, inter_lat) = self._intra_inter_links()
        total = 0.0
        if g > 1:
            total += 2 * (intra_lat + nbytes / intra_bw)
        if n_nodes > 1:
            total += 2 * (inter_lat + nbytes / inter_bw)
        return total

    def all_reduce_inter_bytes(self, nbytes: float, algorithm: str = "ring") -> float:
        """Total bytes an all-reduce of ``nbytes`` puts on *inter-node*
        links — the taper-constrained resource on oversubscribed fabrics.

        * ``"ring"`` — the node-contiguous ring has ``N`` node-crossing
          edges (``N > 1``), each carrying ``2 (n-1)/n * nbytes``.
        * ``"hierarchical"`` — ``g`` concurrent rail rings over ``N``
          nodes, each ring moving ``2 (N-1) * nbytes / g`` across nodes.
        * ``"switch"`` — every node aggregate travels up to the spine and
          back down: ``2 N * nbytes`` (with aggregation disabled the
          schedule is the hierarchical one, so its byte count applies).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        n, n_nodes = self.n_ranks, self.n_nodes
        if n <= 1 or n_nodes <= 1:
            return 0.0
        if algorithm == "ring":
            return n_nodes * 2 * (n - 1) / n * nbytes
        if algorithm == "hierarchical" or (
            algorithm == "switch" and not self.switch_aggregation
        ):
            return 2 * (n_nodes - 1) * nbytes
        if algorithm == "switch":
            return 2 * n_nodes * nbytes
        raise ValueError(
            f"algorithm must be 'ring', 'hierarchical', or 'switch', got {algorithm!r}"
        )

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, n_ranks={self.n_ranks}, "
            f"n_nodes={self.n_nodes}, switch_aggregation={self.switch_aggregation})"
        )


@dataclass(frozen=True)
class NetworkModel:
    """Cost model of the training fabric.

    Parameters
    ----------
    bandwidth:
        Per-rank injection bandwidth, bytes/second (beta = 1/bandwidth).
    latency:
        Per-message fixed cost, seconds (alpha).
    topology:
        Optional per-pair link map.  When set, the collectives are priced
        per link (phased all-to-all, bottleneck-edge ring, hierarchical
        all-reduce) and nothing reads the scalar ``bandwidth``/``latency``:
        they price a topology-free model only, in the collectives here
        and in :class:`~repro.serve.simulator.ServingSimulator`'s shard
        pulls.
    """

    bandwidth: float = 4.0 * GB
    latency: float = 2e-7
    topology: Topology | None = None

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        check_positive("latency", self.latency, strict=False)

    @classmethod
    def from_topology(cls, topology: Topology) -> "NetworkModel":
        """Topology-priced model; its scalar terms keep their defaults,
        which nothing reads once a topology is set."""
        return cls(topology=topology)

    # ------------------------------------------------------ point to point

    # --------------------------------------------------------- collectives

    def all_to_all_time(self, byte_matrix: np.ndarray) -> float:
        """Variable-size all-to-all from an ``n x n`` byte matrix where
        ``byte_matrix[src, dst]`` is the payload ``src`` sends ``dst``.

        Diagonal (self) transfers are local and free.  Flat fabric: the
        exchange is bottlenecked by the busiest port (largest per-rank
        off-diagonal row/column sum).  With a topology: phased costing,
        each shift phase paced by its slowest link."""
        matrix = np.asarray(byte_matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"byte matrix must be square, got shape {matrix.shape}")
        if (matrix < 0).any():
            raise ValueError("byte matrix entries must be >= 0")
        if self.topology is not None:
            return self.topology.all_to_all_time(matrix)
        n = matrix.shape[0]
        if n <= 1:
            return 0.0
        off_diagonal = matrix - np.diag(np.diag(matrix))
        busiest = float(max(off_diagonal.sum(axis=1).max(), off_diagonal.sum(axis=0).max()))
        return (n - 1) * self.latency + busiest / self.bandwidth

    def uniform_all_to_all_time(self, nbytes_per_pair: float, n_ranks: int) -> float:
        """All-to-all where every ordered pair exchanges the same payload
        (e.g. the fixed-size metadata round of pipeline stage ②)."""
        check_positive("n_ranks", n_ranks)
        if nbytes_per_pair < 0:
            raise ValueError(f"nbytes_per_pair must be >= 0, got {nbytes_per_pair!r}")
        n = int(n_ranks)
        if n <= 1:
            return 0.0
        if self.topology is not None:
            return self.topology.all_to_all_time(np.full((n, n), float(nbytes_per_pair)))
        return (n - 1) * self.latency + (n - 1) * nbytes_per_pair / self.bandwidth

    def all_reduce_time(self, nbytes: float, n_ranks: int) -> float:
        """Ring all-reduce of an ``nbytes`` buffer across ``n_ranks``
        (reduce-scatter + all-gather, each ``n-1`` steps).  With a
        topology the ring is node-contiguous and every step is paced by
        the slowest ring edge."""
        check_positive("n_ranks", n_ranks)
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        n = int(n_ranks)
        if n <= 1:
            return 0.0
        if self.topology is not None:
            self._check_topology_ranks(n)
            return self.topology.ring_all_reduce_time(nbytes)
        return 2 * (n - 1) * self.latency + 2 * (n - 1) / n * nbytes / self.bandwidth

    def hierarchical_all_reduce_time(self, nbytes: float, n_ranks: int) -> float:
        """Hierarchical (reduce-scatter intra-node → inter-node rail rings
        → intra-node all-gather) all-reduce.  Without a topology the whole
        cluster is one node, so this degenerates to the flat ring — the
        two strategies only diverge on heterogeneous fabrics."""
        check_positive("n_ranks", n_ranks)
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        n = int(n_ranks)
        if n <= 1:
            return 0.0
        if self.topology is None:
            return self.all_reduce_time(nbytes, n)
        self._check_topology_ranks(n)
        return self.topology.hierarchical_all_reduce_time(nbytes)

    def switch_all_reduce_time(self, nbytes: float, n_ranks: int) -> float:
        """In-network aggregation-tree all-reduce (homomorphic payloads
        only — see :meth:`Topology.switch_all_reduce_time`).  Without a
        topology there is no switch to host the aggregator, so this
        degenerates to the flat ring; without ``switch_aggregation`` it
        degenerates to the hierarchical schedule."""
        check_positive("n_ranks", n_ranks)
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        n = int(n_ranks)
        if n <= 1:
            return 0.0
        if self.topology is None:
            return self.all_reduce_time(nbytes, n)
        self._check_topology_ranks(n)
        return self.topology.switch_all_reduce_time(nbytes)

    def _check_topology_ranks(self, n_ranks: int) -> None:
        if self.topology is not None and self.topology.n_ranks != n_ranks:
            raise ValueError(
                f"collective over {n_ranks} ranks does not match topology "
                f"with {self.topology.n_ranks} ranks"
            )


#: The paper's evaluation fabric (Section IV): 4 GB/s effective all-to-all.
PAPER_FABRIC = NetworkModel()
