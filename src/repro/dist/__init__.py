"""Cluster-simulation substrate: GPU/network cost models, exact
collectives, per-rank stream clocks, and the event timeline.

The design follows the system-simulation approach of THC and "Compressed
Communication for Distributed Training": collectives are priced
*analytically* (alpha-beta models, per-link topologies, utilization-scaled
kernels) while the data path is computed *exactly* in process — so
accuracy results are real and timing results are modelled, independently.

Layering (no cycles): ``timeline`` and ``gpu`` and ``network`` are leaves;
``comm`` uses the timeline's categories; ``simulator`` composes all four.
"""

from repro.dist.comm import Communicator
from repro.dist.gpu import A100_LIKE, GpuModel
from repro.dist.network import (
    IB_HDR_LIKE,
    NVLINK_LIKE,
    PAPER_FABRIC,
    PCIE_LIKE,
    LinkSpec,
    NetworkModel,
    Topology,
)
from repro.dist.simulator import ClusterSimulator
from repro.dist.timeline import (
    COMM_STREAM,
    COMPUTE_STREAM,
    EventCategory,
    Timeline,
)

__all__ = [
    "A100_LIKE",
    "COMM_STREAM",
    "COMPUTE_STREAM",
    "IB_HDR_LIKE",
    "NVLINK_LIKE",
    "PAPER_FABRIC",
    "PCIE_LIKE",
    "ClusterSimulator",
    "Communicator",
    "EventCategory",
    "GpuModel",
    "LinkSpec",
    "NetworkModel",
    "Timeline",
    "Topology",
]
