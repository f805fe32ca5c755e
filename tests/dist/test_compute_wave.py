"""Laws of the one way onto the simulated clock.

``ClusterSimulator.compute`` charges one duration per rank as one wave
through the simulator's stage scheduler, the same one the communicator's
chunk pipeline schedules every stage with.  A wave is exactly its ranks
charged one at a time, a bad entry charges nothing, and no module moves
another's clocks, tails or exchange numbering behind its back.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import COMM_STREAM, COMPUTE_STREAM, ClusterSimulator, EventCategory, NetworkModel
from repro.dist import comm, simulator
from repro.faults import FaultInjector, FaultPlan, LinkFault, StragglerFault
from repro.faults.checkpoint import TrainerCheckpoint
from repro.train.hybrid import HybridParallelTrainer
from tests.conftest import one_rank
from tests.dist.test_ledger_golden import ledger_digest

STREAMS = (COMPUTE_STREAM, COMM_STREAM, "aux")
SECONDS = st.one_of(st.just(0.0), st.floats(1e-6, 1e-3))


@st.composite
def programs(draw):
    """A rank count, a fault plan (or none) and a program of compute waves
    on every kind of stream, with syncs, collectives and exchanges between
    them so that lanes start unaligned and hold shared tails."""
    n = draw(st.integers(1, 5))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["wave", "wave", "wave", "sync", "collective", "exchange"]))
        if kind == "wave":
            seconds = draw(st.lists(SECONDS, min_size=n, max_size=n))
            ops.append((kind, draw(st.sampled_from(STREAMS)), seconds))
        elif kind == "sync":
            ops.append((kind, draw(st.integers(0, n - 1))))
        elif kind == "collective":
            ops.append((kind, draw(SECONDS)))
        else:
            ops.append((kind, draw(st.lists(SECONDS, min_size=n, max_size=n))))
    return n, draw(st.sampled_from(["healthy", "straggler", "link"])), ops


def _injector(plan: str, n: int) -> FaultInjector | None:
    if plan == "straggler":
        return FaultInjector(
            FaultPlan(stragglers=(StragglerFault(rank=n - 1, start=1e-4, duration=2e-3, slowdown=3.0),))
        )
    if plan == "link":
        return FaultInjector(
            FaultPlan(
                links=(
                    LinkFault(start=0.0, duration=2e-4, outage=True),
                    LinkFault(start=2e-4, duration=1e-3, bandwidth_factor=0.5),
                )
            )
        )
    return None


def _run(n: int, plan: str, ops: list, one_at_a_time: bool) -> ClusterSimulator:
    sim = ClusterSimulator(n, network=NetworkModel(bandwidth=1e9, latency=1e-6))
    sim.fault_injector = _injector(plan, n)
    for op, *a in ops:
        if op == "wave":
            stream, seconds = a
            if one_at_a_time:
                for rank in range(n):
                    sim.compute(one_rank(n, rank, seconds[rank]), EventCategory.OPTIMIZER, stream)
            else:
                sim.compute(seconds, EventCategory.OPTIMIZER, stream)
        elif op == "sync":
            sim.sync(a[0])
        elif op == "collective":
            sim.collective(a[0], EventCategory.ALLREDUCE)
        else:
            sim.comm.compressed_all_to_all(
                [[bytes(64 * (src + dst + 1)) for dst in range(n)] for src in range(n)],
                overlap=True,
                chunks_per_rank=2,
                compress_seconds=a[0],
                decompress_seconds=a[0][::-1],
            )
    return sim


class TestWaveLaw:
    @given(programs())
    @settings(max_examples=120, deadline=None)
    def test_a_wave_is_its_ranks_one_at_a_time(self, program):
        """Charging a seconds vector as one wave leaves the same ledger
        (events, args, release edges, stream clocks, fault counts) as
        charging it one rank at a time, in rank order."""
        n, plan, ops = program
        assert ledger_digest(_run(n, plan, ops, False)) == ledger_digest(_run(n, plan, ops, True))

    def test_a_zero_records_nothing(self):
        sim = ClusterSimulator(3)
        sim.compute([0.0, 2.0, 0.0], EventCategory.OPTIMIZER)
        assert [(e.rank, e.start, e.duration) for e in sim.timeline.events] == [(1, 0.0, 2.0)]
        assert sim.clocks == (0.0, 2.0, 0.0)

    def test_all_zeros_open_no_stream(self):
        sim = ClusterSimulator(3)
        sim.compute([0.0] * 3, EventCategory.OPTIMIZER, "aux")
        assert len(sim.timeline) == 0 and "aux" not in sim._streams


class TestInvalidWave:
    @pytest.mark.parametrize(
        "seconds",
        [
            [1e-3, float("nan"), 1e-3],
            [1e-3, -1e-3, 1e-3],
            [1e-3, float("inf"), 1e-3],
            [1e-3, 1e-3],
            [1e-3] * 4,
            1e-3,
        ],
        ids=["nan", "negative", "inf", "short", "long", "scalar"],
    )
    @pytest.mark.parametrize("stream", [COMPUTE_STREAM, "aux"])
    def test_bad_entry_charges_nothing(self, seconds, stream):
        sim = ClusterSimulator(3)
        sim.compute([1e-4, 2e-4, 0.0], EventCategory.OPTIMIZER)
        sim.compute([0.0, 1e-4, 3e-4], EventCategory.ALLREDUCE, COMM_STREAM)
        before = _state(sim)
        with pytest.raises(ValueError, match="seconds"):
            sim.compute(seconds, EventCategory.OPTIMIZER, stream)
        assert _state(sim) == before


def _state(sim: ClusterSimulator) -> tuple:
    """Ledger length, and every lane's clock and tails."""
    lanes = ({s: list(per_rank) for s, per_rank in d.items()} for d in (sim._streams, sim._tails))
    return (len(sim.timeline), *lanes)


class TestOneOwnerPerState:
    def test_comm_writes_no_simulator_private_state(self):
        source = inspect.getsource(comm)
        assert "._tails" not in source and "._streams" not in source

    def test_simulator_writes_no_communicator_private_state(self):
        source = inspect.getsource(simulator)
        assert "comm._" not in source

    @pytest.mark.parametrize("owner", [HybridParallelTrainer, TrainerCheckpoint])
    def test_no_rank_loop_around_compute(self, owner):
        """Every wave is one ``compute`` call, not one per rank."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(owner)))
        for loop in (node for node in ast.walk(tree) if isinstance(node, ast.For)):
            called = {
                node.func.attr
                for node in ast.walk(loop)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            }
            assert "compute" not in called


def test_stream_compute_is_gone():
    assert not hasattr(ClusterSimulator, "stream_compute")
    assert list(inspect.signature(ClusterSimulator.compute).parameters) == [
        "self", "seconds", "category", "stream",
    ]
