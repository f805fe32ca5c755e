"""Timing harness shared by the workloads.

A timed region is a sequence of equal-work *segments*; a wall metric is
computed from the **fastest segment**, never from the total.  The sandbox
this runs in is a shared host whose speed itself wanders: a fixed numpy +
Python kernel timed here moved +-25% second to second and +45% for minutes
at a time, with no steal time reported.  Interference only ever adds time,
so the fastest of >=16 segments is the reproducible estimate of what the
program costs; over 20 back-to-back windows of 20 segments the fastest
segment's quartile spread was 8% where the median segment's was 27-32%
(the median, p75 and spread of every phase are still recorded beside it).

Each phase runs a fixed minimum number of segments (sized for this 2-core
box) and then, in an untraced run, keeps adding segments until its share of
``--seconds`` is spent — more chances at a clean segment, same work each.

In a traced run the segment count is exactly the minimum (so every count
and simulated quantity repeats exactly for a seed) and segments alternate
traced / untraced: the traced half feeds the per-layer numbers, and the
ratio of the two fastest segments is the tracing overhead.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from bench_e2e.trace import Tracer

__all__ = [
    "DETERMINISTIC_METRICS",
    "Part",
    "Phase",
    "RunContext",
    "quartile_spread",
    "environment",
    "peak_rss_mb",
]

#: Two clocks, never mixed.  These per-layer metrics are *simulated or
#: computed* quantities (simulated time, bytes, ratios, losses, call and
#: event counts over the fixed segment count of a traced run): for one seed
#: they must repeat exactly between two runs on one machine, and a change
#: that only makes the Python faster must leave them identical.  Every other
#: metric is host wall clock, measured with ``time.perf_counter()``.
DETERMINISTIC_METRICS = frozenset(
    {
        "train.final_loss",
        "train.pipeline.slices_per_step",
        "train.pipeline.payload_bytes_per_step",
        "train.pipeline.fwd_compression_ratio",
        "compression.kernels.encode_calls_per_step",
        "compression.kernels.pack_codes_calls_per_step",
        "compression.framing.parse_calls_per_payload",
        "dist.events_per_step",
        "dist.collective_calls_per_step",
        "dist.wire_bytes_per_step",
        "dist.sim_hidden_wire_share",
        "dist.sim_iteration_ms",
        "dist.sim_e2e_speedup",
        "dist.sim_fwd_a2a_speedup",
        "serve.publisher.wire_bytes_per_round",
        "serve.shard_server.pulls_per_request",
        "serve.shard_server.blocks_decoded_per_request",
        "serve.replica.cache_hit_rate",
        "serve.simulator.sim_p99_ms",
        "harness.wrapped_targets",
        "harness.failed_ops_share",
    }
)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the spread the benchmark contract is judged by."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float((q3 - q1) / statistics.median(values))


@dataclass
class Phase:
    """One timed region: per-segment wall seconds, traced and untraced."""

    name: str
    ops_per_segment: float
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)

    @property
    def best_wall(self) -> float:
        """Fastest untraced segment (every end-to-end metric uses this)."""
        return min(self.walls)

    @property
    def ops_per_second(self) -> float:
        return self.ops_per_segment / self.best_wall

    def summary(self) -> dict:
        walls = self.walls
        p75 = statistics.quantiles(walls, n=4)[2] if len(walls) >= 2 else walls[0]
        return {
            "segments": len(walls),
            "traced_segments": len(self.traced_walls),
            "ops_per_segment": self.ops_per_segment,
            "segment_wall_best_ms": 1e3 * self.best_wall,
            "segment_wall_median_ms": 1e3 * statistics.median(walls),
            "segment_wall_p75_ms": 1e3 * p75,
            "segment_iqr_over_median": quartile_spread(walls),
            "segment_walls_ms": [1e3 * wall for wall in walls],
        }


@dataclass(frozen=True)
class Part:
    """One separately timed operation of a segment."""

    name: str
    body: Callable[[], None]
    ops_per_segment: float


@dataclass
class RunContext:
    """Inputs, phases and operation accounting of one workload run."""

    seed: int
    seconds: float
    smoke: bool = False
    tracer: Tracer | None = None
    phases: dict[str, Phase] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def account(self, attempted: int, failed: int, what: str) -> None:
        """Account a batch of operations, ``failed`` of which went wrong."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(what)

    def count(self, ok: bool, what: str) -> None:
        """Account one operation or correctness check."""
        self.account(1, 0 if ok else 1, what)

    def run_segments(
        self,
        parts: Sequence[Part],
        *,
        min_segments: int,
        seconds: float,
        before: Callable[[], None] | None = None,
        after: Callable[[], None] | None = None,
    ) -> None:
        """Run segments until ``min_segments`` are done and ``seconds`` are
        spent.  A segment times each part's ``body()`` separately, in
        order — parts interleave so every phase samples the whole run, not
        one burst of host noise; ``before`` / ``after`` run untimed around
        the segment (input generation, per-operation checks)."""
        phases = [self.phases.setdefault(p.name, Phase(p.name, p.ops_per_segment)) for p in parts]
        tracer = self.tracer
        deadline = time.perf_counter() + seconds
        index = 0
        while index < min_segments or (tracer is None and time.perf_counter() < deadline):
            if before is not None:
                before()
            traced = tracer is not None and index % 2 == 0
            for part, phase in zip(parts, phases):
                if traced:
                    tracer.phase, tracer.op_id = part.name, index
                    tracer.install()
                start = time.perf_counter()
                try:
                    part.body()
                finally:
                    wall = time.perf_counter() - start
                    if traced:
                        tracer.uninstall()
                (phase.traced_walls if traced else phase.walls).append(wall)
            if after is not None:
                after()
            index += 1

    def traced_wall(self) -> dict[str, float]:
        return {name: sum(phase.traced_walls) for name, phase in self.phases.items()}

    def trace_overhead_ratio(self) -> float:
        """Traced over untraced wall: mean over phases of the ratio of the
        two fastest segments, weighted by the phase's untraced wall."""
        weighted = total = 0.0
        for phase in self.phases.values():
            if phase.traced_walls and phase.walls:
                weight = sum(phase.walls)
                weighted += weight * min(phase.traced_walls) / phase.best_wall
                total += weight
        return weighted / total if total else 1.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (one workload per process)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    """The stanza recorded with every result: what the numbers ran on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
    }
