"""Fault injection, retry/backoff, and graceful degradation.

Production DLRM clusters lose links, ranks, and shard servers; this
package makes the reproduction survive the same chaos — deterministically,
on the simulated clock — across the whole train → publish → serve path:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: seeded, clock-scheduled
  fault schedules (link degradation/outage, stragglers, shard crashes,
  payload corruption, rank failures).
* :mod:`repro.faults.injector` — :class:`FaultInjector`: bends simulator
  charges, damages payloads, answers per-pull health queries, annotates
  timelines with FAULT spans.
* :mod:`repro.faults.retry` — :class:`RetryPolicy`: timeout + capped
  exponential backoff + deterministic jitter, shared by the delta
  publisher and the serving tier's shard pulls.
* :mod:`repro.faults.breaker` — :class:`CircuitBreaker`: per-shard
  fail-fast so a dead node degrades responses instead of queueing them.
* :mod:`repro.faults.checkpoint` — :class:`TrainerCheckpoint`:
  parameter/gradient/pipeline snapshots with bit-identical resume.
* :mod:`repro.faults.scenario` — the day-in-the-life chaos scenario and
  its invariants.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.checkpoint import TrainerCheckpoint
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CorruptionFault,
    FaultPlan,
    LinkFault,
    LinkState,
    RankFailureFault,
    ShardCrashFault,
    StragglerFault,
)
from repro.faults.retry import RetryPolicy
from repro.faults.scenario import (
    ChaosInvariantViolation,
    ChaosResult,
    run_day_in_the_life_under_faults,
)

__all__ = [
    "ChaosInvariantViolation",
    "ChaosResult",
    "run_day_in_the_life_under_faults",
    "FaultPlan",
    "FaultInjector",
    "LinkFault",
    "LinkState",
    "StragglerFault",
    "ShardCrashFault",
    "CorruptionFault",
    "RankFailureFault",
    "RetryPolicy",
    "CircuitBreaker",
    "TrainerCheckpoint",
]
