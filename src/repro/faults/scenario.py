"""A day in the life of the system — under injected chaos.

:func:`run_day_in_the_life_under_faults` runs the full train → publish →
serve loop twice from identical seeds:

1. a **healthy twin** — no faults, no retries — establishing the baseline
   makespan and the uninterrupted final parameters;
2. a **chaos run** — the same workload with a :class:`FaultPlan` injected:
   a straggler rank and a fabric outage during training, a rank failure
   forcing a checkpoint restore, corrupted publication payloads (one
   round abandoned entirely, one recovered by retry), and a shard crash
   window during serving with stale-store fallback.

The function checks the robustness invariants inline (raising
``ChaosInvariantViolation`` on any breach) and returns everything in a
:class:`ChaosResult`:

* **bit-identical resume** — the chaos run's final parameters equal the
  healthy twin's byte for byte, despite the mid-run crash/restore;
* **no staleness accumulation** — after every *successful* publication
  round the publisher's staleness is within that round's bound, no matter
  how many failed rounds preceded it (error-feedback replay);
* **makespan ordering** — the chaos run's training makespan is never
  below the healthy twin's (faults only delay or stretch work);
* **no silent degradation** — every served row is either from live state
  (within the compound publication + shard-storage bound) or explicitly
  counted stale/degraded.

With ``out_dir`` set it writes ``metrics.json`` (schema-validated),
``metrics.prom``, ``chaos_trace.json`` (the unified chrome trace with
FAULT annotation spans), and ``run_report.txt`` — the artifacts behind
``examples/faults_day_in_the_life.py`` and the CI ``chaos-smoke`` job.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.obs.registry import MetricsRegistry, RegistrySnapshot
from repro.obs.runtime import capture, enable

__all__ = [
    "ChaosInvariantViolation",
    "ChaosResult",
    "run_day_in_the_life_under_faults",
]


class ChaosInvariantViolation(AssertionError):
    """A robustness invariant did not survive the chaos run."""


@dataclass(frozen=True)
class ChaosResult:
    """Everything one chaos run produces, invariants already checked."""

    snapshot: RegistrySnapshot
    trace: dict  # unified chrome trace incl. FAULT annotation spans
    report: str  # human run_report text
    healthy_train_makespan: float
    faulty_train_makespan: float
    params_bit_identical: bool
    checkpoints_taken: int
    restores: int
    publish_rounds: int
    failed_publish_rounds: int
    publish_attempts_total: int
    staleness_after_last_success: float
    last_success_staleness_bound: float
    compound_bound: float  # publication bound + shard-storage bound
    stale_rows: int
    degraded_rows: int
    impaired_requests: int
    fresh_requests: int
    n_requests: int
    #: paths written when ``out_dir`` was given, keyed by artifact name
    paths: dict[str, Path]


def _final_param_bytes(model) -> bytes:
    return b"".join(p.data.tobytes() for p in model.parameters())


def run_day_in_the_life_under_faults(
    *,
    n_iterations: int = 4,
    n_requests: int = 200,
    n_tables: int = 6,
    cardinality: int = 400,
    qps: float = 2000.0,
    checkpoint_every: int = 2,
    out_dir: str | Path | None = None,
    seed: int = 7,
) -> ChaosResult:
    """Run the chaos scenario, verify its invariants, return the evidence.

    ``n_iterations`` pure training steps are followed by warm-up serving
    traffic and two publish-interleaved steps (one publication round
    abandoned to corruption, one recovered by retry), then the serving
    trace runs against a crashed-then-restarted shard.  The same workload
    runs healthy first; both runs share every seed.
    """
    # Heavy imports stay local, as in repro.obs.scenario.
    from repro.dist.timeline import Timeline
    from repro.faults.checkpoint import TrainerCheckpoint
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import (
        CorruptionFault,
        FaultPlan,
        LinkFault,
        RankFailureFault,
        ShardCrashFault,
        StragglerFault,
    )
    from repro.faults.retry import RetryPolicy
    from repro.obs.exporters import run_report
    from repro.obs.scenario import build_day_world, write_artifacts
    from repro.obs.trace import unified_chrome_trace
    from repro.serve import build_serving_tier
    from repro.serve.loadgen import RequestLoadGenerator
    from repro.serve.simulator import ServingSimulator

    if n_iterations < 2:
        raise ValueError(f"n_iterations must be >= 2, got {n_iterations}")
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")

    publish_rounds = 2
    total_iterations = n_iterations + publish_rounds
    global_batch = 64

    world = ("chaos-day", n_tables, cardinality, seed)  # twin runs share every seed

    # ------------------------------------------------- 1. the healthy twin
    dataset, config, healthy_trainer = build_day_world(*world)
    for iteration in range(total_iterations):
        healthy_trainer.train_step(global_batch, iteration=iteration)
    healthy_makespan = healthy_trainer.simulator.makespan()
    healthy_params = _final_param_bytes(healthy_trainer.model)
    healthy_tier = build_serving_tier(
        healthy_trainer, n_shard_ranks=2, n_replicas=2, cache_rows=64
    )
    healthy_tier.publisher.publish(iteration=total_iterations - 1)

    # ------------------------------------------------------ the fault plan
    # Windows scale with the measured healthy makespan (training faults)
    # and the request trace span (the serving shard crash), so the chaos
    # actually lands on live work at any problem size.
    span = n_requests / qps
    fail_at = max(1, n_iterations // 2 + 1)
    fault_plan = FaultPlan(
        links=(
            # one degraded link mid-training, one short fabric outage
            LinkFault(
                start=0.15 * healthy_makespan,
                duration=0.2 * healthy_makespan,
                src=0,
                dst=1,
                bandwidth_factor=0.5,
            ),
            LinkFault(
                start=0.55 * healthy_makespan,
                duration=0.05 * healthy_makespan,
                outage=True,
            ),
        ),
        stragglers=(
            StragglerFault(
                rank=1,
                start=0.3 * healthy_makespan,
                duration=0.25 * healthy_makespan,
                slowdown=2.5,
            ),
        ),
        shard_crashes=(
            # shard 0 is down for over half the serving trace — long enough
            # to outlast the retry budget, so early requests exhaust their
            # attempts, trip the breaker, and fall back to degraded answers
            ShardCrashFault(shard_rank=0, start=0.0, duration=0.6 * span),
        ),
        corruptions=(
            # round 0: every delivery attempt corrupted -> round abandoned
            CorruptionFault(round_index=0, table_index=0, attempt=0),
            CorruptionFault(round_index=0, table_index=1, attempt=1),
            CorruptionFault(round_index=0, table_index=0, attempt=2),
            # round 1: first attempt corrupted -> retry recovers it
            CorruptionFault(round_index=1, table_index=1, attempt=0),
        ),
        rank_failures=(RankFailureFault(rank=1, at_iteration=fail_at),),
    )
    # The pull timeout scales with the trace span so the full retry budget
    # (~3 timeouts + backoffs ~= span/4) stays well inside the crash window
    # at any problem size: early requests genuinely exhaust their retries.
    retry_policy = RetryPolicy(
        max_attempts=3,
        timeout_seconds=span / 12,
        base_backoff_seconds=span / 100,
        seed=seed,
    )

    # ------------------------------------------------------- 2. chaos run
    with capture():
        registry = enable(MetricsRegistry())
        injector = FaultInjector(fault_plan, seed=seed + 3)
        _, _, trainer = build_day_world(*world)
        trainer.simulator.fault_injector = injector

        snapshots: list[TrainerCheckpoint] = []
        handled_failures: set[int] = set()
        restores = 0
        iteration = 0
        while iteration < n_iterations:
            failure = fault_plan.rank_failure_at(iteration)
            if failure is not None and iteration not in handled_failures:
                handled_failures.add(iteration)
                if not snapshots:
                    raise ChaosInvariantViolation(
                        f"rank {failure.rank} failed before the first checkpoint"
                    )
                iteration = snapshots[-1].restore(trainer)
                restores += 1
                continue
            if iteration % checkpoint_every == 0:
                snapshots.append(TrainerCheckpoint.capture(trainer, iteration))
            trainer.train_step(global_batch, iteration=iteration)
            iteration += 1

        # --- publish under corruption: interleave the remaining steps
        tier = build_serving_tier(
            trainer,
            n_shard_ranks=2,
            n_replicas=2,
            cache_rows=64,
            retry_policy=retry_policy,
            checksum=True,
            fault_injector=injector,
            keep_stale=True,
        )
        # Traffic before the publications warms the replica caches, so the
        # successful round has rows to displace into the stale store (a
        # plain simulator: the chaos run's breakers stay untouched, and the
        # round invalidates every table, so the crash meets cold caches).
        warmup = RequestLoadGenerator(dataset, qps=qps, seed=seed + 4)
        ServingSimulator(tier.replicas, config).run(warmup.generate(n_requests))
        pub_reports = []
        staleness_after_last_success = 0.0
        last_success_bound = 0.0
        for round_index in range(publish_rounds):
            trainer.train_step(global_batch, iteration=n_iterations + round_index)
            report = tier.publisher.publish(iteration=n_iterations + round_index)
            pub_reports.append(report)
            if report.succeeded:
                staleness_after_last_success = tier.publisher.staleness()
                last_success_bound = report.staleness_bound
                if report.compressed and staleness_after_last_success > (
                    last_success_bound * (1 + 1e-6) + 1e-12
                ):
                    raise ChaosInvariantViolation(
                        "staleness accumulated across failed rounds: "
                        f"{staleness_after_last_success} > bound {last_success_bound}"
                    )
        if pub_reports[0].succeeded:
            raise ChaosInvariantViolation(
                "round 0 was fully corrupted and should have been abandoned"
            )
        if not pub_reports[-1].succeeded:
            raise ChaosInvariantViolation("round 1 should have recovered by retry")
        faulty_makespan = trainer.simulator.makespan()

        # --- serve through the shard crash with stale fallback + breaker
        serve_trace = Timeline()
        loadgen = RequestLoadGenerator(dataset, qps=qps, seed=seed + 2)
        requests = loadgen.generate(n_requests)
        serving = ServingSimulator(
            tier.replicas,
            config,
            fault_injector=injector,
            retry_policy=retry_policy,
            hedge_delay=span / 20,
            breaker_reset_seconds=span / 3,
        )
        serving_report = serving.run(
            requests,
            replica_available_at=pub_reports[-1].downtime_seconds,
            trace=serve_trace,
        )

        # --- fault spans onto the training timeline's OBS lane
        injector.annotate(trainer.simulator.timeline)

        snapshot = registry.snapshot()
        timelines = {
            "train": trainer.simulator.timeline,
            "publish": tier.publisher.simulator.timeline,
            "serve": serve_trace,
        }
        offsets = {"publish": faulty_makespan, "serve": faulty_makespan}
        trace = unified_chrome_trace(timelines, offsets=offsets)
        report_text = run_report(
            snapshot, timelines=timelines, title="Day in the life under faults"
        )

    # ------------------------------------------------------ the invariants
    faulty_params = _final_param_bytes(trainer.model)
    params_identical = faulty_params == healthy_params
    if not params_identical:
        raise ChaosInvariantViolation(
            "post-restore training diverged: final parameters are not "
            "byte-identical to the uninterrupted twin"
        )
    if faulty_makespan < healthy_makespan:
        raise ChaosInvariantViolation(
            f"chaos training makespan {faulty_makespan} fell below the healthy "
            f"twin's {healthy_makespan} — injected faults can only delay work"
        )
    accounted = (
        serving_report.fresh_requests + serving_report.impaired_requests
    )
    if accounted != serving_report.n_requests:
        raise ChaosInvariantViolation(
            f"response accounting leak: {serving_report.n_requests} requests, "
            f"{accounted} accounted (fresh + impaired)"
        )
    if serving_report.stale_rows == 0:
        raise ChaosInvariantViolation(
            "the shard crash window produced no counted stale rows "
            f"({serving_report.degraded_rows} degraded) — failures were served "
            "silently, or the stale store had nothing to answer from"
        )

    # Compound bound: live rows are within publication bound + shard
    # storage bound of the trainer's tables; everything else is counted.
    shard_bound = max(
        (
            tier.servers[rank].error_bound(table_id)
            for rank in range(len(tier.servers))
            for table_id in tier.sharding.tables_of(rank)
        ),
        default=0.0,
    )
    compound_bound = last_success_bound + shard_bound

    paths = write_artifacts(out_dir, snapshot, trace, report_text, trace_name="chaos_trace.json")

    return ChaosResult(
        snapshot=snapshot,
        trace=trace,
        report=report_text,
        healthy_train_makespan=healthy_makespan,
        faulty_train_makespan=faulty_makespan,
        params_bit_identical=params_identical,
        checkpoints_taken=len(snapshots),
        restores=restores,
        publish_rounds=len(pub_reports),
        failed_publish_rounds=sum(1 for r in pub_reports if not r.succeeded),
        publish_attempts_total=sum(r.attempts for r in pub_reports),
        staleness_after_last_success=staleness_after_last_success,
        last_success_staleness_bound=last_success_bound,
        compound_bound=compound_bound,
        stale_rows=serving_report.stale_rows,
        degraded_rows=serving_report.degraded_rows,
        impaired_requests=serving_report.impaired_requests,
        fresh_requests=serving_report.fresh_requests,
        n_requests=serving_report.n_requests,
        paths=paths,
    )
