"""Discrete-event serving simulation over the training tier's fabrics.

:class:`ServingSimulator` prices what a DLRM inference fleet actually
pays per request: the embedding *fan-out*.  Each request needs one row
from every table; cache hits are local, and every miss is a row-granular
pull from the owning :class:`~repro.serve.shard_server.EmbeddingShardServer`
— a message across the same :class:`~repro.dist.network.Topology` fabrics
(NVLink/PCIe/IB presets) the cluster simulator prices for training, plus a
decompression kernel on the replica priced with the training tier's
:class:`~repro.dist.gpu.GpuModel` and per-codec
:class:`~repro.adaptive.selection.DeviceThroughputProfile`.

The queueing model is deliberately simple and honest: replicas are
single-server FIFO queues under open-loop arrivals (requests are routed
round-robin), so offered load beyond a replica's service rate shows up as
unbounded queueing delay — the p99 cliff real serving tiers fall off.
Pulls to distinct shard nodes fan out concurrently while pulls sharing
one shard-to-replica link serialize on it (the wire cost of a request is
its busiest link); decode kernels serialize on the replica's device.

Everything here is deterministic for a fixed request trace and
configuration — the property the serving tests pin — and replica/shard
placement maps onto fabric ranks (replicas first, shard nodes after), so
a 2-node hierarchy with replicas on node 0 and shards on node 1 prices
every miss across the inter-node link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adaptive.selection import PAPER_A100_PROFILE, DeviceThroughputProfile
from repro.dist.gpu import A100_LIKE, GpuModel
from repro.dist.network import NetworkModel
from repro.dist.timeline import EventCategory, Timeline
from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import LinkState
from repro.faults.retry import RetryPolicy
from repro.model.config import DLRMConfig
from repro.nn.interaction import DotInteraction
from repro.obs.registry import Histogram
from repro.obs.runtime import OBS
from repro.serve.loadgen import Request
from repro.serve.replica import InferenceReplica
from repro.serve.shard_server import ShardPull

__all__ = ["ServingReport", "ServingSimulator"]

#: What a healthy run feeds the one request loop: an undisturbed link, and a
#: single attempt that (nothing being able to fail) never times out.
_HEALTHY_LINK = LinkState()
_NULL_POLICY = RetryPolicy(max_attempts=1, timeout_seconds=math.inf)


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one simulated serving run."""

    n_requests: int
    n_replicas: int
    cache_rows: int
    offered_qps: float
    sustained_qps: float
    p50_latency: float
    p99_latency: float
    mean_latency: float
    max_latency: float
    cache_hit_rate: float
    hits: int
    misses: int
    mean_fanout: float
    blocks_pulled: int
    pulled_compressed_nbytes: int
    pulled_raw_nbytes: int
    makespan: float
    replica_busy_seconds: tuple[float, ...]
    replica_requests: tuple[int, ...]
    #: graceful-degradation accounting (zeros on healthy runs)
    stale_rows: int = 0  # rows answered from the stale store (bounded past state)
    degraded_rows: int = 0  # rows answered as zeros (partial fan-out)
    stale_requests: int = 0  # requests containing >= 1 stale row
    degraded_requests: int = 0  # requests containing >= 1 degraded row
    impaired_requests: int = 0  # requests containing >= 1 stale or degraded row
    pull_retries: int = 0
    pull_timeouts: int = 0
    breaker_fast_fails: int = 0
    hedged_pulls: int = 0

    @property
    def fresh_requests(self) -> int:
        """Requests answered entirely from live state (neither stale nor
        degraded rows)."""
        return self.n_requests - self.impaired_requests

    @property
    def mean_replica_utilization(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return float(np.mean(self.replica_busy_seconds)) / self.makespan

    def row(self) -> str:
        """One formatted report line (benchmark tables)."""
        return (
            f"qps={self.sustained_qps:9.1f}  p50={self.p50_latency * 1e3:7.3f}ms  "
            f"p99={self.p99_latency * 1e3:7.3f}ms  hit={self.cache_hit_rate:6.1%}  "
            f"fanout={self.mean_fanout:4.1f}  pulled={self.pulled_compressed_nbytes / 1e6:8.3f}MB"
        )


class ServingSimulator:
    """Price an inference fleet: replicas + compressed shards on a fabric.

    There is one request path: :meth:`run` prices every request with
    :meth:`service_seconds`, whose per-shard attempt loop decides which of
    the one :meth:`InferenceReplica.gather`'s pull groups are delivered.  A
    healthy run is that loop with no injector and a single attempt that
    cannot time out; the fault keywords below change the loop's inputs,
    never which code runs.

    Parameters
    ----------
    replicas:
        The serving replicas (their ``servers``/``sharding`` define the
        shard tier).  All replicas must share one server set.
    config:
        Model architecture — prices the per-request inference compute
        (bottom MLP, dot interaction, top MLP at batch 1).
    network:
        Fabric pricing.  With a topology, replica ``i`` occupies rank
        ``i`` and shard node ``s`` occupies rank ``n_replicas + s``; a
        pull from shard ``s`` to replica ``i`` pays that ordered pair's
        link.  Without one, every pull pays the flat point-to-point cost.
    gpu / profile:
        Device cost model and per-codec decode throughputs.
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector`.  When
        present, every shard pull is evaluated against the fault plan at
        its simulated start time: a crashed shard or severed link turns
        the pull into a timeout, a degraded link stretches its wire time
        (and times out if stretched past the retry policy's budget).
    retry_policy:
        :class:`~repro.faults.retry.RetryPolicy` for shard pulls — per
        pull-group timeout, capped exponential backoff, deterministic
        jitter, all elapsing on the request's service time.  Defaults to
        a single attempt: with a 50 ms timeout when a fault injector is
        given, with none (nothing can fail) otherwise.
    hedge_delay:
        Optional hedged-pull delay: if a pull group's first attempt has
        not completed after this many seconds, a second identical pull is
        issued and the request takes whichever finishes first — the
        classic tail-latency hedge, effective when slowness is transient.
    breaker_failure_threshold / breaker_reset_seconds:
        Per-shard circuit breaker: after this many consecutive pull
        failures the shard is failed fast (degraded answers, no timeout
        waits) until the reset window elapses and a half-open probe
        succeeds.
    """

    def __init__(
        self,
        replicas: Sequence[InferenceReplica],
        config: DLRMConfig,
        network: NetworkModel | None = None,
        gpu: GpuModel = A100_LIKE,
        profile: DeviceThroughputProfile = PAPER_A100_PROFILE,
        *,
        fault_injector=None,
        retry_policy=None,
        hedge_delay: float | None = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_seconds: float = 0.25,
    ):
        if not replicas:
            raise ValueError("need at least one replica")
        first = replicas[0]
        for replica in replicas:
            same_servers = len(replica.servers) == len(first.servers) and all(
                a is b for a, b in zip(replica.servers, first.servers)
            )
            if not same_servers or replica.sharding != first.sharding:
                raise ValueError("all replicas must share one shard-server tier")
        if hedge_delay is not None and hedge_delay <= 0:
            raise ValueError(f"hedge_delay must be > 0, got {hedge_delay!r}")
        self.replicas = tuple(replicas)
        self.config = config
        self.network = network if network is not None else NetworkModel()
        self.gpu = gpu
        self.profile = profile
        self.n_replicas = len(self.replicas)
        self.n_shards = first.sharding.n_ranks
        self.fault_injector = fault_injector
        self.hedge_delay = hedge_delay
        if retry_policy is None:
            retry_policy = _NULL_POLICY if fault_injector is None else RetryPolicy(max_attempts=1)
        self.retry_policy = retry_policy
        self._breakers = tuple(
            CircuitBreaker(
                failure_threshold=breaker_failure_threshold,
                reset_timeout_seconds=breaker_reset_seconds,
            )
            for _ in range(self.n_shards)
        )
        total_ranks = self.n_replicas + self.n_shards
        if (
            self.network.topology is not None
            and self.network.topology.n_ranks < total_ranks
        ):
            raise ValueError(
                f"fabric spans {self.network.topology.n_ranks} ranks but the "
                f"serving tier needs {total_ranks} "
                f"({self.n_replicas} replicas + {self.n_shards} shard nodes)"
            )
        # Per-request inference compute is configuration-constant: price
        # it once.  Batch-1 MLPs are launch-overhead bound, exactly the
        # regime the GpuModel's fixed-overhead term models.
        bottom_sizes = (config.n_dense, *config.bottom_hidden, config.embedding_dim)
        interaction = DotInteraction(config.interaction_features, config.embedding_dim)
        top_sizes = (interaction.output_dim, *config.top_hidden, 1)
        self._inference_seconds = (
            gpu.mlp_time(1, bottom_sizes)
            + gpu.interaction_time(1, config.interaction_features, config.embedding_dim)
            + gpu.mlp_time(1, top_sizes)
            + gpu.lookup_time(1, config.embedding_dim, config.n_tables)
        )

    # -------------------------------------------------------------- pricing

    def _pull_wire_seconds(
        self, replica_index: int, shard_rank: int, nbytes: int, t: float
    ) -> float | None:
        """One shard pull's wire time starting at ``t``, over the fabric's
        (shard -> replica) link when a topology is present; ``None`` when
        the fault plan has the shard or its link down at ``t``.  The only
        place the fault injector is consulted."""
        src = self.n_replicas + shard_rank
        state = _HEALTHY_LINK
        if self.fault_injector is not None:
            if self.fault_injector.shard_down(shard_rank, t):
                return None
            state = self.fault_injector.link_state(src, replica_index, t)
            if not state.up:
                return None
        topology = self.network.topology
        if topology is None:
            latency, bandwidth = self.network.latency, self.network.bandwidth
        else:
            latency = topology.latency_matrix[src, replica_index]
            bandwidth = topology.bandwidth_matrix[src, replica_index]
        return float(latency + state.extra_latency + nbytes / (bandwidth * state.bandwidth_factor))

    def _group_wire(
        self, replica_index: int, shard_rank: int, pulls: Sequence[ShardPull], t: float
    ) -> float | None:
        """Wire time of one shard's pull group starting at ``t`` (pulls on
        one shard->replica link serialize); ``None`` if unreachable."""
        total = 0.0
        for pull in pulls:
            wire = self._pull_wire_seconds(replica_index, shard_rank, pull.compressed_nbytes, t)
            if wire is None:
                return None
            total += wire
        return total

    def service_seconds(
        self, replica_index: int, request: Request, start: float = 0.0, request_index: int = 0
    ) -> tuple[float, "GatherStats"]:
        """Price one request on one replica; returns (seconds, stats).

        Pull groups (one per contacted shard) fan out concurrently — the
        wire cost is the busiest group — and decode kernels then serialize
        on the replica's device.  Inside a group, failed attempts (timeout
        charged), backoff waits and the eventual transfer elapse serially
        from the request's ``start``; the fault plan and the shard's
        breaker are evaluated at ``start + elapsed``.  A group that
        exhausts its attempts — or is failed fast by an open breaker — is
        not delivered, and :meth:`InferenceReplica.gather` answers its
        tables stale or as zeros, counted.  A healthy request is this loop
        with one attempt that succeeds.
        """
        policy = self.retry_policy
        wire = 0.0
        retries = timeouts = fast_fails = hedged = 0

        def deliver(shard_rank: int, pulls: Sequence[ShardPull]) -> bool:
            nonlocal wire, retries, timeouts, fast_fails, hedged
            breaker = self._breakers[shard_rank]
            elapsed = 0.0
            delivered = False
            for attempt in range(policy.max_attempts):
                if not breaker.allows(start + elapsed):
                    fast_fails += 1
                    break
                if attempt:
                    retries += 1
                    elapsed += policy.backoff_seconds(
                        attempt, "pull", replica_index, request_index, shard_rank
                    )
                group = self._group_wire(replica_index, shard_rank, pulls, start + elapsed)
                if group is not None and self.hedge_delay is not None and group > self.hedge_delay:
                    # Hedge: a second identical pull starts hedge_delay
                    # later; the request takes whichever finishes first.
                    hedged += 1
                    hedge = self._group_wire(
                        replica_index, shard_rank, pulls, start + elapsed + self.hedge_delay
                    )
                    if hedge is not None:
                        group = min(group, self.hedge_delay + hedge)
                if group is not None and group <= policy.timeout_seconds:
                    elapsed += group
                    breaker.record_success(start + elapsed)
                    delivered = True
                    break
                timeouts += 1
                elapsed += policy.timeout_seconds
                breaker.record_failure(start + elapsed)
            wire = max(wire, elapsed)
            return delivered

        result = self.replicas[replica_index].gather(request.sparse, deliver)
        decode = 0.0
        for pull in result.pulls:
            decode += self.gpu.throughput_kernel_time(
                pull.raw_nbytes, self.profile.for_codec(pull.codec).decompress
            )
        seconds = wire + decode + self._inference_seconds
        return seconds, GatherStats(
            hits=result.hits,
            misses=result.misses,
            fanout=result.fanout,
            blocks=sum(p.blocks_touched for p in result.pulls),
            compressed_nbytes=result.pulled_compressed_nbytes,
            raw_nbytes=result.pulled_raw_nbytes,
            stale_rows=result.stale_rows,
            degraded_rows=result.degraded_rows,
            retries=retries,
            timeouts=timeouts,
            fast_fails=fast_fails,
            hedged=hedged,
        )

    # ------------------------------------------------------------------ run

    def run(
        self,
        requests: Sequence[Request],
        replica_available_at: Sequence[float] | float = 0.0,
        *,
        trace: Timeline | None = None,
    ) -> ServingReport:
        """Serve an open-loop trace; requests route round-robin.

        ``replica_available_at`` marks replicas busy until a given time
        (e.g. while applying a delta publication) — arrivals during the
        window queue behind it, which is how publication bandwidth turns
        into visible tail latency.

        Latency percentiles come from the metrics registry's histogram
        quantile estimator: *exact-rank* order statistics (the sample at
        rank ``max(1, ceil(q * n))``) while the trace fits the exact
        reservoir, degrading to bucket upper edges on very long traces —
        a sliding-window-style estimate, never an interpolated value no
        request actually saw.

        With ``trace``, every request is recorded as a ``SERVE_REQUEST``
        span on its replica's lane, plus two counter tracks:
        ``serve_queue_depth`` (outstanding requests at each arrival) and
        ``serve_cache_hit_rate`` (cumulative, sampled at completions).
        """
        if not requests:
            raise ValueError("need at least one request")
        # FIFO queueing needs arrival order; merged traces (e.g. two
        # traffic classes) arrive interleaved, so sort rather than assume.
        requests = sorted(requests, key=lambda r: r.arrival_seconds)
        if np.isscalar(replica_available_at):
            free = [float(replica_available_at)] * self.n_replicas
        else:
            free = [float(t) for t in replica_available_at]
            if len(free) != self.n_replicas:
                raise ValueError(
                    f"replica_available_at must have {self.n_replicas} entries, "
                    f"got {len(free)}"
                )
        busy = [0.0] * self.n_replicas
        counts = [0] * self.n_replicas
        latencies = np.empty(len(requests), dtype=np.float64)
        latency_hist = Histogram(
            "serving_latency_seconds", "per-request latency (this run)"
        )
        hits = misses = blocks = 0
        compressed_nbytes = raw_nbytes = 0
        stale_rows = degraded_rows = 0
        stale_requests = degraded_requests = impaired_requests = 0
        pull_retries = pull_timeouts = breaker_fast_fails = hedged_pulls = 0
        fanouts = np.empty(len(requests), dtype=np.float64)
        first_arrival = min(r.arrival_seconds for r in requests)
        last_completion = 0.0
        obs_on = OBS.enabled
        # Outstanding completion times per replica, for the queue-depth track.
        pending: list[list[float]] = [[] for _ in range(self.n_replicas)]
        for i, request in enumerate(requests):
            replica_index = i % self.n_replicas
            start = max(request.arrival_seconds, free[replica_index])
            seconds, stats = self.service_seconds(replica_index, request, start, i)
            completion = start + seconds
            free[replica_index] = completion
            busy[replica_index] += seconds
            counts[replica_index] += 1
            latency = completion - request.arrival_seconds
            latencies[i] = latency
            latency_hist.observe(latency)
            last_completion = max(last_completion, completion)
            hits += stats.hits
            misses += stats.misses
            blocks += stats.blocks
            compressed_nbytes += stats.compressed_nbytes
            raw_nbytes += stats.raw_nbytes
            fanouts[i] = stats.fanout
            stale_rows += stats.stale_rows
            degraded_rows += stats.degraded_rows
            stale_requests += 1 if stats.stale_rows else 0
            degraded_requests += 1 if stats.degraded_rows else 0
            impaired_requests += 1 if (stats.stale_rows or stats.degraded_rows) else 0
            pull_retries += stats.retries
            pull_timeouts += stats.timeouts
            breaker_fast_fails += stats.fast_fails
            hedged_pulls += stats.hedged
            if trace is not None:
                arrival = request.arrival_seconds
                for queue in pending:
                    while queue and queue[0] <= arrival:
                        queue.pop(0)
                pending[replica_index].append(completion)
                request_args = {
                    "request": i,
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "fanout": stats.fanout,
                }
                if stats.stale_rows:
                    request_args["stale_rows"] = stats.stale_rows
                if stats.degraded_rows:
                    request_args["degraded_rows"] = stats.degraded_rows
                if stats.retries:
                    request_args["retries"] = stats.retries
                trace.record(
                    replica_index,
                    EventCategory.SERVE_REQUEST,
                    start,
                    seconds,
                    args=request_args,
                )
                trace.record_counter(
                    "serve_queue_depth", arrival, float(sum(map(len, pending)))
                )
                trace.record_counter(
                    "serve_cache_hit_rate",
                    completion,
                    hits / max(1, hits + misses),
                )
            if obs_on:
                reg = OBS.registry
                if OBS.slo_hub is not None:
                    OBS.slo_hub.feed("serve_latency", completion, latency)
                reg.counter("serve_requests_total", "requests served").inc()
                reg.histogram(
                    "serve_latency_seconds", "request latency (arrival to completion)"
                ).observe(latency)
                reg.histogram(
                    "serve_queue_wait_seconds", "time queued before service"
                ).observe(start - request.arrival_seconds)
                reg.histogram(
                    "serve_fanout", "distinct shard nodes pulled per request"
                ).observe(stats.fanout)
                if stats.stale_rows:
                    reg.counter(
                        "serve_stale_rows_total",
                        "rows answered from the stale store (bounded past state)",
                    ).inc(stats.stale_rows)
                if stats.degraded_rows:
                    reg.counter(
                        "serve_degraded_rows_total",
                        "rows answered as zeros after pull failure (partial fan-out)",
                    ).inc(stats.degraded_rows)
                if stats.retries:
                    reg.counter(
                        "serve_pull_retries_total", "shard-pull retry attempts"
                    ).inc(stats.retries)
                if stats.timeouts:
                    reg.counter(
                        "serve_pull_timeouts_total", "shard pulls that timed out"
                    ).inc(stats.timeouts)
                if stats.fast_fails:
                    reg.counter(
                        "serve_breaker_fast_fails_total",
                        "pull groups failed fast by an open circuit breaker",
                    ).inc(stats.fast_fails)
                if stats.hedged:
                    reg.counter(
                        "serve_hedged_pulls_total", "pull groups that issued a hedge"
                    ).inc(stats.hedged)
        makespan = last_completion - first_arrival
        total_lookups = hits + misses
        return ServingReport(
            n_requests=len(requests),
            n_replicas=self.n_replicas,
            cache_rows=self.replicas[0].cache_rows,
            offered_qps=(len(requests) - 1) / max(
                1e-12,
                max(r.arrival_seconds for r in requests) - first_arrival,
            ),
            sustained_qps=len(requests) / max(1e-12, makespan),
            p50_latency=latency_hist.quantile(0.5),
            p99_latency=latency_hist.quantile(0.99),
            mean_latency=float(latencies.mean()),
            max_latency=float(latencies.max()),
            cache_hit_rate=hits / total_lookups if total_lookups else 0.0,
            hits=hits,
            misses=misses,
            mean_fanout=float(fanouts.mean()),
            blocks_pulled=blocks,
            pulled_compressed_nbytes=compressed_nbytes,
            pulled_raw_nbytes=raw_nbytes,
            makespan=makespan,
            replica_busy_seconds=tuple(busy),
            replica_requests=tuple(counts),
            stale_rows=stale_rows,
            degraded_rows=degraded_rows,
            stale_requests=stale_requests,
            degraded_requests=degraded_requests,
            impaired_requests=impaired_requests,
            pull_retries=pull_retries,
            pull_timeouts=pull_timeouts,
            breaker_fast_fails=breaker_fast_fails,
            hedged_pulls=hedged_pulls,
        )


@dataclass(frozen=True)
class GatherStats:
    """Per-request gather accounting (internal to the simulator)."""

    hits: int
    misses: int
    fanout: int
    blocks: int
    compressed_nbytes: int
    raw_nbytes: int
    #: zeros when every pull group is delivered at its first attempt
    stale_rows: int = 0
    degraded_rows: int = 0
    retries: int = 0
    timeouts: int = 0
    fast_fails: int = 0
    hedged: int = 0
