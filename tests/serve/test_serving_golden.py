"""Golden ``ServingReport`` digests for the serving request path.

Everything below was recorded at commit ``16243c1`` — the last one where
``ServingSimulator.run`` chose between ``service_seconds`` (healthy) and a
separate ``_service_under_faults`` body — and pins what the single request
path must reproduce:

* **healthy worlds, bit for bit** — blake2b over every ``ServingReport``
  field (floats as ``.hex()``), plus the ``SERVE_REQUEST`` ledger and both
  counter tracks of a traced run and the ``serve_*`` metric families of an
  OBS-enabled run;
* **fault-configured worlds** — the parent's integer fields as literals and
  its float fields to ``rel=1e-12`` (the unified loop accumulates *elapsed*
  seconds from 0 instead of absolute time from ``start``, which moves the
  last bits of a latency: ``(start + wire) - start`` became ``wire``).

There is no copy of the old bodies to compare against.  Run
``python tests/serve/test_serving_golden.py`` to print the values of the
current checkout (only ever paste them here from a commit whose serving
path is known good).
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import IB_HDR_LIKE, NVLINK_LIKE, NetworkModel, Timeline, Topology
from repro.dist.timeline import EventCategory
from repro.faults import FaultInjector, FaultPlan, RetryPolicy, ShardCrashFault
from repro.model import DLRM, DLRMConfig
from repro.obs.runtime import capture
from repro.serve import (
    EmbeddingShardServer,
    InferenceReplica,
    RequestLoadGenerator,
    ServingSimulator,
)
from repro.train.sharding import ShardingPlan

N_TABLES = 6
ROWS = 400
DIM = 16
QPS = 2000.0


def _hexed(value):
    """Floats as ``.hex()`` (bit-exact), containers element-wise."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_hexed(v) for v in value]
    return value


def _digest(items) -> str:
    h = hashlib.blake2b(digest_size=16)
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def report_digest(report) -> str:
    return _digest(
        (name, _hexed(value)) for name, value in dataclasses.asdict(report).items()
    )


def trace_digest(trace: Timeline) -> str:
    events = trace.events_in_category(EventCategory.SERVE_REQUEST)
    assert len(events) == len(trace.events)
    return _digest(
        [
            (e.rank, e.start.hex(), e.duration.hex(), sorted(e.args.items()))
            for e in events
        ]
        + [
            (name, s.time.hex(), s.value.hex())
            for name in ("serve_queue_depth", "serve_cache_hit_rate")
            for s in trace.counter_track(name)
        ]
    )


def serve_families_digest(snapshot) -> str:
    def frozen(value):
        if dataclasses.is_dataclass(value):  # HistogramData
            return [(k, _hexed(v)) for k, v in dataclasses.asdict(value).items()]
        return _hexed(value)

    return _digest(
        (name, kind, key, frozen(value))
        for name, kind, key, value in snapshot.iter_series()
        if name.startswith("serve_")
    )


# ------------------------------------------------------------------ worlds


@pytest.fixture(scope="module")
def world():
    return build_world()


def build_world():
    spec = make_uniform_spec(
        "serve-golden", n_tables=N_TABLES, cardinality=ROWS, zipf_exponent=1.4
    )
    dataset = SyntheticClickDataset(spec, seed=31)
    config = DLRMConfig.from_dataset(spec, embedding_dim=DIM, seed=32)
    return dataset, config, DLRM(config)


def build_replicas(model, *, n_shards=2, n_replicas=2, cache_rows=64, keep_stale=False):
    sharding = ShardingPlan.round_robin(N_TABLES, n_shards)
    servers = [
        EmbeddingShardServer.from_model(
            model, sharding.tables_of(rank), error_bound=1e-2, rows_per_block=32
        )
        for rank in range(n_shards)
    ]
    return [
        InferenceReplica(i, servers, sharding, cache_rows, keep_stale=keep_stale)
        for i in range(n_replicas)
    ]


def requests_for(dataset, n=300, seed=7):
    return RequestLoadGenerator(dataset, qps=QPS, seed=seed).generate(n)


def _two_node_fabric() -> NetworkModel:
    """Replicas (ranks 0-1) on node 0, shard nodes (ranks 2-3) on node 1:
    every miss crosses the inter-node link."""
    return NetworkModel.from_topology(
        Topology.hierarchical(2, 2, NVLINK_LIKE, IB_HDR_LIKE)
    )


#: name -> (replica kwargs, network factory, replica_available_at)
HEALTHY_WORLDS = {
    "flat/cache=0": (dict(cache_rows=0), None, 0.0),
    "flat/cache=32": (dict(cache_rows=32), None, 0.0),
    "flat/cache=4096": (dict(cache_rows=4096), None, 0.0),
    "flat/4-shards/3-replicas": (dict(n_shards=4, n_replicas=3), None, 0.0),
    "hier/cache=0": (dict(cache_rows=0), _two_node_fabric, 0.0),
    "hier/cache=64": (dict(cache_rows=64), _two_node_fabric, 0.0),
    "flat/available_at=scalar": (dict(cache_rows=32), None, 2e-3),
    "hier/available_at=per-replica": (dict(), _two_node_fabric, (0.0, 3e-3)),
}

HEALTHY_DIGESTS = {
    "flat/cache=0": "ff4f106437504d23eef139db69b3cb41",
    "flat/cache=32": "f7dadda371635ff0e9465e8f535f1067",
    "flat/cache=4096": "3e1b950596bcace3ad1c74ad9a10241a",
    "flat/4-shards/3-replicas": "95c818b5b677b5e038ccfdc4ade1064d",
    "hier/cache=0": "0b849b1f3e9a6b65fffccc11fc73e5d7",
    "hier/cache=64": "8d3d0404aba7882056002887145d474f",
    "flat/available_at=scalar": "c9cdd257c6ff8e7d62f055602bb80907",
    "hier/available_at=per-replica": "3c9b8e436f79fa699b7acfa2745e7f52",
}
#: (report, SERVE_REQUEST events + both counter tracks)
TRACED_DIGESTS = ("3c9b8e436f79fa699b7acfa2745e7f52", "4c81247bba5f1f8cc4ed9a6fed4d3aa2")
SERVICE_SECONDS_DIGEST = "c12671069e1883e199e3b1224329e40a"
#: (report, serve_* families of the snapshot)
OBS_DIGESTS = ("f7dadda371635ff0e9465e8f535f1067", "d3d38bb6aabb52089835dd405a857ec3")


def run_healthy(world, name, **run_kwargs):
    dataset, config, model = world
    replica_kwargs, network, available_at = HEALTHY_WORLDS[name]
    sim = ServingSimulator(
        build_replicas(model, **replica_kwargs),
        config,
        network=network() if network else None,
    )
    return sim.run(
        requests_for(dataset), replica_available_at=available_at, **run_kwargs
    )


def run_traced(world):
    trace = Timeline()
    report = run_healthy(world, "hier/available_at=per-replica", trace=trace)
    return report_digest(report), trace_digest(trace)


def run_service_seconds(world):
    """``service_seconds(i, request)`` called directly with its default
    ``start`` / ``request_index``, outside ``run``."""
    dataset, config, model = world
    sim = ServingSimulator(
        build_replicas(model, cache_rows=32), config, network=_two_node_fabric()
    )
    priced = [
        sim.service_seconds(i % 2, request)
        for i, request in enumerate(requests_for(dataset, 60))
    ]
    return _digest(
        (seconds.hex(), sorted(dataclasses.asdict(stats).items()))
        for seconds, stats in priced
    )


def run_observed(world):
    with capture() as registry:
        report = run_healthy(world, "flat/cache=32")
    return report_digest(report), serve_families_digest(registry.snapshot())


# ---------------------------------------------------------- faulty worlds


def _run_permanent_crash(world):
    """Shard 0 down for the whole trace, no cache: every request degrades."""
    dataset, config, model = world
    sim = ServingSimulator(
        build_replicas(model, cache_rows=0),
        config,
        fault_injector=FaultInjector(
            FaultPlan(shard_crashes=(ShardCrashFault(0, start=0.0, duration=1e6),)),
            seed=1,
        ),
        retry_policy=RetryPolicy(max_attempts=2, timeout_seconds=0.005, seed=1),
        breaker_reset_seconds=0.01,
    )
    return sim.run(requests_for(dataset, 150, seed=9))


def _run_short_crash(world):
    """A crash shorter than the retry budget: ridden out by retries."""
    dataset, config, model = world
    sim = ServingSimulator(
        build_replicas(model, cache_rows=256),
        config,
        network=_two_node_fabric(),
        fault_injector=FaultInjector(
            FaultPlan(shard_crashes=(ShardCrashFault(0, start=0.0, duration=0.004),)),
            seed=1,
        ),
        retry_policy=RetryPolicy(max_attempts=3, timeout_seconds=0.005, seed=1),
        breaker_reset_seconds=0.01,
    )
    return sim.run(requests_for(dataset, 150, seed=9))


def _run_stale_hedged_crash(world):
    """Warm ``keep_stale`` caches, invalidate every table (a publication),
    then serve through a crash with hedged pulls: the stale store answers
    what it holds, the rest degrades."""
    dataset, config, model = world
    replicas = build_replicas(model, cache_rows=64, keep_stale=True)
    ServingSimulator(replicas, config).run(requests_for(dataset, 120, seed=5))
    for replica in replicas:
        replica.invalidate_tables(range(N_TABLES))
    sim = ServingSimulator(
        replicas,
        config,
        fault_injector=FaultInjector(
            FaultPlan(shard_crashes=(ShardCrashFault(1, start=0.01, duration=0.03),)),
            seed=2,
        ),
        retry_policy=RetryPolicy(max_attempts=2, timeout_seconds=0.004, seed=2),
        hedge_delay=5e-7,
        breaker_reset_seconds=0.01,
    )
    return sim.run(requests_for(dataset, 150, seed=9), replica_available_at=1e-3)


FAULTY_WORLDS = {
    "permanent-crash/cache=0": _run_permanent_crash,
    "short-crash/retries": _run_short_crash,
    "crash/keep-stale/hedged": _run_stale_hedged_crash,
}

#: ``dataclasses.asdict(ServingReport)`` at the parent, verbatim
FAULTY_REPORTS: dict[str, dict] = {
    "permanent-crash/cache=0": {
        "n_requests": 150,
        "n_replicas": 2,
        "cache_rows": 0,
        "offered_qps": 1707.4091621589173,
        "sustained_qps": 1718.0407525661176,
        "p50_latency": 4.204880503268747e-05,
        "p99_latency": 0.010468305671941406,
        "mean_latency": 0.001116766311166663,
        "max_latency": 0.011967899584943556,
        "cache_hit_rate": 0.0,
        "hits": 0,
        "misses": 900,
        "mean_fanout": 1.0,
        "blocks_pulled": 450,
        "pulled_compressed_nbytes": 222926,
        "pulled_raw_nbytes": 913408,
        "makespan": 0.08730875549718799,
        "replica_busy_seconds": (0.020077583937701614, 0.02814745916678636),
        "replica_requests": (75, 75),
        "stale_rows": 0,
        "degraded_rows": 450,
        "stale_requests": 0,
        "degraded_requests": 150,
        "impaired_requests": 150,
        "pull_retries": 1,
        "pull_timeouts": 8,
        "breaker_fast_fails": 149,
        "hedged_pulls": 0,
    },
    "short-crash/retries": {
        "n_requests": 150,
        "n_replicas": 2,
        "cache_rows": 256,
        "offered_qps": 1707.4091621589173,
        "sustained_qps": 1718.1214780657479,
        "p50_latency": 3.7936492624485174e-05,
        "p99_latency": 0.00670012443041683,
        "mean_latency": 0.000339413609917695,
        "max_latency": 0.006986597568166496,
        "cache_hit_rate": 0.6666666666666666,
        "hits": 600,
        "misses": 300,
        "mean_fanout": 1.3466666666666667,
        "blocks_pulled": 300,
        "pulled_compressed_nbytes": 148053,
        "pulled_raw_nbytes": 602112,
        "makespan": 0.08730465331756938,
        "replica_busy_seconds": (0.009803168757980915, 0.009554059176651558),
        "replica_requests": (75, 75),
        "stale_rows": 0,
        "degraded_rows": 0,
        "stale_requests": 0,
        "degraded_requests": 0,
        "impaired_requests": 0,
        "pull_retries": 2,
        "pull_timeouts": 2,
        "breaker_fast_fails": 0,
        "hedged_pulls": 0,
    },
    "crash/keep-stale/hedged": {
        "n_requests": 150,
        "n_replicas": 2,
        "cache_rows": 64,
        "offered_qps": 1707.4091621589173,
        "sustained_qps": 1718.1455476304982,
        "p50_latency": 3.702601676842249e-05,
        "p99_latency": 0.007805664541740991,
        "mean_latency": 0.0005696647513476808,
        "max_latency": 0.009758276141858596,
        "cache_hit_rate": 0.5844444444444444,
        "hits": 526,
        "misses": 374,
        "mean_fanout": 1.1466666666666667,
        "blocks_pulled": 280,
        "pulled_compressed_nbytes": 138228,
        "pulled_raw_nbytes": 560128,
        "makespan": 0.0873034302634405,
        "replica_busy_seconds": (0.016421635653608734, 0.01073519258479294),
        "replica_requests": (75, 75),
        "stale_rows": 37,
        "degraded_rows": 57,
        "stale_requests": 31,
        "degraded_requests": 46,
        "impaired_requests": 63,
        "pull_retries": 1,
        "pull_timeouts": 5,
        "breaker_fast_fails": 62,
        "hedged_pulls": 88,
    },
}


# ------------------------------------------------------------------- tests


class TestHealthyReportsAreBitIdentical:
    @pytest.mark.parametrize("name", sorted(HEALTHY_WORLDS))
    def test_report_digest(self, world, name):
        assert report_digest(run_healthy(world, name)) == HEALTHY_DIGESTS[name]

    def test_traced_run_ledger_and_counter_tracks(self, world):
        assert run_traced(world) == TRACED_DIGESTS

    def test_observed_run_serve_families(self, world):
        assert run_observed(world) == OBS_DIGESTS

    def test_service_seconds_with_default_start(self, world):
        assert run_service_seconds(world) == SERVICE_SECONDS_DIGEST

    def test_tracing_and_obs_do_not_change_the_report(self, world):
        assert TRACED_DIGESTS[0] == HEALTHY_DIGESTS["hier/available_at=per-replica"]
        assert OBS_DIGESTS[0] == HEALTHY_DIGESTS["flat/cache=32"]


class TestFaultyReportsMatchTheParent:
    @pytest.mark.parametrize("name", sorted(FAULTY_WORLDS))
    def test_integers_equal_floats_within_1e12(self, world, name):
        got = dataclasses.asdict(FAULTY_WORLDS[name](world))
        want = FAULTY_REPORTS[name]
        assert got.keys() == want.keys()
        for field, expected in want.items():
            if isinstance(expected, float) or (
                isinstance(expected, tuple) and isinstance(expected[0], float)
            ):
                assert got[field] == pytest.approx(expected, rel=1e-12), field
            else:
                assert got[field] == expected, field

    def test_each_world_exercises_what_it_names(self):
        permanent = FAULTY_REPORTS["permanent-crash/cache=0"]
        assert permanent["impaired_requests"] == permanent["n_requests"]
        assert permanent["breaker_fast_fails"] > permanent["pull_timeouts"] > 0
        short = FAULTY_REPORTS["short-crash/retries"]
        assert short["pull_retries"] > 0 and short["impaired_requests"] == 0
        stale = FAULTY_REPORTS["crash/keep-stale/hedged"]
        assert stale["stale_rows"] > 0 and stale["degraded_rows"] > 0
        assert stale["hedged_pulls"] > 0


if __name__ == "__main__":
    import pprint

    w = build_world()
    print("HEALTHY_DIGESTS = {")
    for world_name in HEALTHY_WORLDS:
        print(f"    {world_name!r}: {report_digest(run_healthy(w, world_name))!r},")
    print("}")
    print(f"TRACED_DIGESTS = {run_traced(w)!r}")
    print(f"SERVICE_SECONDS_DIGEST = {run_service_seconds(w)!r}")
    print(f"OBS_DIGESTS = {run_observed(w)!r}")
    print("FAULTY_REPORTS = ", end="")
    pprint.pprint(
        {n: dataclasses.asdict(run(w)) for n, run in FAULTY_WORLDS.items()},
        sort_dicts=False,
    )
