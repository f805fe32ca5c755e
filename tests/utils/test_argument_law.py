"""The argument law: a malformed argument raises ``ValueError`` naming it.

Every constructor and function that checks an argument with
:mod:`repro.utils.validation` is called here with each bad value of that
argument's kind, every other argument well formed:

* a count (``check_count``): NaN, inf, 2.7 and -1;
* a finite value — ``>= 0`` (``check_finite_nonnegative``) or a range that
  must stay finite (a slowdown, a decay's initial scale, a bandwidth
  factor): NaN, inf and -1;
* a value > 0 where inf is legal (``check_positive``): NaN and -1.

Each raises a ``ValueError`` whose message names the argument.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive.autotune import autotune_global_error_bound
from repro.adaptive.decay import AbruptDrop, LinearDecay, StepwiseDecay
from repro.data.specs import DatasetSpec, TableSpec, make_uniform_spec, scaled_spec
from repro.data.synthetic import SyntheticClickDataset, zipf_probabilities
from repro.dist.network import LinkSpec, NetworkModel
from repro.dist.simulator import ClusterSimulator
from repro.faults.breaker import CircuitBreaker
from repro.faults.checkpoint import TrainerCheckpoint
from repro.faults.plan import (
    CorruptionFault,
    LinkFault,
    RankFailureFault,
    ShardCrashFault,
    StragglerFault,
)
from repro.faults.retry import RetryPolicy
from repro.faults.scenario import run_day_in_the_life_under_faults
from repro.model.config import DLRMConfig
from repro.model.dlrm import DLRM
from repro.nn.embedding import EmbeddingTable
from repro.nn.init import (
    clustered_embedding,
    laplace_embedding,
    normal_embedding,
    uniform_embedding,
    xavier_uniform,
)
from repro.nn.interaction import DotInteraction
from repro.obs.registry import exponential_buckets, linear_buckets
from repro.obs.scenario import run_day_in_the_life
from repro.obs.slo import SLOSpec
from repro.serve.replica import InferenceReplica
from repro.serve.shard_server import EmbeddingShardServer
from repro.serve.simulator import ServingSimulator
from repro.train.hybrid import HybridParallelTrainer
from repro.train.reference import ReferenceTrainer
from repro.train.sharding import ShardingPlan

NAN, INF = float("nan"), float("inf")

#: the bad values of each kind of argument
BAD_VALUES = {
    "count": (NAN, INF, 2.7, -1),
    "finite": (NAN, INF, -1),
    "positive": (NAN, -1),
}


def _rng():
    return np.random.default_rng(0)


def _world():
    """A two-table, two-rank world: spec, dataset, config."""
    spec = make_uniform_spec("law", n_tables=2, cardinality=32)
    dataset = SyntheticClickDataset(spec, seed=0)
    config = DLRMConfig.from_dataset(spec, embedding_dim=4, seed=0)
    return spec, dataset, config


def _trainer(**kwargs):
    _, dataset, config = _world()
    return HybridParallelTrainer(DLRM(config), dataset, ClusterSimulator(2), **kwargs)


def _reference_trainer():
    _, dataset, config = _world()
    return ReferenceTrainer(DLRM(config), dataset)


def _serving_simulator(hedge_delay):
    _, _, config = _world()
    model = DLRM(config)
    sharding = ShardingPlan(owners=(0, 1), n_ranks=2)
    servers = [EmbeddingShardServer.from_model(model, sharding.tables_of(r)) for r in range(2)]
    replicas = [InferenceReplica(0, servers, sharding, cache_rows=4)]
    return ServingSimulator(replicas, config, hedge_delay=hedge_delay)


#: ``(argument name, kind, call)``: ``call(value)`` passes ``value`` as
#: that argument
CASES = [
    # faults
    ("start", "finite", lambda v: LinkFault(start=v, duration=1.0)),
    ("duration", "positive", lambda v: LinkFault(start=0.0, duration=v)),
    ("bandwidth_factor", "finite", lambda v: LinkFault(0.0, 1.0, bandwidth_factor=v)),
    ("extra_latency", "finite", lambda v: LinkFault(0.0, 1.0, extra_latency=v)),
    ("rank", "count", lambda v: StragglerFault(rank=v, start=0.0, duration=1.0, slowdown=2.0)),
    ("start", "finite", lambda v: StragglerFault(0, start=v, duration=1.0, slowdown=2.0)),
    ("duration", "positive", lambda v: StragglerFault(0, start=0.0, duration=v, slowdown=2.0)),
    ("slowdown", "finite", lambda v: StragglerFault(0, start=0.0, duration=1.0, slowdown=v)),
    ("shard_rank", "count", lambda v: ShardCrashFault(shard_rank=v, start=0.0, duration=1.0)),
    ("start", "finite", lambda v: ShardCrashFault(0, start=v, duration=1.0)),
    ("duration", "positive", lambda v: ShardCrashFault(0, start=0.0, duration=v)),
    ("round_index", "count", lambda v: CorruptionFault(round_index=v)),
    ("table_index", "count", lambda v: CorruptionFault(0, table_index=v)),
    ("attempt", "count", lambda v: CorruptionFault(0, attempt=v)),
    ("rank", "count", lambda v: RankFailureFault(rank=v, at_iteration=0)),
    ("at_iteration", "count", lambda v: RankFailureFault(rank=0, at_iteration=v)),
    ("max_attempts", "count", lambda v: RetryPolicy(max_attempts=v)),
    ("timeout_seconds", "positive", lambda v: RetryPolicy(timeout_seconds=v)),
    ("base_backoff_seconds", "finite", lambda v: RetryPolicy(base_backoff_seconds=v)),
    ("reset_timeout_seconds", "positive", lambda v: CircuitBreaker(reset_timeout_seconds=v)),
    ("iteration", "count", lambda v: TrainerCheckpoint.capture(None, v)),
    ("n_iterations", "count", lambda v: run_day_in_the_life_under_faults(n_iterations=v)),
    ("n_requests", "count", lambda v: run_day_in_the_life_under_faults(n_requests=v)),
    # adaptive
    ("initial_scale", "finite", lambda v: StepwiseDecay(v, 10)),
    ("phase_iterations", "count", lambda v: StepwiseDecay(2.0, v)),
    ("n_steps", "count", lambda v: StepwiseDecay(2.0, 10, n_steps=v)),
    ("phase_iterations", "count", lambda v: LinearDecay(2.0, v)),
    ("initial_scale", "finite", lambda v: AbruptDrop(v, 10)),
    ("iteration", "count", lambda v: StepwiseDecay(2.0, 10)(v)),
    ("max_trials", "count", lambda v: autotune_global_error_bound(lambda b: (1.0, 1.0), 1.0, max_trials=v)),
    # data
    ("cardinality", "count", lambda v: TableSpec(table_id=0, cardinality=v)),
    ("zipf_exponent", "finite", lambda v: TableSpec(0, 8, zipf_exponent=v)),
    ("value_scale", "positive", lambda v: TableSpec(0, 8, value_scale=v)),
    ("n_clusters", "count", lambda v: TableSpec(0, 8, n_clusters=v)),
    ("n_dense", "count", lambda v: DatasetSpec("law", (TableSpec(0, 8),), n_dense=v)),
    ("max_cardinality", "count", lambda v: scaled_spec(make_uniform_spec("law", 1, 8), v)),
    ("cardinality", "count", lambda v: zipf_probabilities(v, 1.0)),
    ("exponent", "finite", lambda v: zipf_probabilities(8, v)),
    ("dense_weight", "finite", lambda v: SyntheticClickDataset(make_uniform_spec("law", 1, 8), dense_weight=v)),
    ("batch_size", "count", lambda v: SyntheticClickDataset(make_uniform_spec("law", 1, 8)).batch(v)),
    # model
    ("n_dense", "count", lambda v: DLRMConfig(n_dense=v, table_cardinalities=(8,))),
    ("embedding_dim", "count", lambda v: DLRMConfig(4, (8,), embedding_dim=v)),
    ("cardinality", "count", lambda v: DLRMConfig(4, (8, v))),
    # nn
    ("fan_in", "count", lambda v: xavier_uniform(_rng(), v, 4)),
    ("fan_out", "count", lambda v: xavier_uniform(_rng(), 4, v)),
    ("scale", "positive", lambda v: uniform_embedding(_rng(), 8, 4, v)),
    ("scale", "positive", lambda v: normal_embedding(_rng(), 8, 4, v)),
    ("scale", "positive", lambda v: laplace_embedding(_rng(), 8, 4, v)),
    ("scale", "positive", lambda v: clustered_embedding(_rng(), 8, 4, v, 2, 0.0)),
    ("n_clusters", "count", lambda v: clustered_embedding(_rng(), 8, 4, 0.1, v, 0.0)),
    ("jitter", "finite", lambda v: clustered_embedding(_rng(), 8, 4, 0.1, 2, v)),
    ("cardinality", "count", lambda v: EmbeddingTable(v, 4, _rng())),
    ("dim", "count", lambda v: EmbeddingTable(8, v, _rng())),
    ("n_features", "count", lambda v: DotInteraction(v, 4)),
    ("dim", "count", lambda v: DotInteraction(3, v)),
    # obs
    ("start", "positive", lambda v: exponential_buckets(v, 2.0, 4)),
    ("factor", "positive", lambda v: exponential_buckets(1e-6, v, 4)),
    ("count", "count", lambda v: exponential_buckets(1e-6, 2.0, v)),
    ("width", "positive", lambda v: linear_buckets(0.0, v, 4)),
    ("count", "count", lambda v: linear_buckets(0.0, 0.1, v)),
    ("threshold", "finite", lambda v: SLOSpec("slo", "serve_latency", threshold=v)),
    ("fast_window", "finite", lambda v: SLOSpec("slo", "serve_latency", 0.1, fast_window=v)),
    ("slow_window", "finite", lambda v: SLOSpec("slo", "serve_latency", 0.1, slow_window=v)),
    ("n_iterations", "count", lambda v: run_day_in_the_life(n_iterations=v)),
    ("n_requests", "count", lambda v: run_day_in_the_life(n_requests=v)),
    # dist
    ("latency", "finite", lambda v: LinkSpec(bandwidth=1e9, latency=v)),
    ("latency", "finite", lambda v: NetworkModel(latency=v)),
    # train
    ("n_ranks", "count", lambda v: ShardingPlan(owners=(0,), n_ranks=v)),
    ("pipeline_chunks", "count", lambda v: _trainer(pipeline_chunks=v)),
    ("global_batch_size", "count", lambda v: _trainer().train_step(v, 0)),
    ("n_iterations", "count", lambda v: _trainer().train(v, 8)),
    ("n_iterations", "count", lambda v: _reference_trainer().train(v, 8)),
    ("batch_size", "count", lambda v: _reference_trainer().train(1, v)),
    # serve
    ("hedge_delay", "positive", _serving_simulator),
]


def _params():
    for name, kind, call in CASES:
        callee = call.__code__.co_names[0] if call.__name__ == "<lambda>" else call.__name__
        for value in BAD_VALUES[kind]:
            yield pytest.param(name, call, value, id=f"{callee}-{name}={value!r}")


@pytest.mark.parametrize("name, call, value", list(_params()))
def test_a_malformed_argument_raises_a_value_error_naming_it(name, call, value):
    with pytest.raises(ValueError, match=name):
        call(value)


#: arguments each constructor accepted before the checks went through
#: :mod:`repro.utils.validation`, and what each once did
HOLES = {
    "StragglerFault(slowdown=nan) was a silent no-op": lambda: StragglerFault(0, 0.0, 1.0, NAN),
    "LinkFault(extra_latency=nan) priced a pull at NaN": lambda: LinkFault(0.0, 1.0, extra_latency=NAN),
    "LinkFault(start=nan)": lambda: LinkFault(NAN, 1.0),
    "StragglerFault(rank=1.5)": lambda: StragglerFault(1.5, 0.0, 1.0, 2.0),
    "CorruptionFault(round_index=0.5)": lambda: CorruptionFault(0.5),
    "RankFailureFault(at_iteration=1.5)": lambda: RankFailureFault(0, 1.5),
    "RetryPolicy(timeout_seconds=nan)": lambda: RetryPolicy(timeout_seconds=NAN),
    "RetryPolicy(max_attempts=2.5)": lambda: RetryPolicy(max_attempts=2.5),
    "RetryPolicy(base_backoff_seconds=nan)": lambda: RetryPolicy(base_backoff_seconds=NAN),
    "CircuitBreaker(reset_timeout_seconds=nan)": lambda: CircuitBreaker(reset_timeout_seconds=NAN),
    "TableSpec(zipf_exponent=nan)": lambda: TableSpec(0, 8, zipf_exponent=NAN),
    "TableSpec(value_scale=nan)": lambda: TableSpec(0, 8, value_scale=NAN),
    "TableSpec(cardinality=100.5)": lambda: TableSpec(0, 100.5),
    "exponential_buckets(nan, 2, 4) returned NaN bounds": lambda: exponential_buckets(NAN, 2, 4),
    "StepwiseDecay(nan, 10) failed at its first call": lambda: StepwiseDecay(NAN, 10),
    "StepwiseDecay(n_steps=2.7) truncated to 2": lambda: StepwiseDecay(2.0, 10, n_steps=2.7),
    "LinearDecay(phase_iterations=10.5) truncated to 10": lambda: LinearDecay(2.0, 10.5),
}


@pytest.mark.parametrize("hole", HOLES)
def test_an_argument_once_accepted_is_rejected_at_construction(hole):
    with pytest.raises(ValueError):
        HOLES[hole]()


@pytest.mark.parametrize(
    "accepted",
    [
        lambda: RetryPolicy(timeout_seconds=INF),
        lambda: CircuitBreaker(reset_timeout_seconds=INF),
        lambda: LinkFault(0.0, INF),
        lambda: StragglerFault(0, 0.0, 1.0, 1.0),
        lambda: CorruptionFault(np.int64(3), attempt=1.0),
    ],
    ids=["never-timing-out-policy", "never-resetting-breaker", "endless-link-fault", "unit-slowdown", "whole-numbers"],
)
def test_a_well_formed_argument_at_the_edge_is_accepted(accepted):
    accepted()
