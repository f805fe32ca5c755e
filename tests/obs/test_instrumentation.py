"""Hot-path instrumentation: rich when enabled, invisible when disabled.

Every instrumented site guards on ``OBS.enabled``; with the runtime off
the registry must stay completely untouched and behavior identical —
the zero-overhead contract the perf benchmark prices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.compression.hybrid import HybridCompressor
from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import ClusterSimulator
from repro.model import DLRM, DLRMConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import capture, disable, enable
from repro.train import CompressionPipeline, HybridParallelTrainer
from tests.conftest import counter_track, series_value

N_TABLES = 4


def make_trainer(**kwargs):
    spec = make_uniform_spec(
        "obs-instr", n_tables=N_TABLES, cardinality=200, zipf_exponent=1.2
    )
    dataset = SyntheticClickDataset(spec, seed=11, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(spec, embedding_dim=8, seed=12)
    model = DLRM(config)
    batch = dataset.batch(64, batch_index=10_000_000)
    samples = {j: model.lookup(j, batch.sparse[:, j]) for j in range(N_TABLES)}
    plan = OfflineAnalyzer().analyze(samples)
    pipeline = CompressionPipeline(AdaptiveController(plan))
    return HybridParallelTrainer(
        model, dataset, ClusterSimulator(2), pipeline=pipeline, lr=0.2, **kwargs
    )


class TestDisabledIsInvisible:
    def test_disabled_run_leaves_registry_untouched(self):
        reg = MetricsRegistry()
        trainer = make_trainer()
        trainer.train_step(32, iteration=0)  # runs with OBS disabled
        assert reg.names() == []

    def test_enabled_and_disabled_runs_agree_numerically(self):
        losses_off = []
        trainer = make_trainer()
        for i in range(2):
            losses_off.append(trainer.train_step(32, iteration=i))
        with capture():
            enable(MetricsRegistry())
            trainer_on = make_trainer()
            losses_on = [trainer_on.train_step(32, iteration=i) for i in range(2)]
        assert losses_on == losses_off


class TestTrainerInstrumentation:
    def test_step_metrics(self):
        with capture() as reg:
            trainer = make_trainer()
            trainer.train_step(32, iteration=0)
            trainer.train_step(32, iteration=1)
        snap = reg.snapshot()
        assert snap.counter_value("train_iterations_total") == 2
        assert series_value(snap, "train_step_seconds").count == 2
        eff = series_value(snap, "train_overlap_efficiency_last")
        assert 0.0 <= eff <= 1.0
        assert snap.counter_value("train_forward_wire_bytes_total") > 0

    def test_train_step_span_and_wire_counter_on_timeline(self):
        from repro.dist.timeline import OBS_STREAM, EventCategory

        with capture():
            trainer = make_trainer()
            trainer.train_step(32, iteration=0)
        spans = [
            e
            for e in trainer.simulator.timeline.events
            if e.category == EventCategory.TRAIN_STEP
        ]
        assert len(spans) == 1
        assert spans[0].stream == OBS_STREAM
        assert spans[0].args["iteration"] == 0
        assert counter_track(trainer.simulator.timeline, "train_wire_bytes")


class TestCommInstrumentation:
    def test_stage_seconds_and_bytes(self):
        with capture() as reg:
            trainer = make_trainer()
            trainer.train_step(32, iteration=0)
        snap = reg.snapshot()
        for stage in ("compress", "metadata", "payload", "decompress", "allreduce"):
            assert snap.counter_value("comm_seconds_total", stage=stage) > 0, stage
        assert snap.counter_value("comm_bytes_total", stage="payload") > 0
        assert snap.counter_value("comm_exchanges_total", mode="sequential") >= 1

    def test_overlapped_mode_records_stall_and_hidden_wire(self):
        with capture() as reg:
            trainer = make_trainer(overlap=True, pipeline_chunks=4)
            trainer.train_step(32, iteration=0)
        snap = reg.snapshot()
        assert snap.counter_value("comm_exchanges_total", mode="overlapped") >= 1
        names = set(snap.names())
        assert "comm_wire_stall_seconds_total" in names
        assert "comm_wire_hidden_seconds_total" in names


class TestPipelineInstrumentation:
    def test_per_table_ratio_and_bound_utilization(self):
        with capture() as reg:
            trainer = make_trainer()
            trainer.train_step(32, iteration=0)
        snap = reg.snapshot()
        raw = sum(
            v
            for name, _kind, _key, v in snap.iter_series()
            if name == "pipeline_raw_bytes_total"
        )
        assert raw > 0
        ratio = series_value(snap, "pipeline_compression_ratio", table="0")
        assert ratio.count > 0
        util = series_value(snap, "pipeline_bound_utilization", table="0")
        assert util > 0

    def test_decompressed_bytes_counted(self):
        with capture() as reg:
            trainer = make_trainer()
            trainer.train_step(32, iteration=0)
        snap = reg.snapshot()
        assert snap.counter_value("pipeline_decompressed_bytes_total") > 0


class TestHybridInstrumentation:
    def test_compress_decompress_byte_counters(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(64, 8)).astype(np.float32)
        hybrid = HybridCompressor()
        with capture() as reg:
            payload = hybrid.compress(batch, 1e-2)
            hybrid.decompress(payload)
        snap = reg.snapshot()
        assert snap.counter_value("hybrid_raw_bytes_total") == batch.nbytes
        assert snap.counter_value("hybrid_compressed_bytes_total") == len(payload)
        assert snap.counter_value("hybrid_decompressed_bytes_total") == batch.nbytes

    @pytest.mark.parametrize("encoder", ["auto", "lz", "huffman"])
    def test_byte_counters_cover_keyed_and_replay_routes(self, encoder):
        """Serve-tier (``key=``) and pinned traffic count once per call,
        like the plain route."""
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(64, 8)).astype(np.float32)
        hybrid = HybridCompressor(encoder=encoder, pin_refresh=8)
        with capture() as reg:
            sizes = [
                len(hybrid.compress(batch, 1e-2)),
                len(hybrid.compress(batch, 1e-2, key="t")),  # trial in auto mode
                len(hybrid.compress(batch, 1e-2, key="t")),  # replay in auto mode
            ]
        snap = reg.snapshot()
        assert snap.counter_value("hybrid_raw_bytes_total") == len(sizes) * batch.nbytes
        assert snap.counter_value("hybrid_compressed_bytes_total") == sum(sizes)
        if encoder == "auto":
            assert hybrid.pins.trials == 1 and hybrid.pins.pinned_hits == 1

    def test_pin_trial_replay_and_switch_counters(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(64, 8)).astype(np.float32)
        hybrid = HybridCompressor(pin_refresh=8)
        with capture() as reg:
            hybrid.compress(batch, 1e-2, key="t")  # trial
            hybrid.compress(batch, 1e-2, key="t")  # replay
        snap = reg.snapshot()
        trials = sum(
            v
            for name, _kind, _key, v in snap.iter_series()
            if name == "hybrid_pin_trial_total"
        )
        replays = sum(
            v
            for name, _kind, _key, v in snap.iter_series()
            if name == "hybrid_pin_replay_total"
        )
        assert trials == 1
        assert replays == 1


class TestServeInstrumentation:
    def test_request_metrics(self):
        from repro.serve import build_serving_tier
        from repro.serve.loadgen import RequestLoadGenerator
        from repro.serve.simulator import ServingSimulator

        trainer = make_trainer()
        spec_dataset = trainer.dataset
        tier = build_serving_tier(trainer, n_shard_ranks=2, n_replicas=1, cache_rows=32)
        requests = RequestLoadGenerator(spec_dataset, qps=1000.0, seed=3).generate(40)
        sim = ServingSimulator(tier.replicas, trainer.model.config)
        with capture() as reg:
            report = sim.run(requests)
        snap = reg.snapshot()
        assert snap.counter_value("serve_requests_total") == 40
        assert series_value(snap, "serve_latency_seconds").count == 40
        hits = snap.counter_value("serve_cache_hits_total", replica="0")
        misses = snap.counter_value("serve_cache_misses_total", replica="0")
        assert hits == report.hits
        assert misses == report.misses
        assert snap.counter_value("shard_pulls_total") > 0
        assert snap.counter_value("shard_pull_bytes_total", kind="compressed") > 0

    def test_publish_metrics(self):
        from repro.serve import build_serving_tier

        trainer = make_trainer()
        trainer.train_step(32, iteration=0)
        tier = build_serving_tier(trainer, n_shard_ranks=2, n_replicas=1, cache_rows=32)
        with capture() as reg:
            report = tier.publisher.publish(iteration=0)
        snap = reg.snapshot()
        assert snap.counter_value("publish_rounds_total", mode="compressed") == 1
        assert (
            snap.counter_value("publish_wire_bytes_total", mode="compressed")
            == report.wire_nbytes
        )
        down = series_value(snap, "publish_downtime_seconds", mode="compressed")
        assert down.count == 1

    def test_publish_skip_counters_cover_every_table_of_every_round(self):
        """Each round counts every table once, as shipped or as within its
        bound, and ``run_report`` closes the publish breakdown with the
        totals."""
        from repro.dist.timeline import Timeline
        from repro.obs.exporters import run_report
        from repro.serve import build_serving_tier
        from repro.obs.scenario import evict_rows

        trainer = make_trainer()
        tier = build_serving_tier(trainer, n_shard_ranks=2, n_replicas=1, cache_rows=32)
        pushed = [[0, 2], [], [1]]
        with capture() as reg:
            for iteration, tables in enumerate(pushed):
                trainer.train_step(32, iteration=iteration)
                evict_rows(trainer.model, tables, 3, 0, iteration)
                tier.publisher.publish(iteration=iteration)
        snap = reg.snapshot()
        reports = tier.publisher.reports
        shipped = snap.counter_value("publish_tables_shipped_total", mode="compressed")
        within = snap.counter_value("publish_tables_within_bound_total", mode="compressed")
        assert shipped == sum(r.shipped for report in reports for r in report.tables) == 3
        assert shipped + within == len(reports) * N_TABLES
        line = "publish: 3 of 12 table deltas shipped; the rest were within bound"
        report = run_report(
            snap, timelines={"publish": tier.publisher.simulator.timeline, "serve": Timeline()}
        )
        assert report.count(line) == 1
        publish_section = report[report.index("publish time breakdown") : report.index(line)]
        assert "serve time breakdown" not in publish_section
        assert report.index(line) < report.index("serve time breakdown")
        assert report.index("shard re-encode:") < report.index(line)

    def test_shard_reencode_counters_match_the_encode_calls(self, monkeypatch):
        """``set_table`` counts what it re-encoded and what it skipped, per
        table, and ``run_report`` sums them into its shard re-encode line."""
        from repro.obs.exporters import run_report
        from repro.serve import EmbeddingShardServer

        rng = np.random.default_rng(5)
        table = rng.normal(0.0, 0.1, size=(200, 8)).astype(np.float32)
        server = EmbeddingShardServer(
            {0: table, 3: table}, 1e-2, {0: "vector_lz", 3: "hybrid"}, rows_per_block=64
        )
        encodes = []  # blocks per codec call

        def counting(real, blocks):
            def call(array, *args, **kwargs):
                encodes.append(blocks(array))
                return real(array, *args, **kwargs)

            return call

        for table_id in (0, 3):
            codec = server._table(table_id)._codec
            monkeypatch.setattr(codec, "compress", counting(codec.compress, lambda a: 1))
            if hasattr(codec, "compress_stack"):
                monkeypatch.setattr(codec, "compress_stack", counting(codec.compress_stack, len))
        update = table.copy()
        update[[5, 130]] += 0.25  # blocks 0 and 2 of 4
        with capture() as reg:
            server.set_table(0, update)
            server.set_table(0, update)  # nothing left to do
            server.set_table(3, update)
        snap = reg.snapshot()
        assert snap.counter_value("shard_blocks_reencoded_total", table="0") == 2
        assert snap.counter_value("shard_blocks_unchanged_total", table="0") == 2 + 4
        assert snap.counter_value("shard_blocks_reencoded_total", table="3") == 2
        assert snap.counter_value("shard_blocks_unchanged_total", table="3") == 2
        assert sum(encodes) == 4
        line = "shard re-encode: 4 of 12 row blocks re-encoded (33.3%)"
        assert line in run_report(snap)
        # with a publish timeline the line closes that tier's breakdown
        from repro.dist.timeline import EventCategory, Timeline

        tiers = {}
        for tier in ("publish", "serve"):
            tiers[tier] = Timeline()
            tiers[tier].record(0, EventCategory.PUBLISH, 0.0, 1.0)
        report = run_report(snap, timelines=tiers)
        assert report.count(line) == 1
        assert report.index("publish time breakdown") < report.index(line)
        assert report.index(line) < report.index("serve time breakdown")
