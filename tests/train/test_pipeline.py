"""Tests for the compression pipeline (stages ① and ④)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    AdaptiveController,
    OfflineAnalyzer,
    StepwiseDecay,
)
from repro.compression.registry import decompress_any
from repro.train.pipeline import CompressionPipeline
from tests.conftest import make_gaussian_batch, make_hot_batch


@pytest.fixture
def controller(rng) -> AdaptiveController:
    samples = {0: make_hot_batch(rng), 1: make_gaussian_batch(rng)}
    plan = OfflineAnalyzer().analyze(samples)
    return AdaptiveController(plan, StepwiseDecay(2.0, 50, n_steps=2))


class TestCompressDecompress:
    def test_roundtrip_within_effective_bound(self, controller, rng):
        pipeline = CompressionPipeline(controller)
        rows = make_hot_batch(rng, batch=64)
        for iteration in (0, 25, 100):
            out = pipeline.roundtrip(0, rows, iteration)
            bound = controller.error_bound(0, iteration)
            assert np.abs(rows - out).max() <= bound + 1e-5

    def test_stats_recorded(self, controller, rng):
        pipeline = CompressionPipeline(controller)
        rows = make_hot_batch(rng, batch=64)
        pipeline.compress_slice(0, rows, 3)
        pipeline.compress_slice(1, rows, 3)
        assert len(pipeline.stats) == 2
        assert pipeline.stats[0].table_id == 0
        assert pipeline.stats[0].iteration == 3
        stats = pipeline.stats[0]
        assert stats.original_nbytes > stats.compressed_nbytes

    def test_mean_ratio_pools_every_transfer(self, controller, rng):
        pipeline = CompressionPipeline(controller)
        pipeline.compress_slice(0, make_hot_batch(rng, batch=64), 0)
        pipeline.compress_slice(1, make_gaussian_batch(rng, batch=64), 0)
        ratios = [s.original_nbytes / s.compressed_nbytes for s in pipeline.stats]
        assert min(ratios) <= pipeline.mean_ratio() <= max(ratios)
        original = sum(s.original_nbytes for s in pipeline.stats)
        assert pipeline.mean_ratio() == original / sum(s.compressed_nbytes for s in pipeline.stats)

    def test_mean_ratio_empty_rejected(self, controller):
        with pytest.raises(ValueError):
            CompressionPipeline(controller).mean_ratio()

    def test_decay_loosens_early_bounds(self, controller, rng):
        """Early iterations use a larger bound -> smaller payloads."""
        pipeline = CompressionPipeline(controller)
        rows = make_gaussian_batch(rng, batch=256)
        early = pipeline.compress_slice(1, rows, 0)
        late = pipeline.compress_slice(1, rows, 100)
        assert len(early) <= len(late)

    def test_codec_follows_plan(self, controller, rng):
        from repro.compression.base import parse_payload

        pipeline = CompressionPipeline(controller)
        payload = pipeline.compress_slice(0, make_hot_batch(rng, batch=32), 0)
        header, _ = parse_payload(payload)
        assert header["codec"] == controller.compressor_name(0)


def _forced_controller(rng) -> AdaptiveController:
    """Three tables, codecs pinned: 0 and 2 vector-LZ (the stacked route),
    1 entropy (the per-slice keyed route).  The decay makes the bound
    depend on the iteration."""
    samples = {t: make_hot_batch(rng, batch=64, dim=8) for t in range(3)}
    plan = OfflineAnalyzer().analyze(samples)
    tables = {
        t: replace(table, compressor="entropy" if t == 1 else "vector_lz")
        for t, table in plan.tables.items()
    }
    return AdaptiveController(replace(plan, tables=tables), StepwiseDecay(2.0, 4, n_steps=2))


def _hot(rng, rows=16, dtype=np.float32) -> np.ndarray:
    return make_hot_batch(rng, batch=rows, dim=8).astype(dtype)


#: ``(table_id, rows)`` slice sequences in the shapes stage ① meets
SLICE_LAYOUTS = {
    "single_slice": lambda rng: [(0, _hot(rng))],
    "lz_table_stack": lambda rng: [(0, _hot(rng)) for _ in range(8)],
    "entropy_table": lambda rng: [(1, _hot(rng)) for _ in range(8)],
    "interleaved_tables": lambda rng: [
        (t, _hot(rng)) for t in (0, 0, 0, 1, 1, 1, 0, 0, 0, 2, 2, 2)
    ],
    "ragged_tail": lambda rng: [(0, _hot(rng, rows)) for rows in (16, 16, 16, 5)],
    "float64_rows": lambda rng: [(2, _hot(rng, dtype=np.float64)) for _ in range(4)],
    "mixed_dtypes": lambda rng: [
        (0, _hot(rng, dtype=dtype)) for dtype in (np.float32, np.float32, np.float64, np.float64)
    ],
    "zero_row_slices": lambda rng: [(0, _hot(rng, rows)) for rows in (0, 0, 0, 16)],
    "exchange_order": lambda rng: [(t, _hot(rng, 8)) for t in range(3) for _ in range(4)],
    "gaussian_rows": lambda rng: [
        (t, make_gaussian_batch(rng, batch=16, dim=8)) for t in (0, 0, 1, 1, 2, 2)
    ],
}


class TestBatchedStages:
    """``compress_slices`` / ``decompress_batch`` are the one stage ① / ④
    path: on every slice layout they equal the per-slice
    ``compress_slice`` / ``decompress_slice`` loops."""

    def _pair(self, layout, seed=5):
        """Two identical fresh pipelines and one slice sequence."""
        slices = SLICE_LAYOUTS[layout](np.random.default_rng(seed))
        batched, looped = (
            CompressionPipeline(_forced_controller(np.random.default_rng(seed))) for _ in range(2)
        )
        return batched, looped, slices

    @pytest.mark.parametrize("iteration", [0, 9])
    @pytest.mark.parametrize("layout", sorted(SLICE_LAYOUTS))
    def test_payloads_and_stats_equal_slice_loop(self, layout, iteration):
        batched, looped, slices = self._pair(layout)
        payloads = batched.compress_slices(slices, iteration)
        expected = [looped.compress_slice(t, rows, iteration) for t, rows in slices]
        assert [bytes(p) for p in payloads] == [bytes(p) for p in expected]
        assert batched.stats == looped.stats
        assert len(batched.stats) == len(slices)

    @pytest.mark.parametrize("layout", sorted(SLICE_LAYOUTS))
    def test_obs_counters_equal_slice_loop(self, layout):
        from repro.obs.runtime import capture

        batched, looped, slices = self._pair(layout)
        with capture() as batched_obs:
            batched.decompress_batch(batched.compress_slices(slices, 2))
        with capture() as looped_obs:
            for payload in [looped.compress_slice(t, rows, 2) for t, rows in slices]:
                looped.decompress_slice(payload)
        assert batched_obs.snapshot() == looped_obs.snapshot()

    @pytest.mark.parametrize("layout", sorted(SLICE_LAYOUTS))
    def test_decompress_batch_equals_per_payload(self, layout):
        batched, _, slices = self._pair(layout)
        payloads = batched.compress_slices(slices, 0)
        arrays = batched.decompress_batch(payloads)
        assert len(arrays) == len(payloads)
        for array, payload, (_, rows) in zip(arrays, payloads, slices):
            expected = decompress_any(payload)
            np.testing.assert_array_equal(array, expected)
            assert array.dtype == expected.dtype == rows.dtype
            assert array.shape == rows.shape

    @pytest.mark.parametrize("layout", sorted(SLICE_LAYOUTS))
    def test_roundtrip_within_error_bound(self, layout):
        batched, _, slices = self._pair(layout)
        arrays = batched.decompress_batch(batched.compress_slices(slices, 0))
        for array, (table_id, rows) in zip(arrays, slices):
            bound = batched.controller.error_bound(table_id, 0)
            assert np.abs(array - rows).max(initial=0.0) <= bound + 1e-5

    def test_empty_batch(self, rng):
        pipeline = CompressionPipeline(_forced_controller(rng))
        assert pipeline.compress_slices([], 0) == []
        assert pipeline.decompress_batch([]) == []
        assert pipeline.stats == []

    def test_one_dim_rows_rejected_like_compress_slice(self, rng):
        pipeline = CompressionPipeline(_forced_controller(rng))
        rows = np.zeros(8, dtype=np.float32)
        for table_id in (0, 1):
            with pytest.raises(ValueError, match="2-D"):
                pipeline.compress_slice(table_id, rows, 0)
            with pytest.raises(ValueError, match="2-D"):
                pipeline.compress_slices([(table_id, rows), (table_id, rows)], 0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from([0, 3, 8, 16])),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_slice_sequence_equals_slice_loop(self, spec, iteration):
        rng = np.random.default_rng(11)
        slices = [(t, _hot(rng, rows)) for t, rows in spec]
        batched, looped = (
            CompressionPipeline(_forced_controller(np.random.default_rng(3))) for _ in range(2)
        )
        payloads = batched.compress_slices(slices, iteration)
        expected = [looped.compress_slice(t, rows, iteration) for t, rows in slices]
        assert [bytes(p) for p in payloads] == [bytes(p) for p in expected]
        assert batched.stats == looped.stats
        for array, payload in zip(batched.decompress_batch(payloads), payloads):
            np.testing.assert_array_equal(array, decompress_any(payload))


class TestTimingModel:
    def test_fused_faster_than_chunked(self, controller):
        fused = CompressionPipeline(controller, fused_kernels=True)
        chunked = CompressionPipeline(controller, fused_kernels=False)
        chunks = [("vector_lz", 2**20)] * 16
        assert fused.compression_seconds(chunks) < chunked.compression_seconds(chunks)
        assert fused.decompression_seconds(chunks) < chunked.decompression_seconds(chunks)

    def test_mixed_codecs_priced_separately(self, controller):
        pipeline = CompressionPipeline(controller)
        both = pipeline.compression_seconds(
            [("vector_lz", 2**20), ("entropy", 2**20)]
        )
        lz_only = pipeline.compression_seconds([("vector_lz", 2**20)])
        assert both > lz_only

    def test_empty_chunks_cost_nothing(self, controller):
        pipeline = CompressionPipeline(controller)
        assert pipeline.compression_seconds([]) == 0.0
        assert pipeline.decompression_seconds([]) == 0.0
