"""Tests for the decode-side LRU cache and the stateless entropy leg."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.cache import LruCache
from repro.compression.entropy import EntropyCompressor


class TestLruCache:
    def test_get_put_and_hit_counters(self):
        cache = LruCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_order_is_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_capacity_bounds_the_entries(self):
        cache = LruCache(2)
        for key in "abc":
            cache.put(key, key)
        assert [cache.get(key) for key in "abc"] == [None, "b", "c"]


class TestStatelessEntropy:
    """The entropy leg builds each book from the batch it encodes: round
    trips stay within the bound however the batches drift, and a payload
    never depends on an earlier call."""

    def test_roundtrip_within_bound_across_shifting_batches(self):
        rng = np.random.default_rng(0)
        codec = EntropyCompressor()
        base = rng.normal(0, 0.1, size=(64, 8)).astype(np.float32)
        for it in range(6):
            batch = base[rng.integers(0, 64, size=100)] + np.float32(1e-4 * it)
            payload = codec.compress(batch, 0.01)
            assert payload == codec.compress(batch, 0.01)
            rec = codec.decompress(payload)
            assert np.abs(batch - rec).max() <= 0.01 + 1e-6

    def test_roundtrip_within_bound_across_widening_batches(self):
        """A batch with symbols the previous one never used (a wider value
        range over the same minimum bin) still round-trips."""
        rng = np.random.default_rng(3)
        codec = EntropyCompressor()
        floor = np.full((1, 8), -2.0, dtype=np.float32)
        for scale in (0.01, 0.3, 1.0):
            batch = np.concatenate([rng.normal(0, scale, (64, 8)).astype(np.float32), floor])
            payload = codec.compress(batch, 0.001)
            assert payload == codec.compress(batch, 0.001)
            rec = codec.decompress(payload)
            assert np.abs(batch - rec).max() <= 0.001 + 1e-5

    def test_bytes_after_a_shifted_minimum_equal_a_fresh_encoders(self):
        """A shifted minimum bin re-indexes every symbol; the payload of the
        second batch equals a fresh encoder's."""
        rng = np.random.default_rng(11)
        values = np.where(
            rng.random((256, 16)) < 0.9, 0.0, rng.normal(0, 0.2, (256, 16))
        ).astype(np.float32)
        batch1 = np.concatenate([values, np.full((1, 16), -2.00, np.float32)])
        batch2 = np.concatenate([values, np.full((1, 16), -1.98, np.float32)])
        codec = EntropyCompressor()
        codec.compress(batch1, 0.01)
        second = codec.compress(batch2, 0.01)
        assert second == EntropyCompressor().compress(batch2, 0.01)
        assert np.abs(batch2 - codec.decompress(second)).max() <= 0.01 + 1e-6

    def test_repeated_batch_repeats_its_payload(self):
        data = np.random.default_rng(2).normal(0, 0.1, (128, 16)).astype(np.float32)
        codec = EntropyCompressor()
        assert codec.compress(data, 0.01) == codec.compress(data, 0.01)


class TestPipeline:
    def _pipeline(self):
        from repro.adaptive import AdaptiveController, OfflineAnalyzer
        from repro.train import CompressionPipeline

        rng = np.random.default_rng(8)
        samples = {
            j: rng.normal(0, 0.1, size=(64, 8)).astype(np.float32) for j in range(2)
        }
        plan = OfflineAnalyzer().analyze(samples)
        return CompressionPipeline(AdaptiveController(plan)), samples

    def test_roundtrip_within_each_tables_bound(self):
        pipeline, samples = self._pipeline()
        for it in range(4):
            for table_id, rows in samples.items():
                rec = pipeline.roundtrip(table_id, rows, it)
                bound = pipeline.controller.error_bound(table_id, it)
                assert np.abs(rows - rec).max() <= bound * (1 + 1e-5)

    def test_buffer_models_are_memoized(self):
        pipeline, _ = self._pipeline()
        chunks = [("entropy", 1 << 20), ("vector_lz", 1 << 20)]
        t1 = pipeline.compression_seconds(chunks)
        models_after_first = dict(pipeline._buffer_models)
        t2 = pipeline.compression_seconds(chunks)
        assert t1 == t2
        for key, model in pipeline._buffer_models.items():
            assert models_after_first[key] is model
