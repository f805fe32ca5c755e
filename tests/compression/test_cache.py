"""Tests for the compression hot-loop caches (codebooks, pins, LRU)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.cache import (
    EncoderPinCache,
    LruCache,
    TableCodebookCache,
)
from repro.compression.entropy import EntropyCompressor
from repro.compression.hybrid import HybridCompressor
from repro.compression.registry import decompress_any


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


class TestTableCodebookCache:
    def _store(self, cache, key, alphabet=8):
        lengths = np.full(alphabet, 3, dtype=np.int64)
        codes = np.arange(alphabet, dtype=np.uint64)
        return cache.store(key, lengths, codes)

    def test_miss_then_hit(self):
        cache = TableCodebookCache(refresh_every=4)
        symbols = np.array([0, 1, 2])
        assert cache.lookup(7, symbols) is None
        self._store(cache, 7)
        assert cache.lookup(7, symbols) is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_staleness_refresh_policy(self):
        cache = TableCodebookCache(refresh_every=2)
        symbols = np.array([0, 1])
        self._store(cache, 0)
        assert cache.lookup(0, symbols) is not None
        assert cache.lookup(0, symbols) is not None
        # Third use exceeds refresh_every=2: forced rebuild.
        assert cache.lookup(0, symbols) is None
        assert cache.stale_refreshes == 1

    def test_coverage_miss_on_unseen_symbol(self):
        cache = TableCodebookCache(refresh_every=10)
        entry = self._store(cache, 0, alphabet=4)
        entry.lengths[2] = 0  # symbol 2 has no code in the cached book
        assert cache.lookup(0, np.array([0, 2])) is None
        assert cache.coverage_misses == 1
        assert cache.lookup(0, np.array([0, 1])) is not None

    def test_coverage_miss_on_alphabet_growth(self):
        cache = TableCodebookCache(refresh_every=10)
        self._store(cache, 0, alphabet=4)
        assert cache.lookup(0, np.array([0, 9])) is None

    def test_rejects_bad_refresh(self):
        with pytest.raises(ValueError):
            TableCodebookCache(refresh_every=0)


class TestEncoderPinCache:
    def test_trial_then_pinned_replay(self):
        pins = EncoderPinCache(refresh_every=3)
        assert pins.pinned("t") is None
        pins.record_winner("t", "lz")
        assert [pins.pinned("t") for _ in range(3)] == ["lz", "lz", "lz"]
        # Pin aged out: next call must re-trial.
        assert pins.pinned("t") is None
        assert pins.trials == 1 and pins.pinned_hits == 3

    def test_keys_are_independent(self):
        pins = EncoderPinCache(refresh_every=8)
        pins.record_winner(1, "lz")
        assert pins.pinned(2) is None
        assert pins.pinned(1) == "lz"


class TestEntropyCompressorCaching:
    def test_cached_roundtrip_is_exact_across_shifting_batches(self):
        """Stale codebooks may cost ratio, never correctness."""
        rng = np.random.default_rng(0)
        cache = TableCodebookCache(refresh_every=16)
        codec = EntropyCompressor(codebook_cache=cache)
        base = rng.normal(0, 0.1, size=(64, 8)).astype(np.float32)
        for it in range(6):
            batch = base[rng.integers(0, 64, size=100)] + np.float32(1e-4 * it)
            payload = codec.compress(batch, 0.01, key=5)
            rec = codec.decompress(payload)
            assert np.abs(batch - rec).max() <= 0.01 + 1e-6
        assert cache.hits > 0

    def test_unkeyed_compress_does_not_touch_cache(self):
        cache = TableCodebookCache()
        codec = EntropyCompressor(codebook_cache=cache)
        data = np.random.default_rng(1).normal(0, 0.1, (32, 8)).astype(np.float32)
        codec.compress(data, 0.01)
        assert cache.hits == 0 and cache.misses == 0

    def test_cache_hit_skips_codebook_rebuild_payload_stays_decodable(self):
        rng = np.random.default_rng(2)
        cache = TableCodebookCache(refresh_every=8)
        codec = EntropyCompressor(codebook_cache=cache)
        data = rng.normal(0, 0.1, (128, 16)).astype(np.float32)
        first = codec.compress(data, 0.01, key="t")
        second = codec.compress(data, 0.01, key="t")
        # Identical input + cached book: payloads identical, decode exact.
        assert first == second
        assert cache.hits == 1
        np.testing.assert_array_equal(codec.decompress(first), codec.decompress(second))

    def test_code_min_shift_forces_rebuild_not_misaligned_reuse(self):
        """A batch whose minimum bin shifts must miss the cache: the dense
        indices would otherwise index the cached book misaligned, silently
        inflating payloads (exact roundtrip, wrong code lengths)."""
        rng = np.random.default_rng(11)
        cache = TableCodebookCache(refresh_every=100)
        codec = EntropyCompressor(codebook_cache=cache)
        fresh = EntropyCompressor()
        # Skewed distribution around 0 with a spread minimum.
        values = np.where(
            rng.random((256, 16)) < 0.9, 0.0, rng.normal(0, 0.2, (256, 16))
        ).astype(np.float32)
        batch1 = np.concatenate([values, np.full((1, 16), -2.00, np.float32)])
        batch2 = np.concatenate([values, np.full((1, 16), -1.98, np.float32)])
        codec.compress(batch1, 0.01, key="t")
        cached_payload = codec.compress(batch2, 0.01, key="t")
        assert cache.shift_misses == 1
        # The keyed payload must not be inflated vs a fresh (uncached) encode.
        fresh_payload = fresh.compress(batch2, 0.01)
        assert len(cached_payload) <= len(fresh_payload) * 1.05
        rec = codec.decompress(cached_payload)
        assert np.abs(batch2 - rec).max() <= 0.01 + 1e-6

    def test_coverage_fallback_on_distribution_shift(self):
        """A batch with out-of-book symbols must rebuild, not crash."""
        rng = np.random.default_rng(3)
        cache = TableCodebookCache(refresh_every=100)
        codec = EntropyCompressor(codebook_cache=cache)
        # Both batches share the exact minimum (same code_min shift), so the
        # wide batch exercises the coverage check, not the shift check.
        floor = np.full((1, 8), -2.0, dtype=np.float32)
        narrow = np.concatenate([rng.normal(0, 0.01, (64, 8)).astype(np.float32), floor])
        codec.compress(narrow, 0.001, key="t")
        wide = np.concatenate([rng.normal(0, 0.3, (64, 8)).astype(np.float32), floor])
        payload = codec.compress(wide, 0.001, key="t")
        rec = codec.decompress(payload)
        assert np.abs(wide - rec).max() <= 0.001 + 1e-5
        assert cache.coverage_misses >= 1


class TestHybridPinning:
    def _lz_friendly(self, rng):
        pool = rng.normal(0, 0.1, size=(4, 16)).astype(np.float32)
        return pool[rng.integers(0, 4, size=256)]

    def test_pinned_fast_path_replays_winner(self):
        rng = np.random.default_rng(4)
        codec = HybridCompressor(pin_refresh=4)
        data = self._lz_friendly(rng)
        first = codec.compress(data, 0.01, key=0)
        assert codec.pins.trials == 1
        for _ in range(4):
            codec.compress(data, 0.01, key=0)
        assert codec.pins.pinned_hits == 4
        # Window exhausted: the next call re-trials.
        codec.compress(data, 0.01, key=0)
        assert codec.pins.trials == 2
        # Pinned payloads stay self-describing.
        rec = decompress_any(first)
        assert np.abs(data - rec).max() <= 0.01 + 1e-6

    def test_pinned_payload_matches_auto_choice_on_stable_data(self):
        rng = np.random.default_rng(5)
        pinned = HybridCompressor(pin_refresh=8)
        auto = HybridCompressor()
        data = self._lz_friendly(rng)
        pinned.compress(data, 0.01, key=0)  # trial
        assert pinned.compress(data, 0.01, key=0) == auto.compress(data, 0.01)

    def test_no_pinning_without_refresh_window(self):
        codec = HybridCompressor()
        assert codec.pins is None
        data = self._lz_friendly(np.random.default_rng(6))
        payload = codec.compress(data, 0.01, key=0)
        assert np.abs(data - decompress_any(payload)).max() <= 0.01 + 1e-6

    def test_pinned_encoder_modes_forward_key(self):
        rng = np.random.default_rng(7)
        data = self._lz_friendly(rng)
        for mode in ("lz", "huffman"):
            codec = HybridCompressor(encoder=mode, pin_refresh=4)
            payload = codec.compress(data, 0.01, key=0)
            assert np.abs(data - decompress_any(payload)).max() <= 0.01 + 1e-6
            assert codec.pins.trials == 0  # pinned modes never trial


class TestPipelineCaching:
    def _pipeline(self):
        from repro.adaptive import AdaptiveController, OfflineAnalyzer
        from repro.train import CompressionPipeline

        rng = np.random.default_rng(8)
        samples = {
            j: rng.normal(0, 0.1, size=(64, 8)).astype(np.float32) for j in range(2)
        }
        plan = OfflineAnalyzer().analyze(samples)
        return CompressionPipeline(AdaptiveController(plan)), samples

    def test_roundtrip_unchanged_and_codebook_cache_engaged(self):
        pipeline, samples = self._pipeline()
        for it in range(4):
            for table_id, rows in samples.items():
                rec = pipeline.roundtrip(table_id, rows, it)
                bound = pipeline.controller.error_bound(table_id, it)
                assert np.abs(rows - rec).max() <= bound * (1 + 1e-5)
        entropy_tables = [
            t for t in samples
            if pipeline.controller.compressor_name(t) == "entropy"
        ]
        if entropy_tables:
            assert pipeline.codebook_cache.hits > 0

    def test_codebook_cache_can_be_disabled(self):
        from repro.adaptive import AdaptiveController, OfflineAnalyzer
        from repro.train import CompressionPipeline

        rng = np.random.default_rng(9)
        samples = {0: rng.normal(0, 0.1, size=(32, 8)).astype(np.float32)}
        plan = OfflineAnalyzer().analyze(samples)
        pipeline = CompressionPipeline(AdaptiveController(plan), codebook_refresh=0)
        assert pipeline.codebook_cache is None
        rec = pipeline.roundtrip(0, samples[0], 0)
        assert rec.shape == samples[0].shape

    def test_buffer_models_are_memoized(self):
        pipeline, _ = self._pipeline()
        chunks = [("entropy", 1 << 20), ("vector_lz", 1 << 20)]
        t1 = pipeline.compression_seconds(chunks)
        models_after_first = dict(pipeline._buffer_models)
        t2 = pipeline.compression_seconds(chunks)
        assert t1 == t2
        for key, model in pipeline._buffer_models.items():
            assert models_after_first[key] is model
