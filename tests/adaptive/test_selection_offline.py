"""Tests for Algorithm-2 selection, the offline analyzer, and the controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveController,
    ErrorBoundLevels,
    OfflineAnalyzer,
    StepwiseDecay,
)
from repro.adaptive.selection import (
    PAPER_A100_PROFILE,
    DeviceThroughputProfile,
    select_compressor,
)
from repro.compression.entropy import EntropyCompressor
from repro.compression.vector_lz import VectorLZCompressor
from tests.conftest import make_gaussian_batch, make_hot_batch


def _speedup(result, codec: str) -> float:
    return next(c.speedup for c in result.candidates if c.codec == codec)


def _candidates():
    return {"vector_lz": VectorLZCompressor(), "entropy": EntropyCompressor()}


class TestSelectCompressor:
    def test_lz_wins_on_hot_batches(self, rng):
        batch = make_hot_batch(rng, batch=512, dim=32, pool=6, unique_fraction=0.02)
        result = select_compressor(batch, _candidates(), 0.01, 4e9)
        assert result.best == "vector_lz"

    def test_candidates_sorted_by_speedup(self, rng):
        batch = make_gaussian_batch(rng)
        result = select_compressor(batch, _candidates(), 0.01, 4e9)
        speedups = [c.speedup for c in result.candidates]
        assert speedups == sorted(speedups, reverse=True)
        assert result.best == result.candidates[0].codec

    def test_slow_codec_loses_despite_ratio(self, rng):
        """Eq.-2: a higher-CR codec can lose if its throughput is poor: on
        a fast network entropy's slower kernels outweigh its better ratio."""
        batch = make_gaussian_batch(rng)
        result = select_compressor(batch, _candidates(), 0.01, 40e9)
        ratios = {c.codec: c.ratio for c in result.candidates}
        assert ratios["entropy"] > ratios["vector_lz"]
        assert result.best == "vector_lz"

    def test_bandwidth_shifts_selection(self, rng):
        """On a slower network, ratio matters more than throughput."""
        rows = rng.laplace(0.0, 0.05, size=(256, 32)).astype(np.float32)
        fast_net = select_compressor(rows, _candidates(), 0.01, 40e9)
        slow_net = select_compressor(rows, _candidates(), 0.01, 0.5e9)
        ratio_best = max(slow_net.candidates, key=lambda c: c.ratio).codec
        assert slow_net.best == ratio_best
        # On the fast network the throughput term can override ratio.
        assert _speedup(fast_net, "entropy") < _speedup(slow_net, "entropy") * 80

    def test_empty_candidates_rejected(self, rng):
        with pytest.raises(ValueError):
            select_compressor(make_gaussian_batch(rng), {}, 0.01, 4e9)

    def test_paper_profile_has_measured_codecs(self):
        assert PAPER_A100_PROFILE.for_codec("vector_lz").compress == pytest.approx(40.5e9 * 1.073741824, rel=0.1)
        assert PAPER_A100_PROFILE.for_codec("entropy").decompress < PAPER_A100_PROFILE.for_codec("entropy").compress

    def test_default_profile_fallback(self):
        profile = DeviceThroughputProfile()
        assert profile.for_codec("unknown") is profile.default


class TestOfflineAnalyzer:
    @pytest.fixture
    def samples(self, rng):
        # Three regimes: hot/repetitive, clustered (homogenizing), unique.
        samples = {}
        for t in range(3):
            samples[t] = make_hot_batch(rng, batch=128, dim=16, pool=5, unique_fraction=0.05)
        centroids = rng.normal(0, 0.3, size=(6, 16)).astype(np.float32)
        for t in range(3, 6):
            rows = centroids[rng.integers(0, 6, 128)] + rng.normal(0, 1e-4, (128, 16)).astype(
                np.float32
            )
            samples[t] = rows.astype(np.float32)
        for t in range(6, 9):
            samples[t] = rng.normal(0, 0.1, size=(128, 16)).astype(np.float32)
        return samples

    def test_plan_covers_all_tables(self, samples):
        plan = OfflineAnalyzer().analyze(samples)
        assert set(plan.tables) == set(samples)

    def test_rank_classifier_produces_all_levels(self, samples):
        plan = OfflineAnalyzer().analyze(samples)
        counts = plan.category_counts()
        assert counts["small"] >= 1 and counts["medium"] >= 1 and counts["large"] >= 1

    def test_clustered_tables_get_small_bound(self, samples):
        """The strongly homogenizing tables (3-5) must rank most sensitive."""
        plan = OfflineAnalyzer().analyze(samples)
        for t in (3, 4, 5):
            assert plan.tables[t].category == "small"
            assert plan.tables[t].error_bound == plan.levels.small

    def test_error_bounds_follow_levels(self, samples):
        levels = ErrorBoundLevels(large=0.1, medium=0.05, small=0.005)
        plan = OfflineAnalyzer(levels=levels).analyze(samples)
        for table_plan in plan.tables.values():
            assert table_plan.error_bound == levels.for_category(table_plan.category)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            OfflineAnalyzer().analyze({})


class TestAdaptiveController:
    def test_dual_level_combination(self, rng):
        samples = {0: make_hot_batch(rng), 1: make_gaussian_batch(rng)}
        plan = OfflineAnalyzer().analyze(samples)
        controller = AdaptiveController(plan, StepwiseDecay(2.0, 100, n_steps=2))
        for t in (0, 1):
            base = plan.error_bound_for(t)
            assert controller.error_bound(t, 0) == pytest.approx(base * 2.0)
            assert controller.error_bound(t, 100) == pytest.approx(base)

    def test_default_schedule_is_constant(self, rng):
        plan = OfflineAnalyzer().analyze({0: make_gaussian_batch(rng)})
        controller = AdaptiveController(plan)
        assert controller.error_bound(0, 0) == controller.error_bound(0, 10**6)

    def test_every_table_has_a_codec_and_a_bound(self, rng):
        plan = OfflineAnalyzer().analyze({0: make_hot_batch(rng), 1: make_gaussian_batch(rng)})
        controller = AdaptiveController(plan)
        assert set(controller.table_ids()) == {0, 1}
        assert controller.compressor_name(0) in ("vector_lz", "entropy")
        assert controller.error_bound(0, 0) > 0
