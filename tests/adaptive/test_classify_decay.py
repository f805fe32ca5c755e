"""Tests for table classification and error-bound decay schedules."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.classify import ErrorBoundLevels, classify_by_rank
from repro.adaptive.decay import (
    LOG_CURVATURE,
    AbruptDrop,
    ConstantSchedule,
    LinearDecay,
    LogarithmicDecay,
    StepwiseDecay,
    make_schedule,
)


class TestErrorBoundLevels:
    def test_paper_defaults(self):
        levels = ErrorBoundLevels()
        assert (levels.small, levels.medium, levels.large) == (0.01, 0.03, 0.05)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="ordered"):
            ErrorBoundLevels(large=0.01, medium=0.03, small=0.05)

    def test_infinite_large_level_rejected(self):
        with pytest.raises(ValueError, match="large must be finite"):
            ErrorBoundLevels(large=float("inf"))

    def test_for_category(self):
        levels = ErrorBoundLevels()
        assert levels.for_category("small") == 0.01
        assert levels.for_category("medium") == 0.03
        assert levels.for_category("large") == 0.05
        with pytest.raises(ValueError):
            levels.for_category("huge")


class TestRankClassifier:
    def test_tertile_split(self):
        indices = {i: i / 8 for i in range(9)}
        result = classify_by_rank(indices)
        # Most homogenizing third -> small.
        assert all(result[i] == "small" for i in (6, 7, 8))
        assert all(result[i] == "medium" for i in (3, 4, 5))
        assert all(result[i] == "large" for i in (0, 1, 2))

    def test_all_classes_present_even_with_ties(self):
        result = classify_by_rank({i: 0.0 for i in range(6)})
        assert set(result.values()) == {"small", "medium", "large"}

    def test_deterministic_tiebreak(self):
        a = classify_by_rank({i: 0.5 for i in range(9)})
        b = classify_by_rank({i: 0.5 for i in range(9)})
        assert a == b

    @pytest.mark.parametrize("n, third", [(1, 0), (2, 1), (4, 1), (5, 2), (10, 3)])
    def test_small_and_large_classes_round_to_a_third(self, n, third):
        result = list(classify_by_rank({i: i / n for i in range(n)}).values())
        assert result.count("small") == result.count("large") == third
        assert result.count("medium") == n - 2 * third

    def test_empty_mapping(self):
        assert classify_by_rank({}) == {}

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            classify_by_rank({0: 1.5})

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_ranking_property(self, values):
        indices = dict(enumerate(values))
        result = classify_by_rank(indices)
        # No 'large' table may have a higher index than any 'small' table.
        smalls = [values[i] for i, c in result.items() if c == "small"]
        larges = [values[i] for i, c in result.items() if c == "large"]
        if smalls and larges:
            assert min(smalls) >= max(larges) - 1e-12


class TestDecaySchedules:
    @pytest.mark.parametrize(
        "schedule",
        [
            StepwiseDecay(2.0, 100, n_steps=4),
            LinearDecay(2.0, 100),
            LogarithmicDecay(2.0, 100),
            AbruptDrop(2.0, 100),
        ],
    )
    def test_starts_high_ends_at_one(self, schedule):
        assert schedule(0) == pytest.approx(2.0)
        assert schedule(100) == 1.0
        assert schedule(10_000) == 1.0

    @pytest.mark.parametrize(
        "schedule",
        [
            StepwiseDecay(3.0, 64, n_steps=4),
            LinearDecay(3.0, 64),
            LogarithmicDecay(3.0, 64),
            AbruptDrop(3.0, 64),
        ],
    )
    def test_monotone_non_increasing(self, schedule):
        values = [schedule(i) for i in range(130)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= 1.0 for v in values)

    def test_stepwise_has_plateaus(self):
        schedule = StepwiseDecay(2.0, 100, n_steps=4)
        values = [schedule(i) for i in range(100)]
        assert len(set(np.round(values, 12))) == 4

    def test_drop_is_flat_then_one(self):
        schedule = AbruptDrop(2.0, 50)
        assert schedule(49) == 2.0
        assert schedule(50) == 1.0

    def test_logarithmic_decays_faster_than_linear_early(self):
        log_s = LogarithmicDecay(2.0, 100)
        lin_s = LinearDecay(2.0, 100)
        assert log_s(10) < lin_s(10)

    def test_logarithmic_shape_has_the_fixed_curvature(self):
        schedule = LogarithmicDecay(3.0, 40)
        for i in range(41):
            shape = math.log1p(LOG_CURVATURE * (i / 40)) / math.log1p(LOG_CURVATURE)
            assert schedule(i) == 3.0 - 2.0 * shape

    def test_constant(self):
        schedule = ConstantSchedule()
        assert schedule(0) == schedule(10**6) == 1.0

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            ConstantSchedule()(-1)

    def test_initial_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            LinearDecay(0.5, 10)

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("stepwise", StepwiseDecay),
            ("linear", LinearDecay),
            ("logarithmic", LogarithmicDecay),
            ("drop", AbruptDrop),
        ],
    )
    def test_make_schedule_builds_each_phased_schedule(self, name, cls):
        schedule = make_schedule(name, initial_scale=2.0, phase_iterations=10)
        assert type(schedule) is cls
        assert schedule(0) == 2.0 and schedule(10) == 1.0

    def test_make_schedule_constant_takes_no_phase(self):
        assert make_schedule("constant")(5) == 1.0

    def test_make_schedule(self):
        s = make_schedule("stepwise", initial_scale=2.0, phase_iterations=10)
        assert isinstance(s, StepwiseDecay)
        with pytest.raises(KeyError):
            make_schedule("cosine")
        with pytest.raises(KeyError):
            make_schedule("exponential", initial_scale=2.0, phase_iterations=10)

    def test_decay_vs_drop_mean_multiplier(self):
        """Decay spends more iterations at elevated bounds than a drop-free
        constant, but the drop holds the max throughout (Fig. 10 mechanics)."""
        decay = StepwiseDecay(2.0, 100, n_steps=4)
        drop = AbruptDrop(2.0, 100)
        mean_decay = np.mean([decay(i) for i in range(100)])
        mean_drop = np.mean([drop(i) for i in range(100)])
        assert 1.0 < mean_decay < mean_drop == 2.0
