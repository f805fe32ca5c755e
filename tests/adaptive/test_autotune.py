"""Tests for automated global error-bound selection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.autotune import autotune_global_error_bound


def _chosen_trial(result):
    return next(trial for trial in result.trials if trial.error_bound == result.chosen)


def step_world(threshold: float, baseline: float = 0.80, drop: float = 0.05):
    """Accuracy holds at baseline until ``threshold``, then falls off."""

    def evaluate(bound: float) -> tuple[float, float]:
        accuracy = baseline if bound <= threshold else baseline - drop
        ratio = 3.0 + 10.0 * bound  # larger bound compresses better
        return accuracy, ratio

    return evaluate


class TestAutotune:
    def test_finds_bound_below_threshold(self):
        result = autotune_global_error_bound(
            step_world(0.03), baseline_accuracy=0.80, accuracy_tolerance=0.01,
            lower=1e-3, upper=0.3, max_trials=12,
        )
        assert result.feasible
        assert result.chosen <= 0.03
        # Bisection should get within a factor ~1.6 of the true threshold.
        assert result.chosen > 0.03 / 2

    def test_upper_acceptable_short_circuits(self):
        result = autotune_global_error_bound(
            step_world(1.0), baseline_accuracy=0.80, accuracy_tolerance=0.01,
            lower=1e-3, upper=0.2,
        )
        assert result.feasible
        assert result.chosen == 0.2
        assert len(result.trials) == 1

    def test_infeasible_flagged(self):
        result = autotune_global_error_bound(
            step_world(1e-9), baseline_accuracy=0.80, accuracy_tolerance=0.01,
            lower=1e-3, upper=0.2,
        )
        assert not result.feasible
        assert result.chosen == 1e-3
        assert len(result.trials) == 2

    def test_trial_budget_respected(self):
        calls = []

        def counting(bound):
            calls.append(bound)
            return step_world(0.03)(bound)

        autotune_global_error_bound(
            counting, baseline_accuracy=0.80, accuracy_tolerance=0.01,
            lower=1e-3, upper=0.3, max_trials=5,
        )
        assert len(calls) == 5

    def test_trials_recorded_with_flags(self):
        result = autotune_global_error_bound(
            step_world(0.03), baseline_accuracy=0.80, accuracy_tolerance=0.01,
            lower=1e-3, upper=0.3, max_trials=6,
        )
        assert any(t.acceptable for t in result.trials)
        assert any(not t.acceptable for t in result.trials)
        assert _chosen_trial(result).acceptable

    def test_chosen_is_always_acceptable_when_feasible(self):
        result = autotune_global_error_bound(
            step_world(0.01), baseline_accuracy=0.80, accuracy_tolerance=0.01,
            lower=1e-4, upper=0.5, max_trials=10,
        )
        assert result.feasible
        assert _chosen_trial(result).accuracy >= 0.80 - 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            autotune_global_error_bound(
                step_world(0.1), 0.8, lower=0.2, upper=0.1
            )
        with pytest.raises(ValueError):
            autotune_global_error_bound(
                step_world(0.1), 0.8, max_trials=1
            )
        with pytest.raises(ValueError):
            autotune_global_error_bound(
                step_world(0.1), 0.8, accuracy_tolerance=0.0
            )

    @given(
        st.floats(min_value=-3, max_value=-0.8),
        st.integers(min_value=4, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_bisection_brackets_threshold(self, log_threshold, max_trials):
        threshold = 10.0**log_threshold
        result = autotune_global_error_bound(
            step_world(threshold), baseline_accuracy=0.80, accuracy_tolerance=0.01,
            lower=1e-4, upper=0.5, max_trials=max_trials,
        )
        assert result.feasible
        assert result.chosen <= threshold
        # Bisection gap shrinks geometrically with the budget.
        gap = math.log(0.5 / 1e-4) / 2 ** (max_trials - 2)
        assert math.log(threshold / result.chosen) <= gap + 1e-9

    def test_integration_with_training(self):
        """End-to-end: tune the bound on a tiny real training world."""
        from repro.adaptive import AdaptiveController, OfflineAnalyzer
        from repro.data import SyntheticClickDataset, make_uniform_spec
        from repro.model import DLRM, DLRMConfig
        from repro.train import CompressionPipeline, ReferenceTrainer
        from repro.adaptive.classify import ErrorBoundLevels

        spec = make_uniform_spec("t", n_tables=4, cardinality=120, zipf_exponent=1.4)
        dataset = SyntheticClickDataset(spec, seed=5, teacher_scale=3.0)
        config = DLRMConfig.from_dataset(spec, embedding_dim=8, seed=6)

        def trial(bound: float) -> tuple[float, float]:
            model = DLRM(config)
            batch = dataset.batch(128, batch_index=999)
            samples = {j: model.lookup(j, batch.sparse[:, j]) for j in range(4)}
            plan = OfflineAnalyzer(
                levels=ErrorBoundLevels(large=bound, medium=bound, small=bound)
            ).analyze(samples)
            pipeline = CompressionPipeline(AdaptiveController(plan))
            trainer = ReferenceTrainer(
                DLRM(config), dataset, lr=0.3, lookup_transform=pipeline.roundtrip
            )
            history = trainer.train(40, 64, eval_every=40, eval_batches=2)
            return history.final_accuracy, pipeline.mean_ratio()

        baseline = ReferenceTrainer(DLRM(config), dataset, lr=0.3).train(
            40, 64, eval_every=40, eval_batches=2
        )
        result = autotune_global_error_bound(
            trial,
            baseline.final_accuracy,
            accuracy_tolerance=0.05,
            lower=0.005,
            upper=1.0,
            max_trials=4,
        )
        assert result.trials
        assert result.chosen > 0
        if result.feasible:
            assert _chosen_trial(result).ratio > 1.0
