"""RetryPolicy: deterministic jittered backoff on the simulated clock."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import RetryPolicy
from repro.utils.rng import spawn_rng


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        """The satellite invariant: one seed -> one backoff schedule."""
        a = RetryPolicy(max_attempts=5, seed=11)
        b = RetryPolicy(max_attempts=5, seed=11)
        for attempt in range(5):
            assert a.backoff_seconds(attempt, "publish", 3) == b.backoff_seconds(
                attempt, "publish", 3
            )

    def test_different_seed_different_schedule(self):
        a = RetryPolicy(max_attempts=5, seed=11)
        b = RetryPolicy(max_attempts=5, seed=12)
        schedule_a = [a.backoff_seconds(i, "k") for i in range(1, 5)]
        schedule_b = [b.backoff_seconds(i, "k") for i in range(1, 5)]
        assert schedule_a != schedule_b

    def test_distinct_keys_jitter_independently(self):
        policy = RetryPolicy(max_attempts=4, seed=0)
        assert policy.backoff_seconds(2, "pull", 0, 1) != policy.backoff_seconds(
            2, "pull", 0, 2
        )


class TestSchedule:
    def test_attempt_zero_never_waits(self):
        assert RetryPolicy(seed=5).backoff_seconds(0, "x") == 0.0

    def test_exponential_growth_under_jitter(self):
        """Each wait doubles the nominal one before it, times the jitter
        factor its ``(seed, key, attempt)`` draws."""
        policy = RetryPolicy(max_attempts=5, base_backoff_seconds=0.001)
        for attempt, nominal in zip(range(1, 5), [0.001, 0.002, 0.004, 0.008]):
            jitter = float(spawn_rng(0, "retry", attempt).uniform(0.75, 1.25))
            assert policy.backoff_seconds(attempt) == nominal * jitter

    def test_cap_applies(self):
        policy = RetryPolicy(max_attempts=10, base_backoff_seconds=0.01)
        jitter = float(spawn_rng(0, "retry", 9).uniform(0.75, 1.25))
        assert policy.backoff_seconds(9) == 0.1 * jitter

    def test_zero_base_never_waits(self):
        policy = RetryPolicy(base_backoff_seconds=0.0)
        assert [policy.backoff_seconds(i, "x") for i in range(4)] == [0.0] * 4

    @settings(deadline=None, max_examples=40)
    @given(
        attempt=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_jitter_stays_within_fraction(self, attempt, seed):
        policy = RetryPolicy(max_attempts=9, base_backoff_seconds=0.002, seed=seed)
        nominal = min(0.002 * 2.0 ** (attempt - 1), 0.1)
        wait = policy.backoff_seconds(attempt, "hyp")
        assert 0.75 * nominal <= wait <= 1.25 * nominal


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout_seconds": 0.0},
            {"base_backoff_seconds": -1e-3},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_policy_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RetryPolicy().max_attempts = 5
