"""RetryPolicy: deterministic jittered backoff on the simulated clock."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import RetryPolicy


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

    def test_total_backoff_matches_sum(self):
        policy = RetryPolicy(max_attempts=4, seed=3)
        total = sum(policy.backoff_seconds(i, "op") for i in range(1, 4))
        assert policy.total_backoff_seconds("op") == pytest.approx(total)


class TestSchedule:
    def test_attempt_zero_never_waits(self):
        assert RetryPolicy(seed=5).backoff_seconds(0, "x") == 0.0

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5,
            base_backoff_seconds=0.001,
            backoff_factor=2.0,
            max_backoff_seconds=1.0,
            jitter_fraction=0.0,
        )
        waits = [policy.backoff_seconds(i) for i in range(1, 5)]
        assert waits == [0.001, 0.002, 0.004, 0.008]

    def test_cap_applies(self):
        policy = RetryPolicy(
            max_attempts=10,
            base_backoff_seconds=0.01,
            backoff_factor=10.0,
            max_backoff_seconds=0.05,
            jitter_fraction=0.0,
        )
        assert policy.backoff_seconds(9) == 0.05

    @settings(deadline=None, max_examples=40)
    @given(
        attempt=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_jitter_stays_within_fraction(self, attempt, seed):
        policy = RetryPolicy(
            max_attempts=9,
            base_backoff_seconds=0.002,
            max_backoff_seconds=0.1,
            jitter_fraction=0.25,
            seed=seed,
        )
        nominal = min(0.002 * 2.0 ** (attempt - 1), 0.1)
        wait = policy.backoff_seconds(attempt, "hyp")
        assert 0.75 * nominal <= wait <= 1.25 * nominal

    def test_allows_is_bounded_by_max_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert [policy.allows(i) for i in range(-1, 4)] == [
            False,
            True,
            True,
            True,
            False,
        ]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout_seconds": 0.0},
            {"backoff_factor": 0.5},
            {"jitter_fraction": 1.0},
            {"base_backoff_seconds": -1e-3},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_policy_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RetryPolicy().max_attempts = 5
