"""CircuitBreaker: the three-state machine on explicit timestamps."""

from __future__ import annotations

import pytest

from repro.faults import CircuitBreaker


def make(reset=0.1):
    return CircuitBreaker(reset_timeout_seconds=reset)


def trip(breaker, start=0.0):
    """Fail ``FAILURE_THRESHOLD`` times from ``start``, 0.01 s apart."""
    for i in range(CircuitBreaker.FAILURE_THRESHOLD):
        breaker.record_failure(start + 0.01 * i)


class TestClosed:
    def test_starts_closed_and_allows(self):
        breaker = make()
        assert breaker.state(0.0) == CircuitBreaker.CLOSED
        assert breaker.allows(0.0)

    def test_failures_below_threshold_stay_closed(self):
        breaker = make()
        for i in range(CircuitBreaker.FAILURE_THRESHOLD - 1):
            breaker.record_failure(0.01 * i)
        assert breaker.state(0.02) == CircuitBreaker.CLOSED
        assert breaker.opened_total == 0

    def test_success_clears_the_failure_run(self):
        breaker = make()
        for i in range(CircuitBreaker.FAILURE_THRESHOLD - 1):
            breaker.record_failure(0.01 * i)
        breaker.record_success(0.05)
        breaker.record_failure(0.06)
        assert breaker.state(0.07) == CircuitBreaker.CLOSED


class TestOpen:
    def test_trips_at_threshold_and_fails_fast(self):
        breaker = make(reset=0.1)
        trip(breaker)
        assert breaker.state(0.03) == CircuitBreaker.OPEN
        assert not breaker.allows(0.03)
        assert breaker.opened_total == 1

    def test_decays_to_half_open_after_cooldown(self):
        breaker = make(reset=0.1)
        trip(breaker, start=0.5)
        assert breaker.state(0.61) == CircuitBreaker.OPEN
        assert breaker.state(0.62) == CircuitBreaker.HALF_OPEN
        assert breaker.allows(0.62)


class TestHalfOpen:
    def test_probe_success_closes(self):
        breaker = make(reset=0.1)
        trip(breaker)
        breaker.record_success(0.2)
        assert breaker.state(0.2) == CircuitBreaker.CLOSED
        assert breaker.allows(0.2)

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = make(reset=0.1)
        trip(breaker)
        breaker.record_failure(0.2)  # half-open probe fails
        assert breaker.state(0.25) == CircuitBreaker.OPEN
        assert breaker.state(0.31) == CircuitBreaker.HALF_OPEN
        assert breaker.opened_total == 2


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_seconds=0.0)
