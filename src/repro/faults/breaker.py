"""Per-dependency circuit breaker on the simulated clock.

The classic three-state breaker, with time supplied by the caller (the
simulated clock) instead of a wall clock:

* **closed** — requests flow; consecutive failures are counted, and at
  ``FAILURE_THRESHOLD`` the breaker opens.
* **open** — requests fail fast (no wire, no timeout wait) until
  ``reset_timeout_seconds`` has elapsed since opening.
* **half-open** — one probe request is let through; success closes the
  breaker, failure re-opens it and restarts the cooldown.

The serving tier keeps one breaker per shard server, so a crashed shard
costs at most ``FAILURE_THRESHOLD`` timed-out pulls before every later
pull degrades instantly instead of queueing behind a dead node.
"""

from __future__ import annotations

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Closed / open / half-open breaker driven by explicit timestamps."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    #: consecutive failures that trip a closed breaker
    FAILURE_THRESHOLD = 3

    def __init__(self, *, reset_timeout_seconds: float = 0.25) -> None:
        if reset_timeout_seconds <= 0:
            raise ValueError(
                f"reset_timeout_seconds must be > 0, got {reset_timeout_seconds!r}"
            )
        self.reset_timeout_seconds = float(reset_timeout_seconds)
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.opened_total = 0  # times the breaker tripped (for reports)

    def state(self, now: float) -> str:
        """Current state at simulated time ``now`` (open may decay to
        half-open once the cooldown has elapsed)."""
        if self._state == self.OPEN and now >= self._opened_at + self.reset_timeout_seconds:
            return self.HALF_OPEN
        return self._state

    def allows(self, now: float) -> bool:
        """Whether a request may be attempted at ``now``.

        Open rejects (fail fast); half-open admits the probe; closed
        admits everything.
        """
        return self.state(now) != self.OPEN

    def record_success(self, now: float) -> None:
        """A request succeeded: close the breaker, clear the failure run."""
        self._state = self.CLOSED
        self._consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """A request failed (timeout, corruption, refusal).

        In closed state this extends the consecutive-failure run and trips
        the breaker at the threshold; a failed half-open probe re-opens
        immediately and restarts the cooldown.
        """
        if self.state(now) == self.HALF_OPEN:
            self._trip(now)
            return
        self._consecutive_failures += 1
        if self._state == self.CLOSED and self._consecutive_failures >= self.FAILURE_THRESHOLD:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self._state = self.OPEN
        self._opened_at = now
        self._consecutive_failures = self.FAILURE_THRESHOLD
        self.opened_total += 1
