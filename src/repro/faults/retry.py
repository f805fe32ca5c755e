"""Reusable retry policy priced on the simulated clock.

:class:`RetryPolicy` packages the standard production recipe — per-attempt
timeout, capped exponential backoff, and *deterministic* jitter — as a
frozen value object.  Jitter is derived from the policy seed and a caller
key via :func:`repro.utils.rng.spawn_rng`, so two runs of the same
scenario back off by exactly the same amounts: retries are part of the
simulation, not noise on top of it.

Callers (the delta publisher, the serving simulator's shard pulls) drive
their own attempt loops; the policy only answers two questions — *may I
try again?* and *how long do I wait first?* — and the waits are charged
to the simulated clock by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import spawn_rng

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + capped exponential backoff + deterministic jitter.

    ``backoff_seconds(attempt, key)`` prices the wait *before* retry
    number ``attempt`` (attempt 0 is the first try and never waits):
    ``base * factor**(attempt-1)``, capped at ``max_backoff_seconds``,
    then jittered by a uniform factor in ``[1-j, 1+j]`` drawn
    deterministically from ``(seed, key, attempt)``.
    """

    max_attempts: int = 3
    timeout_seconds: float = 0.05
    base_backoff_seconds: float = 0.002
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 0.1
    jitter_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds!r}"
            )
        if self.base_backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not 0 <= self.jitter_fraction < 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1), got {self.jitter_fraction!r}"
            )

    def allows(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) may run."""
        return 0 <= attempt < self.max_attempts

    def backoff_seconds(self, attempt: int, *key: object) -> float:
        """Deterministic wait before (0-based) retry ``attempt``.

        ``key`` identifies the operation being retried (e.g.
        ``("publish", round_index)`` or ``("pull", request, shard)``) so
        distinct operations jitter independently but reproducibly.
        """
        if attempt <= 0:
            return 0.0
        raw = self.base_backoff_seconds * self.backoff_factor ** (attempt - 1)
        capped = min(raw, self.max_backoff_seconds)
        if self.jitter_fraction == 0.0 or capped == 0.0:
            return capped
        rng = spawn_rng(self.seed, "retry", *key, attempt)
        lo, hi = 1.0 - self.jitter_fraction, 1.0 + self.jitter_fraction
        return capped * float(rng.uniform(lo, hi))

    def total_backoff_seconds(self, *key: object) -> float:
        """Worst-case total backoff if every allowed retry is taken."""
        return sum(
            self.backoff_seconds(attempt, *key) for attempt in range(1, self.max_attempts)
        )

