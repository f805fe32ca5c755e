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

#: growth of the wait from one retry to the next
BACKOFF_FACTOR = 2.0
#: cap on one wait, before jitter
MAX_BACKOFF_SECONDS = 0.1
#: a wait is scaled by a uniform factor in ``[1 - j, 1 + j]``
JITTER_FRACTION = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + capped exponential backoff + deterministic jitter.

    ``backoff_seconds(attempt, key)`` prices the wait *before* retry
    number ``attempt`` (attempt 0 is the first try and never waits):
    ``base * BACKOFF_FACTOR**(attempt-1)``, capped at
    ``MAX_BACKOFF_SECONDS``, then jittered by a uniform factor in
    ``[1-j, 1+j]`` (``j = JITTER_FRACTION``) drawn deterministically from
    ``(seed, key, attempt)``.
    """

    max_attempts: int = 3
    timeout_seconds: float = 0.05
    base_backoff_seconds: float = 0.002
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds!r}"
            )
        if self.base_backoff_seconds < 0:
            raise ValueError(
                f"base_backoff_seconds must be >= 0, got {self.base_backoff_seconds!r}"
            )

    def backoff_seconds(self, attempt: int, *key: object) -> float:
        """Deterministic wait before (0-based) retry ``attempt``.

        ``key`` identifies the operation being retried (e.g.
        ``("publish", round_index)`` or ``("pull", request, shard)``) so
        distinct operations jitter independently but reproducibly.
        """
        if attempt <= 0:
            return 0.0
        raw = self.base_backoff_seconds * BACKOFF_FACTOR ** (attempt - 1)
        capped = min(raw, MAX_BACKOFF_SECONDS)
        if capped == 0.0:
            return capped
        rng = spawn_rng(self.seed, "retry", *key, attempt)
        return capped * float(rng.uniform(1.0 - JITTER_FRACTION, 1.0 + JITTER_FRACTION))
