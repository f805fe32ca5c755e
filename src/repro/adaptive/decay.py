"""Iteration-wise error-bound decay (the second adaptive level).

The controller treats the error bound like a learning rate: training starts
with a *larger* bound (more compression while gradients are coarse) and
tightens it as optimization needs precision.  Training is split into an
initial phase — where a decay function takes the multiplier from
``initial_scale`` down to 1 — and a later phase where the bound stays at its
base value so the model converges cleanly.

Schedules (paper, Fig. 5 and Fig. 10):

* :class:`StepwiseDecay` — staircase descent; the paper's default (best
  compression at equal accuracy).
* :class:`LinearDecay`, :class:`LogarithmicDecay` — the alternative decay
  functions compared in Fig. 5.
* :class:`AbruptDrop` — holds ``initial_scale`` for the whole initial phase
  then drops to 1 at once; the aggressive baseline of Fig. 10 that hurts
  convergence.
* :class:`ConstantSchedule` — no iteration-wise adaptation (fixed global
  error bound baseline).

All schedules guarantee ``multiplier(0) == initial_scale`` (except the
constant schedule), ``multiplier(i) == 1`` for ``i >= phase_iterations``,
and monotone non-increasing multipliers.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.utils.validation import check_count

__all__ = [
    "DecaySchedule",
    "ConstantSchedule",
    "StepwiseDecay",
    "LinearDecay",
    "LogarithmicDecay",
    "AbruptDrop",
    "make_schedule",
]


class DecaySchedule(ABC):
    """Maps iteration number to an error-bound multiplier (>= 1)."""

    @abstractmethod
    def multiplier(self, iteration: int) -> float:
        """Error-bound scale at ``iteration`` (relative to the base bound)."""

    def __call__(self, iteration: int) -> float:
        check_count("iteration", iteration, 0)
        value = self.multiplier(iteration)
        assert value >= 1.0 - 1e-12, f"schedule produced multiplier {value} < 1"
        return value


class ConstantSchedule(DecaySchedule):
    """Fixed global error bound: multiplier is always 1."""

    def multiplier(self, iteration: int) -> float:
        return 1.0


class _PhasedDecay(DecaySchedule):
    """Shared validation for schedules with an initial decay phase."""

    def __init__(self, initial_scale: float, phase_iterations: int):
        if not 1.0 <= initial_scale < math.inf:
            raise ValueError(f"initial_scale must be finite and >= 1, got {initial_scale!r}")
        self.initial_scale = float(initial_scale)
        self.phase_iterations = check_count("phase_iterations", phase_iterations, 1)

    def _progress(self, iteration: int) -> float:
        """Fraction of the initial phase completed, clipped to [0, 1]."""
        return min(max(iteration / self.phase_iterations, 0.0), 1.0)


class StepwiseDecay(_PhasedDecay):
    """Staircase descent over ``n_steps`` equal plateaus (the default)."""

    def __init__(self, initial_scale: float, phase_iterations: int, n_steps: int = 4):
        super().__init__(initial_scale, phase_iterations)
        self.n_steps = check_count("n_steps", n_steps, 1)

    def multiplier(self, iteration: int) -> float:
        if iteration >= self.phase_iterations:
            return 1.0
        step = int(self._progress(iteration) * self.n_steps)  # 0 .. n_steps-1
        # Linear interpolation of the plateau levels between initial and 1.
        return self.initial_scale - (self.initial_scale - 1.0) * step / self.n_steps


class LinearDecay(_PhasedDecay):
    """Straight-line descent from ``initial_scale`` to 1."""

    def multiplier(self, iteration: int) -> float:
        t = self._progress(iteration)
        return self.initial_scale - (self.initial_scale - 1.0) * t


#: ``k`` of :class:`LogarithmicDecay`'s ``log(1+kt)/log(1+k)`` shape
LOG_CURVATURE = 9.0


class LogarithmicDecay(_PhasedDecay):
    """Fast early descent, slow tail: ``scale - span * log(1+kt)/log(1+k)``
    with ``k = LOG_CURVATURE``."""

    def multiplier(self, iteration: int) -> float:
        t = self._progress(iteration)
        shape = math.log1p(LOG_CURVATURE * t) / math.log1p(LOG_CURVATURE)
        return self.initial_scale - (self.initial_scale - 1.0) * shape


class AbruptDrop(_PhasedDecay):
    """Hold ``initial_scale`` through the initial phase, then drop to 1.

    This is the "Drop_Nx" baseline of Fig. 10: same starting bound as the
    decay schedules, but the sudden tightening late in the initial phase
    hurts convergence.
    """

    def multiplier(self, iteration: int) -> float:
        return self.initial_scale if iteration < self.phase_iterations else 1.0


_SCHEDULES = {
    "constant": ConstantSchedule,
    "stepwise": StepwiseDecay,
    "linear": LinearDecay,
    "logarithmic": LogarithmicDecay,
    "drop": AbruptDrop,
}


def make_schedule(name: str, **kwargs: float) -> DecaySchedule:
    """Construct a schedule by name (``constant``/``stepwise``/``linear``/
    ``logarithmic``/``drop``)."""
    try:
        cls = _SCHEDULES[name]
    except KeyError:
        raise KeyError(f"unknown schedule {name!r}; available: {sorted(_SCHEDULES)}") from None
    return cls(**kwargs)
