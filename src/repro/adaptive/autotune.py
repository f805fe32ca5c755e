"""Automated global error-bound selection (the paper's stated future work).

The paper picks its fixed global error bound (0.02) "through extensive
experimentation" and names automating that search as future work.  This
module implements the search: find the **largest** global error bound whose
trained accuracy stays within a tolerance of the exact-training baseline —
larger bounds compress better (monotone), so the largest acceptable bound
maximizes communication savings.

The tuner treats the trial as a black box ``error_bound -> (accuracy,
compression_ratio)`` (typically a short proxy training run) and performs a
bisection on the log-spaced bound axis, assuming accuracy degrades
monotonically as the bound grows.  Training noise can violate strict
monotonicity; the bisection then still converges to *a* feasible bound,
and every trial is recorded so callers can audit the decision.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.utils.validation import check_count, check_positive

__all__ = ["TrialResult", "AutoTuneResult", "autotune_global_error_bound"]

#: trial callback signature: error_bound -> (accuracy, compression_ratio)
TrialFn = Callable[[float], tuple[float, float]]


@dataclass(frozen=True)
class TrialResult:
    """One evaluated candidate bound."""

    error_bound: float
    accuracy: float
    ratio: float
    acceptable: bool


@dataclass(frozen=True)
class AutoTuneResult:
    """Outcome of the bound search."""

    chosen: float
    feasible: bool
    baseline_accuracy: float
    tolerance: float
    trials: tuple[TrialResult, ...]


def autotune_global_error_bound(
    evaluate: TrialFn,
    baseline_accuracy: float,
    *,
    accuracy_tolerance: float = 0.005,
    lower: float = 1e-4,
    upper: float = 0.2,
    max_trials: int = 8,
) -> AutoTuneResult:
    """Find the largest global bound keeping accuracy within tolerance.

    Parameters
    ----------
    evaluate:
        Black-box trial: runs (proxy) training at the given bound and
        returns ``(accuracy, compression_ratio)``.
    baseline_accuracy:
        Accuracy of exact (uncompressed) training under the same protocol.
    accuracy_tolerance:
        Maximum acceptable accuracy drop versus the baseline.
    lower, upper:
        Search interval for the bound (log-spaced bisection).
    max_trials:
        Trial budget, including the two endpoint probes.

    Returns
    -------
    AutoTuneResult:
        ``feasible`` is False when even ``lower`` violates the tolerance;
        ``chosen`` is then ``lower`` (the least-bad option) and the caller
        should fall back to uncompressed training.
    """
    check_positive("accuracy_tolerance", accuracy_tolerance)
    check_positive("lower", lower)
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    check_count("max_trials", max_trials, 2)

    floor = baseline_accuracy - accuracy_tolerance
    trials: list[TrialResult] = []

    def run(bound: float) -> TrialResult:
        accuracy, ratio = evaluate(bound)
        trial = TrialResult(
            error_bound=bound,
            accuracy=accuracy,
            ratio=ratio,
            acceptable=accuracy >= floor,
        )
        trials.append(trial)
        return trial

    # Endpoint probes: the cheap exits.
    top = run(upper)
    if top.acceptable:
        return AutoTuneResult(
            chosen=upper,
            feasible=True,
            baseline_accuracy=baseline_accuracy,
            tolerance=accuracy_tolerance,
            trials=tuple(trials),
        )
    bottom = run(lower)
    if not bottom.acceptable:
        return AutoTuneResult(
            chosen=lower,
            feasible=False,
            baseline_accuracy=baseline_accuracy,
            tolerance=accuracy_tolerance,
            trials=tuple(trials),
        )

    # Invariant: lo is acceptable, hi is not; bisect in log space.
    lo, hi = lower, upper
    for _ in range(max_trials - 2):
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        if run(mid).acceptable:
            lo = mid
        else:
            hi = mid
    return AutoTuneResult(
        chosen=lo,
        feasible=True,
        baseline_accuracy=baseline_accuracy,
        tolerance=accuracy_tolerance,
        trials=tuple(trials),
    )
