"""SLO burn-rate monitors over live tier feeds.

The SRE framing: an SLO promises that a fraction ``objective`` of
observations are *good* (a serve latency under its target, a publication
staleness under its bound, a train step under its budget).  The error
budget is ``1 - objective``; the **burn rate** over a window is the
fraction of bad observations in that window divided by the budget — 1.0
means the budget is being spent exactly as fast as it accrues, 14.4 means
a 30-day budget would be gone in 50 hours.

:class:`BurnRateMonitor` keeps the raw ``(time, value)`` samples and
answers windowed burn rates at any instant of *simulated* time, with the
standard multi-window alert: page when both the fast window (is it
happening right now?) and the slow window (has it burned enough to
matter?) exceed their thresholds.  The monotonicity law the property
tests pin: with the totals fixed, more bad observations in the window
never lower the burn rate.

:class:`SloHub` routes live feeds from the tiers.  The hot paths guard
with the same zero-overhead switch as every other obs write::

    if OBS.enabled and OBS.slo_hub is not None:
        OBS.slo_hub.feed("serve_latency", completion, latency)

``ServingSimulator`` feeds per-request latency, ``DeltaPublisher`` feeds
post-round staleness, and ``HybridParallelTrainer`` feeds per-iteration
step time; :func:`default_monitors` builds the standard three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.obs.runtime import OBS
from repro.utils.validation import check_finite_nonnegative

__all__ = [
    "SLOSpec",
    "SLOState",
    "BurnRateMonitor",
    "SloHub",
    "default_monitors",
    "attach_hub",
]


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective over a live feed.

    ``source`` names the feed (``serve_latency``, ``publish_staleness``,
    ``train_step``); an observation is *good* when ``value <= threshold``.
    ``objective`` is the promised good fraction in ``(0, 1]`` —
    ``objective == 1`` gives a zero budget, so any bad observation burns
    at infinite rate.  Windows are in the feed's own (simulated) seconds;
    the fast pair confirms the burn is happening *now*, the slow pair
    that enough budget went to matter.
    """

    name: str
    source: str
    threshold: float
    objective: float = 0.99
    fast_window: float = 0.005
    slow_window: float = 0.05
    fast_burn: float = 14.4
    slow_burn: float = 6.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO name must be non-empty")
        if not self.source:
            raise ValueError("SLO source must be non-empty")
        if not 0.0 < self.objective <= 1.0:
            raise ValueError(f"objective must be in (0, 1], got {self.objective!r}")
        for field_name in ("threshold", "fast_window", "slow_window"):
            check_finite_nonnegative(field_name, getattr(self, field_name))
        if self.fast_window > self.slow_window:
            raise ValueError(
                f"fast_window ({self.fast_window}) must not exceed "
                f"slow_window ({self.slow_window})"
            )


@dataclass(frozen=True)
class SLOState:
    """One monitor's evaluation at an instant."""

    name: str
    source: str
    now: float
    samples: int
    bad_samples: int
    fast_burn_rate: float
    slow_burn_rate: float
    firing: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "source": self.source,
            "now": self.now,
            "samples": self.samples,
            "bad_samples": self.bad_samples,
            "fast_burn_rate": _json_num(self.fast_burn_rate),
            "slow_burn_rate": _json_num(self.slow_burn_rate),
            "firing": self.firing,
        }


def _json_num(value: float) -> float | str:
    # JSON has no Infinity; the schema validator wants numbers-or-"inf".
    if value == math.inf:
        return "inf"
    return value


class BurnRateMonitor:
    """Rolling-window burn-rate evaluation over one feed's samples."""

    def __init__(self, spec: SLOSpec):
        self.spec = spec
        self._samples: list[tuple[float, bool]] = []  # (time, bad)

    def observe(self, time: float, value: float) -> None:
        """Record one observation at ``time`` (simulated seconds)."""
        time = float(time)
        if not math.isfinite(time):
            raise ValueError(f"time must be finite, got {time!r}")
        self._samples.append((time, float(value) > self.spec.threshold))

    @property
    def last_time(self) -> float:
        return max((t for t, _ in self._samples), default=0.0)

    def window_counts(self, window: float, now: float) -> tuple[int, int]:
        """(total, bad) observations with ``now - window < t <= now``."""
        lo = now - window
        total = bad = 0
        for t, is_bad in self._samples:
            if lo < t <= now:
                total += 1
                bad += is_bad
        return total, bad

    def burn_rate(self, window: float, now: float | None = None) -> float:
        """Windowed bad fraction over the error budget (0 with no samples)."""
        now = self.last_time if now is None else float(now)
        total, bad = self.window_counts(window, now)
        if total == 0 or bad == 0:
            return 0.0
        budget = 1.0 - self.spec.objective
        if budget == 0.0:
            return math.inf
        return bad / total / budget

    def state(self) -> SLOState:
        """Multi-window evaluation at the last sample: fires only when the
        fast *and* slow windows both exceed their burn thresholds."""
        now = self.last_time
        fast = self.burn_rate(self.spec.fast_window, now)
        slow = self.burn_rate(self.spec.slow_window, now)
        total = len(self._samples)
        bad = sum(1 for _, is_bad in self._samples if is_bad)
        return SLOState(
            name=self.spec.name,
            source=self.spec.source,
            now=now,
            samples=total,
            bad_samples=bad,
            fast_burn_rate=fast,
            slow_burn_rate=slow,
            firing=fast >= self.spec.fast_burn and slow >= self.spec.slow_burn,
        )


class SloHub:
    """Route live tier feeds to every monitor watching that source."""

    def __init__(self, monitors: Iterable[BurnRateMonitor] = ()):
        self.monitors: list[BurnRateMonitor] = list(monitors)

    def feed(self, source: str, time: float, value: float) -> None:
        """One observation from a tier; fans out to matching monitors."""
        for monitor in self.monitors:
            if monitor.spec.source == source:
                monitor.observe(time, value)

    def states(self) -> list[SLOState]:
        return [monitor.state() for monitor in self.monitors]

    def firing(self) -> list[SLOState]:
        """The states that fire, each monitor evaluated at its last sample."""
        return [state for state in self.states() if state.firing]

    def to_json_dict(self) -> dict:
        """The machine-readable ``slo`` report block (see
        ``repro.obs.schema``)."""
        return {
            "monitors": [
                {
                    "name": monitor.spec.name,
                    "source": monitor.spec.source,
                    "threshold": monitor.spec.threshold,
                    "objective": monitor.spec.objective,
                    "fast_window": monitor.spec.fast_window,
                    "slow_window": monitor.spec.slow_window,
                    **monitor.state().to_json_dict(),
                }
                for monitor in self.monitors
            ]
        }


#: slow burn-rate window of every standard monitor, simulated seconds
SLOW_WINDOW = 0.05


def default_monitors(
    *,
    serve_p99_target: float,
    publish_staleness_bound: float,
    train_step_target: float,
) -> list[BurnRateMonitor]:
    """The standard three monitors: serve p99-vs-target, publish
    staleness-vs-bound, train step-time-vs-budget.  Each slow window is
    :data:`SLOW_WINDOW` and each fast one a fifth of it.  Serve and train
    promise :class:`SLOSpec`'s default 99% objective; publication
    rounds are sparse, so the staleness monitor promises a 100% objective
    (any breach of the bound burns at infinite rate — exactly the alarm
    you want)."""
    return [
        BurnRateMonitor(
            SLOSpec(
                name="serve_p99_latency",
                source="serve_latency",
                threshold=serve_p99_target,
                fast_window=SLOW_WINDOW / 5.0,
                slow_window=SLOW_WINDOW,
            )
        ),
        BurnRateMonitor(
            SLOSpec(
                name="publish_staleness",
                source="publish_staleness",
                threshold=publish_staleness_bound,
                objective=1.0,
                fast_window=SLOW_WINDOW / 5.0,
                slow_window=SLOW_WINDOW,
                fast_burn=1.0,
                slow_burn=1.0,
            )
        ),
        BurnRateMonitor(
            SLOSpec(
                name="train_step_time",
                source="train_step",
                threshold=train_step_target,
                fast_window=SLOW_WINDOW / 5.0,
                slow_window=SLOW_WINDOW,
            )
        ),
    ]


def attach_hub(hub: SloHub | None = None) -> SloHub:
    """Install ``hub`` (or a fresh one) as the live feed target the
    instrumented tiers check behind ``OBS.enabled``."""
    hub = SloHub() if hub is None else hub
    OBS.slo_hub = hub
    return hub
