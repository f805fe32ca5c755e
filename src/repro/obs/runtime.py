"""The zero-overhead-when-disabled instrumentation switch.

Hot paths (``CompressionPipeline.compress_slice``, the Communicator's
exchange stages, the serving gather loop) guard their metric writes with::

    from repro.obs.runtime import OBS

    if OBS.enabled:
        OBS.registry.counter("...").inc(...)

When observability is off — the default — the cost at each site is one
attribute load and a falsy branch; no registry exists and no labels are
materialized.  ``repro.profiling.perfbench`` ships ``hybrid_obs`` rows
that hold the enabled-vs-disabled overhead under 3 % on the hybrid codec.

This module imports nothing from the rest of ``repro`` so every tier can
depend on it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.registry import MetricsRegistry

__all__ = ["OBS", "enable", "disable", "enabled", "capture"]


class _ObsState:
    """Process-wide observability switch (a singleton, like a logger root)."""

    __slots__ = ("enabled", "registry", "slo_hub")

    def __init__(self) -> None:
        self.enabled = False
        self.registry: MetricsRegistry | None = None
        # An optional repro.obs.slo.SloHub; kept as an opaque attribute so
        # this module stays import-cycle-free.  Feed sites double-guard:
        # ``if OBS.enabled and OBS.slo_hub is not None``.
        self.slo_hub = None


OBS = _ObsState()


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Turn instrumentation on, recording into ``registry`` (or a new one)."""
    reg = MetricsRegistry() if registry is None else registry
    OBS.registry = reg
    OBS.enabled = True
    return reg


def disable() -> None:
    """Turn instrumentation off and drop the active registry and SLO hub."""
    OBS.enabled = False
    OBS.registry = None
    OBS.slo_hub = None


def enabled() -> bool:
    return OBS.enabled


@contextmanager
def capture(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Enable observability for a ``with`` block, restoring the prior state.

    The workhorse for tests and scenarios::

        with capture() as reg:
            trainer.train(iterations=3)
        snap = reg.snapshot()
    """
    prior = (OBS.enabled, OBS.registry, OBS.slo_hub)
    reg = enable(registry)
    try:
        yield reg
    finally:
        OBS.enabled, OBS.registry, OBS.slo_hub = prior
