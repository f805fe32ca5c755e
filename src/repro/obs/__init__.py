"""repro.obs — unified metrics, traces, and run reports.

One substrate for every tier's numbers:

* :class:`MetricsRegistry` — process-wide counters, gauges, and
  fixed-bucket histograms with label sets and immutable snapshots.
* :func:`enable` / :func:`disable` / :func:`capture` — the
  zero-overhead-when-disabled switch the hot paths guard on.
* :func:`unified_chrome_trace` — trainer steps, exchange stages,
  publications, and serving requests, recorded by the tiers as
  ``OBS_STREAM`` events on the simulation
  :class:`~repro.dist.timeline.Timeline`, in one chrome trace with
  counter tracks.
* Exporters — :func:`snapshot_to_json`, :func:`to_prometheus`, and the
  human :func:`run_report` table.
* Analysis — :func:`extract_critical_path` (dependency-DAG makespan
  attribution with ``speedup_if`` what-ifs) and the :class:`SloHub`
  burn-rate monitors fed live by the tiers.  ``python -m
  repro.obs.report`` re-renders the run report and critical paths from
  archived artifacts.

Only the registry and the runtime switch load eagerly (they are what the
hot paths import); the trace/exporter layers — which pull in
``repro.dist`` and ``repro.profiling`` — load lazily on first attribute
access to keep import cycles impossible.
"""

from __future__ import annotations

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    DEFAULT_EXACT_LIMIT,
    UNIT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsRegistry,
    RegistrySnapshot,
    exponential_buckets,
    linear_buckets,
)
from repro.obs.runtime import OBS, capture, disable, enable

_LAZY_EXPORTS = {
    "unified_chrome_trace": "repro.obs.trace",
    "timelines_from_chrome_trace": "repro.obs.trace",
    "SNAPSHOT_SCHEMA_ID": "repro.obs.exporters",
    "snapshot_to_json": "repro.obs.exporters",
    "snapshot_from_document": "repro.obs.exporters",
    "to_prometheus": "repro.obs.exporters",
    "run_report": "repro.obs.exporters",
    "validate_snapshot_json": "repro.obs.schema",
    "SnapshotSchemaError": "repro.obs.schema",
    "run_day_in_the_life": "repro.obs.scenario",
    "ScenarioResult": "repro.obs.scenario",
    "CriticalPathResult": "repro.obs.critpath",
    "CriticalStep": "repro.obs.critpath",
    "SpeedupEstimate": "repro.obs.critpath",
    "TimelineDag": "repro.obs.critpath",
    "extract_critical_path": "repro.obs.critpath",
    "critical_path_report": "repro.obs.critpath",
    "highlight_trace_events": "repro.obs.critpath",
    "report_json_block": "repro.obs.critpath",
    "SLOSpec": "repro.obs.slo",
    "SLOState": "repro.obs.slo",
    "BurnRateMonitor": "repro.obs.slo",
    "SloHub": "repro.obs.slo",
    "default_monitors": "repro.obs.slo",
    "attach_hub": "repro.obs.slo",
}

__all__ = [
    "DEFAULT_BUCKETS",
    "UNIT_BUCKETS",
    "DEFAULT_EXACT_LIMIT",
    "exponential_buckets",
    "linear_buckets",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramData",
    "MetricsRegistry",
    "RegistrySnapshot",
    "OBS",
    "enable",
    "disable",
    "capture",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
