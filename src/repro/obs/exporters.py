"""Snapshot exporters: JSON, Prometheus text format, and run reports.

Three consumers, three formats:

* :func:`snapshot_to_json` / :func:`snapshot_from_document` — lossless
  round-trip of a :class:`~repro.obs.registry.RegistrySnapshot`,
  including histogram exact-sample reservoirs.  This is the archival
  format the CI smoke job validates against ``repro.obs.schema``; a
  document is read back by validating it with
  :func:`~repro.obs.schema.validate_snapshot_json` and handing the parsed
  payload to :func:`snapshot_from_document`.
* :func:`to_prometheus` — the Prometheus text exposition format.
  Buckets, sums, counts, and min/max survive; exact reservoirs do not
  (Prometheus has no such concept).
* :func:`run_report` — the human table.  Given the snapshot (and
  optionally the per-tier timelines) it renders counters, gauges,
  histogram quantiles, and the per-category time breakdowns that
  ``breakdown_report`` used to print on its own.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

from repro.obs.registry import (
    HistogramData,
    LabelKey,
    MetricsRegistry,
    RegistrySnapshot,
    _FamilySnapshot,
    _freeze_series,
)
from repro.obs.schema import SCHEMA_ID
from repro.utils.tables import format_table

__all__ = [
    "snapshot_to_json",
    "snapshot_from_document",
    "to_prometheus",
    "run_report",
]


def _coerce_snapshot(source: RegistrySnapshot | MetricsRegistry) -> RegistrySnapshot:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


# --------------------------------------------------------------------------
# JSON (lossless)
# --------------------------------------------------------------------------


def _labels_dict(key: LabelKey) -> dict[str, str]:
    return dict(key)


def snapshot_to_json(
    source: RegistrySnapshot | MetricsRegistry,
    *,
    indent: int | None = None,
    reports: Mapping[str, object] | None = None,
) -> str:
    """Serialize a snapshot (or a live registry) to schema-tagged JSON.

    ``reports`` attaches derived-analysis blocks (``critical_path`` from
    :func:`repro.obs.critpath.report_json_block`, ``slo`` from
    :meth:`repro.obs.slo.SloHub.to_json_dict`) under the top-level
    ``reports`` key — see ``repro.obs.schema`` for their shapes.
    """
    snapshot = _coerce_snapshot(source)
    families = []
    for name, fam in snapshot.families:
        series = []
        for key, value in fam.series:
            entry: dict[str, object] = {"labels": _labels_dict(key)}
            if fam.kind == "histogram":
                data = value  # type: ignore[assignment]
                entry["histogram"] = {
                    "bounds": list(data.bounds),
                    "counts": list(data.counts),
                    "count": data.count,
                    "total": data.total,
                    "min": data.min,
                    "max": data.max,
                    "exact": None if data.exact is None else list(data.exact),
                    "exact_limit": data.exact_limit,
                }
            else:
                entry["value"] = value
            series.append(entry)
        families.append(
            {"name": name, "kind": fam.kind, "help": fam.help, "series": series}
        )
    payload: dict[str, object] = {"schema": SCHEMA_ID, "families": families}
    if reports:
        payload["reports"] = dict(reports)
    return json.dumps(payload, indent=indent)


def snapshot_from_document(payload: dict) -> RegistrySnapshot:
    """The snapshot of a :func:`snapshot_to_json` document, given as the
    payload :func:`~repro.obs.schema.validate_snapshot_json` returned.

    Accepts the current v2 documents and archived v1 snapshots (identical
    families block, no ``reports``) — the migration path for metrics.json
    files written before the schema bump.  The walk trusts the validator:
    every node it reads was checked there.
    """
    families = []
    for fam in payload["families"]:
        kind = fam["kind"]
        series: dict[LabelKey, object] = {}
        for entry in fam["series"]:
            key = tuple(sorted((str(k), str(v)) for k, v in entry["labels"].items()))
            if kind == "histogram":
                h = entry["histogram"]
                series[key] = HistogramData(
                    bounds=tuple(float(b) for b in h["bounds"]),
                    counts=tuple(int(c) for c in h["counts"]),
                    count=int(h["count"]),
                    total=float(h["total"]),
                    min=None if h["min"] is None else float(h["min"]),
                    max=None if h["max"] is None else float(h["max"]),
                    exact=None
                    if h["exact"] is None
                    else tuple(float(x) for x in h["exact"]),
                    exact_limit=int(h["exact_limit"]),
                )
            else:
                series[key] = float(entry["value"])
        families.append(
            (
                fam["name"],
                _FamilySnapshot(
                    kind=kind, help=fam["help"], series=_freeze_series(series)
                ),
            )
        )
    return RegistrySnapshot(families=tuple(families))


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------


def _esc_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _esc_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = tuple(key) + extra
    if not items:
        return ""
    body = ",".join(f'{k}="{_esc_label(v)}"' for k, v in items)
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if value != value:  # NaN never occurs in our metrics, but be safe
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(source: RegistrySnapshot | MetricsRegistry) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Histograms emit the standard ``_bucket``/``_sum``/``_count`` series
    plus non-standard ``_min``/``_max`` companion series (untyped, which
    real scrapers tolerate); exact reservoirs are not representable.
    """
    snapshot = _coerce_snapshot(source)
    lines: list[str] = []
    for name, fam in snapshot.families:
        if fam.help:
            lines.append(f"# HELP {name} {_esc_help(fam.help)}")
        lines.append(f"# TYPE {name} {fam.kind}")
        for key, value in fam.series:
            if fam.kind != "histogram":
                lines.append(f"{name}{_fmt_labels(key)} {_fmt_value(value)}")
                continue
            data = value  # type: ignore[assignment]
            cumulative = 0
            for upper, n in zip(data.bounds, data.counts):
                cumulative += n
                le = _fmt_labels(key, (("le", _fmt_value(upper)),))
                lines.append(f"{name}_bucket{le} {cumulative}")
            le = _fmt_labels(key, (("le", "+Inf"),))
            lines.append(f"{name}_bucket{le} {data.count}")
            lines.append(f"{name}_sum{_fmt_labels(key)} {_fmt_value(data.total)}")
            lines.append(f"{name}_count{_fmt_labels(key)} {data.count}")
            if data.min is not None:
                lines.append(f"{name}_min{_fmt_labels(key)} {_fmt_value(data.min)}")
            if data.max is not None:
                lines.append(f"{name}_max{_fmt_labels(key)} {_fmt_value(data.max)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# human run report
# --------------------------------------------------------------------------


def _series_label(name: str, key: LabelKey) -> str:
    if not key:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


def _counter_totals(snapshot: RegistrySnapshot, *names: str) -> list[float] | None:
    """Each named counter family summed over its series (``None`` when one
    of them was never recorded)."""
    try:
        return [sum(float(value) for _key, value in snapshot.family(name).series) for name in names]
    except KeyError:
        return None


def _shard_reencode_line(snapshot: RegistrySnapshot) -> str | None:
    """How much of the shard tier's storage the publication rounds actually
    re-encoded, summed over tables (``None`` when no ``set_table`` ran)."""
    totals = _counter_totals(
        snapshot, "shard_blocks_reencoded_total", "shard_blocks_unchanged_total"
    )
    if totals is None:
        return None
    reencoded, unchanged = totals
    offered = reencoded + unchanged
    return (
        f"shard re-encode: {reencoded:.0f} of {offered:.0f} row blocks re-encoded "
        f"({100.0 * reencoded / max(1.0, offered):.1f}%), the rest unchanged"
    )


def _publish_skip_line(snapshot: RegistrySnapshot) -> str | None:
    """How many table deltas the publication rounds shipped, of all they
    offered (``None`` when no round was published)."""
    totals = _counter_totals(
        snapshot, "publish_tables_shipped_total", "publish_tables_within_bound_total"
    )
    if totals is None:
        return None
    shipped, within = totals
    return (
        f"publish: {shipped:.0f} of {shipped + within:.0f} table deltas shipped; "
        "the rest were within bound"
    )


def run_report(
    source: RegistrySnapshot | MetricsRegistry,
    *,
    timelines: Mapping[str, object] | None = None,
    critical_paths: Mapping[str, object] | None = None,
    slo: object | None = None,
    title: str = "Run report",
) -> str:
    """Render the whole run as aligned ASCII tables.

    One table per metric kind (counters, gauges, histograms with
    exact-rank p50/p99), then — when ``timelines`` maps tier names to
    :class:`~repro.dist.timeline.Timeline` objects — the per-category
    time breakdown of each tier, subsuming what ``breakdown_report``
    printed per-timeline.  ``critical_paths`` maps tier names to
    :class:`~repro.obs.critpath.CriticalPathResult` objects and renders
    each tier's makespan attribution; ``slo`` takes a
    :class:`~repro.obs.slo.SloHub` (or a list of its states) and renders
    the burn-rate table.
    """
    from repro.profiling.breakdown import breakdown_report  # avoid import cycle

    snapshot = _coerce_snapshot(source)
    sections: list[str] = []
    counter_rows = []
    gauge_rows = []
    hist_rows = []
    for name, kind, key, value in snapshot.iter_series():
        label = _series_label(name, key)
        if kind == "counter":
            counter_rows.append((label, value))
        elif kind == "gauge":
            gauge_rows.append((label, value))
        else:
            data = value  # type: ignore[assignment]
            if data.count == 0:
                continue
            hist_rows.append(
                (
                    label,
                    data.count,
                    data.mean,
                    data.quantile(0.5),
                    data.quantile(0.99),
                    data.max,
                )
            )
    if counter_rows:
        sections.append(
            format_table(["counter", "value"], counter_rows, title=f"{title} — counters")
        )
    if gauge_rows:
        sections.append(
            format_table(["gauge", "value"], gauge_rows, title=f"{title} — gauges")
        )
    if hist_rows:
        sections.append(
            format_table(
                ["histogram", "count", "mean", "p50", "p99", "max"],
                hist_rows,
                title=f"{title} — histograms (exact-rank quantiles)",
            )
        )
    publish_lines = [
        line
        for line in (_shard_reencode_line(snapshot), _publish_skip_line(snapshot))
        if line is not None
    ]
    for tier_name, timeline in (timelines or {}).items():
        section = breakdown_report(timeline, title=f"{title} — {tier_name} time breakdown")
        if tier_name == "publish" and publish_lines:
            section += "\n" + "\n".join(publish_lines)
            publish_lines = []
        sections.append(section)
    sections.extend(publish_lines)  # no publish timeline to sit under
    if critical_paths:
        from repro.obs.critpath import critical_path_report

        for tier_name, result in critical_paths.items():
            sections.append(
                critical_path_report(
                    result, title=f"{title} — {tier_name} critical path"
                )
            )
    if slo is not None:
        states = slo.states() if hasattr(slo, "states") else list(slo)
        slo_rows = [
            (
                s.name,
                s.source,
                s.samples,
                s.bad_samples,
                f"{s.fast_burn_rate:.2f}",
                f"{s.slow_burn_rate:.2f}",
                "FIRING" if s.firing else "ok",
            )
            for s in states
        ]
        if slo_rows:
            sections.append(
                format_table(
                    ["slo", "source", "samples", "bad", "fast burn", "slow burn", "state"],
                    slo_rows,
                    title=f"{title} — SLO burn rates",
                )
            )
    if not sections:
        return f"{title}: no metrics recorded"
    return "\n\n".join(sections)
