"""Snapshot exporters: JSON, Prometheus text format, and run reports.

Three consumers, three formats:

* :func:`snapshot_to_json` / :func:`snapshot_from_json` — lossless
  round-trip of a :class:`~repro.obs.registry.RegistrySnapshot`,
  including histogram exact-sample reservoirs.  This is the archival
  format the CI smoke job validates against ``repro.obs.schema``.
* :func:`to_prometheus` / :func:`from_prometheus` — the Prometheus text
  exposition format.  Buckets, sums, counts, and min/max survive; exact
  reservoirs do not (Prometheus has no such concept), so the round-trip
  law is ``from_prometheus(to_prometheus(s)) == s.scrub_exact()``.
* :func:`run_report` — the human table.  Given the snapshot (and
  optionally the per-tier timelines) it renders counters, gauges,
  histogram quantiles, and the per-category time breakdowns that
  ``breakdown_report`` used to print on its own.
"""

from __future__ import annotations

import json
import math
import re
from typing import Mapping

from repro.obs.registry import (
    HistogramData,
    LabelKey,
    MetricsRegistry,
    RegistrySnapshot,
    _FamilySnapshot,
    _freeze_series,
)
from repro.utils.tables import format_table

__all__ = [
    "SNAPSHOT_SCHEMA_ID",
    "SNAPSHOT_SCHEMA_V1",
    "snapshot_to_json",
    "snapshot_from_json",
    "reports_from_json",
    "to_prometheus",
    "from_prometheus",
    "run_report",
]

#: v2 adds the optional top-level ``reports`` object (critical-path and
#: SLO blocks); the metric families are unchanged, so v1 documents stay
#: parseable — :func:`snapshot_from_json` accepts both.
SNAPSHOT_SCHEMA_ID = "repro.obs.snapshot/v2"
SNAPSHOT_SCHEMA_V1 = "repro.obs.snapshot/v1"


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
    payload: dict[str, object] = {"schema": SNAPSHOT_SCHEMA_ID, "families": families}
    if reports:
        payload["reports"] = dict(reports)
    return json.dumps(payload, indent=indent)


def snapshot_from_json(text: str) -> RegistrySnapshot:
    """Parse :func:`snapshot_to_json` output back into a snapshot.

    Accepts the current v2 documents and archived v1 snapshots (identical
    families block, no ``reports``) — the migration path for metrics.json
    files written before the schema bump.
    """
    payload = json.loads(text)
    if payload.get("schema") not in (SNAPSHOT_SCHEMA_ID, SNAPSHOT_SCHEMA_V1):
        raise ValueError(
            f"expected schema {SNAPSHOT_SCHEMA_ID!r} (or {SNAPSHOT_SCHEMA_V1!r}), "
            f"got {payload.get('schema')!r}"
        )
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


def reports_from_json(text: str) -> dict:
    """The ``reports`` block of a snapshot document ({} for v1 files or
    v2 files written without one)."""
    payload = json.loads(text)
    reports = payload.get("reports")
    return dict(reports) if isinstance(reports, dict) else {}


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------


def _esc_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _esc_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unesc_label(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


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


_LINE_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{.*\})?\s+(?P<value>\S+)$")
_LABEL_ITEM_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


class _HistogramAccumulator:
    """Rebuilds a :class:`HistogramData` from exposition lines."""

    def __init__(self) -> None:
        self.buckets: list[tuple[float, int]] = []
        self.total = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def finish(self) -> HistogramData:
        finite = [(u, c) for u, c in self.buckets if u != math.inf]
        finite.sort(key=lambda item: item[0])
        bounds = tuple(u for u, _ in finite)
        cumulative = [c for _, c in finite]
        counts = []
        prev = 0
        for c in cumulative:
            counts.append(c - prev)
            prev = c
        counts.append(self.count - prev)  # overflow bucket from +Inf/count
        return HistogramData(
            bounds=bounds,
            counts=tuple(counts),
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
            exact=None,
            exact_limit=0,
        )


def from_prometheus(text: str) -> RegistrySnapshot:
    """Parse :func:`to_prometheus` output back into a snapshot.

    The result equals the exported snapshot's :meth:`scrub_exact` view —
    exact reservoirs are the one thing the exposition format drops.
    """
    kinds: dict[str, str] = {}
    helps: dict[str, str] = {}
    order: list[str] = []
    scalars: dict[str, dict[LabelKey, float]] = {}
    hists: dict[str, dict[LabelKey, _HistogramAccumulator]] = {}

    def hist_owner(name: str) -> tuple[str, str] | None:
        """(family, part) when ``name`` is a suffix series of a declared
        histogram family."""
        for suffix in ("_bucket", "_sum", "_count", "_min", "_max"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                if kinds.get(family) == "histogram":
                    return family, suffix[1:]
        return None

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text.replace("\\n", "\n").replace("\\\\", "\\")
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            kinds[name] = kind.strip()
            if name not in order:
                order.append(name)
            continue
        if line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name = match.group("name")
        label_text = match.group("labels") or ""
        labels = [
            (k, _unesc_label(v)) for k, v in _LABEL_ITEM_RE.findall(label_text)
        ]
        value = _parse_value(match.group("value"))
        owner = hist_owner(name)
        if owner is not None:
            family, part = owner
            if part == "bucket":
                le = next(v for k, v in labels if k == "le")
                labels = [(k, v) for k, v in labels if k != "le"]
            key = tuple(sorted(labels))
            acc = hists.setdefault(family, {}).setdefault(key, _HistogramAccumulator())
            if part == "bucket":
                acc.buckets.append((_parse_value(le), int(value)))
            elif part == "sum":
                acc.total = value
            elif part == "count":
                acc.count = int(value)
            elif part == "min":
                acc.min = value
            elif part == "max":
                acc.max = value
            continue
        if name not in kinds:
            raise ValueError(f"series {name!r} appears before its # TYPE line")
        scalars.setdefault(name, {})[tuple(sorted(labels))] = value

    families = []
    for name in order:
        kind = kinds[name]
        if kind == "histogram":
            series: dict[LabelKey, object] = {
                key: acc.finish() for key, acc in hists.get(name, {}).items()
            }
        else:
            series = dict(scalars.get(name, {}))
        families.append(
            (
                name,
                _FamilySnapshot(
                    kind=kind, help=helps.get(name, ""), series=_freeze_series(series)
                ),
            )
        )
    return RegistrySnapshot(families=tuple(families))


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
