"""The exposition parser behind the Prometheus round-trip law.

:func:`from_prometheus` reads :func:`repro.obs.exporters.to_prometheus`
output back into a :class:`~repro.obs.registry.RegistrySnapshot`.  The
result equals the exported snapshot's :func:`scrub_exact` view — exact
reservoirs are the one thing the exposition format drops — so
``from_prometheus(to_prometheus(s)) == scrub_exact(s)`` is the law the
exporter tests pin.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

from repro.obs.registry import (
    HistogramData,
    LabelKey,
    RegistrySnapshot,
    _FamilySnapshot,
    _freeze_series,
)


def scrub_exact(snapshot: RegistrySnapshot) -> RegistrySnapshot:
    """``snapshot`` with every histogram's exact reservoir dropped: the
    bucket-only view the Prometheus exposition preserves."""
    families = []
    for name, fam in snapshot.families:
        if fam.kind == "histogram":
            series = _freeze_series(
                {key: replace(data, exact=None, exact_limit=0) for key, data in fam.series}
            )
            fam = _FamilySnapshot(kind=fam.kind, help=fam.help, series=series)
        families.append((name, fam))
    return RegistrySnapshot(families=tuple(families))


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

    The result equals the exported snapshot's :func:`scrub_exact` view —
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
