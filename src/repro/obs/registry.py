"""Process-wide metrics primitives: counters, gauges, histograms.

The registry is the shared substrate every tier (train, comm, serve)
records into — per-table compression ratios, per-stage exchange bytes,
cache hit counts, request latencies.  Three metric kinds cover all of
them:

* :class:`Counter` — monotonically increasing totals (bytes on wire,
  requests served).
* :class:`Gauge` — last-written values (current error-bound utilization,
  overlap efficiency of the most recent iteration).
* :class:`Histogram` — fixed-bucket distributions with an exact-sample
  reservoir, so small samples get *exact-rank* quantiles and large runs
  degrade gracefully to bucketed estimates.

Every metric family supports label sets (``codec="hybrid"``,
``stage="payload"``); a (name, labels) pair identifies one series.
:meth:`MetricsRegistry.snapshot` freezes the whole registry into a
:class:`RegistrySnapshot`, the value the exporters write.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.utils.validation import check_count, check_positive

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
    "LabelKey",
    "MetricsRegistry",
    "RegistrySnapshot",
]

#: canonical series identity: label items sorted by key
LabelKey = tuple[tuple[str, str], ...]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` upper bounds starting at ``start``, each ``factor`` apart."""
    check_positive("start", start)
    if not factor > 1:
        raise ValueError(f"factor must be > 1, got {factor!r}")
    check_count("count", count, 1)
    return tuple(start * factor**i for i in range(count))


def linear_buckets(start: float, width: float, count: int) -> tuple[float, ...]:
    """``count`` upper bounds ``start, start+width, ...`` (for bounded ranges)."""
    check_positive("width", width)
    check_count("count", count, 1)
    return tuple(start + width * i for i in range(count))


#: 1 µs .. ~537 s in powers of two — covers kernel times through makespans
DEFAULT_BUCKETS = exponential_buckets(1e-6, 2.0, 30)
#: 0.05 .. 1.0 — for fractions (hit rates, overlap efficiency)
UNIT_BUCKETS = linear_buckets(0.05, 0.05, 20)
#: exact samples kept per histogram series before falling back to buckets
DEFAULT_EXACT_LIMIT = 4096


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    for name in labels:
        if not _LABEL_NAME_RE.match(name):
            raise ValueError(f"invalid label name: {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _check_value(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value must be finite, got {value!r}")
    return value


# --------------------------------------------------------------------------
# histogram data (immutable; the unit of snapshot/quantile)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HistogramData:
    """Frozen state of one histogram series.

    ``bounds`` are inclusive upper edges; ``counts`` has one entry per
    bound plus a final overflow bucket.  ``exact`` is the sorted sample
    reservoir (``None`` once more than ``exact_limit`` samples have been
    absorbed).
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    total: float
    min: float | None
    max: float | None
    exact: tuple[float, ...] | None
    exact_limit: int

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Exact-rank quantile: the smallest sample with rank
        ``max(1, ceil(q * n))`` — no interpolation, so on small samples
        the answer is always an observed value.

        Once the exact reservoir is gone, falls back to the bucket upper
        edge containing that rank, clamped to the observed max (and the
        observed max for ranks landing in the overflow bucket).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("quantile of an empty histogram")
        rank = max(1, math.ceil(q * self.count))
        if self.exact is not None:
            return self.exact[rank - 1]
        seen = 0
        for upper, n in zip(self.bounds, self.counts):
            seen += n
            if seen >= rank:
                assert self.max is not None
                return min(upper, self.max)
        assert self.max is not None
        return self.max


class _HistogramSeries:
    """Mutable per-labelset accumulator behind a :class:`Histogram`."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max", "exact")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.exact: list[float] | None = []

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.exact is not None:
            if self.count > DEFAULT_EXACT_LIMIT:
                self.exact = None
            else:
                insort(self.exact, value)

    def data(self) -> HistogramData:
        return HistogramData(
            bounds=self.bounds,
            counts=tuple(self.counts),
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
            exact=None if self.exact is None else tuple(self.exact),
            exact_limit=DEFAULT_EXACT_LIMIT,
        )


# --------------------------------------------------------------------------
# live metric families
# --------------------------------------------------------------------------


class Counter:
    """Monotonic sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._series: dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: object) -> None:
        value = _check_value(value)
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {value})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def series(self) -> dict[LabelKey, float]:
        return dict(self._series)


class Gauge:
    """Last-written value per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._series: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = _check_value(value)

    def series(self) -> dict[LabelKey, float]:
        return dict(self._series)


class Histogram:
    """Fixed-bucket distribution per label set (see :class:`HistogramData`)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(self.bounds)
        series.observe(_check_value(value))

    def data(self, **labels: object) -> HistogramData:
        key = _label_key(labels)
        if key not in self._series:
            raise KeyError(f"histogram {self.name} has no series {dict(labels)!r}")
        return self._series[key].data()

    def quantile(self, q: float, **labels: object) -> float:
        return self.data(**labels).quantile(q)

    def series(self) -> dict[LabelKey, HistogramData]:
        return {key: s.data() for key, s in self._series.items()}


# --------------------------------------------------------------------------
# registry + snapshot
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _FamilySnapshot:
    kind: str
    help: str
    series: tuple[tuple[LabelKey, object], ...]

    def as_dict(self) -> dict[LabelKey, object]:
        return dict(self.series)


def _freeze_series(series: Mapping[LabelKey, object]) -> tuple[tuple[LabelKey, object], ...]:
    return tuple(sorted(series.items(), key=lambda item: item[0]))


@dataclass(frozen=True)
class RegistrySnapshot:
    """Immutable point-in-time view of a registry."""

    families: tuple[tuple[str, _FamilySnapshot], ...]

    def family(self, name: str) -> _FamilySnapshot:
        for fam_name, fam in self.families:
            if fam_name == name:
                return fam
        raise KeyError(f"no metric family named {name!r}")

    def counter_value(self, name: str, **labels: object) -> float:
        fam = self.family(name)
        if fam.kind != "counter":
            raise TypeError(f"{name} is a {fam.kind}, not a counter")
        return float(fam.as_dict().get(_label_key(labels), 0.0))  # type: ignore[arg-type]

    def iter_series(self) -> Iterator[tuple[str, str, LabelKey, object]]:
        """Yield ``(name, kind, label_key, value_or_data)`` rows."""
        for name, fam in self.families:
            for key, value in fam.series:
                yield name, fam.kind, key, value


class MetricsRegistry:
    """Get-or-create home for metric families.

    Accessors are idempotent: ``registry.counter("x")`` returns the same
    family every call, so instrumentation sites don't coordinate
    creation.  Asking for an existing name with a different kind raises.
    """

    def __init__(self) -> None:
        self._families: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs: object):
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._families[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, bounds=bounds)

    def snapshot(self) -> RegistrySnapshot:
        families = []
        for name in sorted(self._families):
            metric = self._families[name]
            families.append(
                (
                    name,
                    _FamilySnapshot(
                        kind=metric.kind,
                        help=metric.help,
                        series=_freeze_series(metric.series()),
                    ),
                )
            )
        return RegistrySnapshot(families=tuple(families))
