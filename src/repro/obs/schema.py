"""Schema validation for exported metrics snapshots.

The CI ``obs-smoke`` job runs the day-in-the-life scenario, writes
``metrics.json`` via :func:`repro.obs.exporters.snapshot_to_json`, and
validates it here::

    PYTHONPATH=src python -m repro.obs.schema results/obs/metrics.json

Validation is hand-rolled (no jsonschema dependency): every structural
rule the parser relies on is checked, and violations raise
:class:`SnapshotSchemaError` with a JSON-pointer-ish path to the bad
node.

Two document versions are accepted:

* ``repro.obs.snapshot/v1`` — ``{"schema", "families"}``: the metric
  families (counters, gauges, histograms with exact reservoirs).
* ``repro.obs.snapshot/v2`` — v1 plus an optional top-level ``reports``
  object carrying derived-analysis blocks:

  * ``reports.critical_path`` — tier name to
    ``{"makespan", "attribution", "steps"}`` as produced by
    :meth:`repro.obs.critpath.CriticalPathResult.to_json_dict`.
    ``attribution`` rows are ``{rank, stream, category, seconds}`` and
    must sum to the makespan (the conservation law, checked here to a
    1e-6 relative tolerance); ``steps`` rows are ``{event_index, rank,
    stream, category, start, end}`` tiling ``[0, makespan]``.
  * ``reports.slo`` — ``{"monitors": [...]}`` as produced by
    :meth:`repro.obs.slo.SloHub.to_json_dict`; each monitor carries its
    spec (``name``, ``source``, ``threshold``, ``objective``, windows)
    and evaluation (``samples``, ``bad_samples``, ``fast_burn_rate``,
    ``slow_burn_rate`` — numbers or the string ``"inf"`` — and
    ``firing``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

__all__ = ["SnapshotSchemaError", "validate_snapshot_json", "main"]

#: the id :func:`repro.obs.exporters.snapshot_to_json` writes; v1
#: documents (no ``reports`` block) stay readable.
SCHEMA_ID = "repro.obs.snapshot/v2"
SCHEMA_ID_V1 = "repro.obs.snapshot/v1"
_KINDS = ("counter", "gauge", "histogram")


class SnapshotSchemaError(ValueError):
    """A snapshot JSON document violates the schema."""


def _fail(path: str, message: str) -> None:
    raise SnapshotSchemaError(f"{path}: {message}")


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        _fail(path, message)


def _is_num(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_histogram(hist: object, path: str) -> None:
    _require(isinstance(hist, dict), path, "histogram must be an object")
    assert isinstance(hist, dict)
    required = {"bounds", "counts", "count", "total", "min", "max", "exact", "exact_limit"}
    missing = required - set(hist)
    _require(not missing, path, f"missing keys: {sorted(missing)}")
    bounds = hist["bounds"]
    _require(
        isinstance(bounds, list) and len(bounds) >= 1 and all(_is_num(b) for b in bounds),
        f"{path}.bounds",
        "must be a non-empty list of numbers",
    )
    _require(
        all(a < b for a, b in zip(bounds, bounds[1:])),
        f"{path}.bounds",
        "must be strictly increasing",
    )
    counts = hist["counts"]
    _require(
        isinstance(counts, list)
        and all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in counts),
        f"{path}.counts",
        "must be a list of non-negative integers",
    )
    _require(
        len(counts) == len(bounds) + 1,
        f"{path}.counts",
        f"expected {len(bounds) + 1} entries (one per bound + overflow), got {len(counts)}",
    )
    count = hist["count"]
    _require(
        isinstance(count, int) and not isinstance(count, bool) and count >= 0,
        f"{path}.count",
        "must be a non-negative integer",
    )
    _require(sum(counts) == count, f"{path}.count", "must equal sum of bucket counts")
    _require(_is_num(hist["total"]), f"{path}.total", "must be a number")
    for edge in ("min", "max"):
        value = hist[edge]
        if count == 0:
            _require(value is None, f"{path}.{edge}", "must be null for an empty series")
        else:
            _require(_is_num(value), f"{path}.{edge}", "must be a number")
    exact_limit = hist["exact_limit"]
    _require(
        isinstance(exact_limit, int) and not isinstance(exact_limit, bool) and exact_limit >= 0,
        f"{path}.exact_limit",
        "must be a non-negative integer",
    )
    exact = hist["exact"]
    if exact is not None:
        _require(
            isinstance(exact, list) and all(_is_num(x) for x in exact),
            f"{path}.exact",
            "must be null or a list of numbers",
        )
        _require(len(exact) == count, f"{path}.exact", "must hold exactly count samples")
        _require(
            all(a <= b for a, b in zip(exact, exact[1:])),
            f"{path}.exact",
            "must be sorted ascending",
        )


def validate_snapshot_json(text: str) -> dict:
    """Validate a snapshot JSON document; return the parsed object."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotSchemaError(f"$: not valid JSON ({exc})") from exc
    _require(isinstance(payload, dict), "$", "document must be an object")
    schema = payload.get("schema")
    _require(
        schema in (SCHEMA_ID, SCHEMA_ID_V1),
        "$.schema",
        f"must be {SCHEMA_ID!r} or {SCHEMA_ID_V1!r}, got {schema!r}",
    )
    families = payload.get("families")
    _require(isinstance(families, list), "$.families", "must be a list")
    seen_names: set[str] = set()
    for i, fam in enumerate(families):
        path = f"$.families[{i}]"
        _require(isinstance(fam, dict), path, "must be an object")
        for key in ("name", "kind", "help", "series"):
            _require(key in fam, path, f"missing key {key!r}")
        name = fam["name"]
        _require(isinstance(name, str) and bool(name), f"{path}.name", "must be a non-empty string")
        _require(name not in seen_names, f"{path}.name", f"duplicate family {name!r}")
        seen_names.add(name)
        _require(fam["kind"] in _KINDS, f"{path}.kind", f"must be one of {_KINDS}")
        _require(isinstance(fam["help"], str), f"{path}.help", "must be a string")
        series = fam["series"]
        _require(isinstance(series, list), f"{path}.series", "must be a list")
        seen_labels: set[tuple[tuple[str, str], ...]] = set()
        for j, entry in enumerate(series):
            spath = f"{path}.series[{j}]"
            _require(isinstance(entry, dict), spath, "must be an object")
            labels = entry.get("labels")
            _require(
                isinstance(labels, dict)
                and all(isinstance(k, str) and isinstance(v, str) for k, v in labels.items()),
                f"{spath}.labels",
                "must be an object of string->string",
            )
            key = tuple(sorted(labels.items()))
            _require(key not in seen_labels, f"{spath}.labels", "duplicate label set")
            seen_labels.add(key)
            if fam["kind"] == "histogram":
                _require("histogram" in entry, spath, "histogram series needs 'histogram'")
                _check_histogram(entry["histogram"], f"{spath}.histogram")
            else:
                _require("value" in entry, spath, f"{fam['kind']} series needs 'value'")
                _require(_is_num(entry["value"]), f"{spath}.value", "must be a number")
    if "reports" in payload:
        _require(
            schema == SCHEMA_ID,
            "$.reports",
            f"only allowed in {SCHEMA_ID!r} documents",
        )
        _check_reports(payload["reports"], "$.reports")
    return payload


def _is_burn(value: object) -> bool:
    return _is_num(value) or value == "inf"


def _check_reports(reports: object, path: str) -> None:
    _require(isinstance(reports, dict), path, "must be an object")
    assert isinstance(reports, dict)
    known = {"critical_path", "slo"}
    unknown = set(reports) - known
    _require(not unknown, path, f"unknown report blocks: {sorted(unknown)}")
    if "critical_path" in reports:
        block = reports["critical_path"]
        bpath = f"{path}.critical_path"
        _require(isinstance(block, dict), bpath, "must map tier -> result")
        for tier, result in block.items():
            _check_critical_path(result, f"{bpath}.{tier}")
    if "slo" in reports:
        _check_slo(reports["slo"], f"{path}.slo")


def _check_critical_path(result: object, path: str) -> None:
    _require(isinstance(result, dict), path, "must be an object")
    assert isinstance(result, dict)
    missing = {"makespan", "attribution", "steps"} - set(result)
    _require(not missing, path, f"missing keys: {sorted(missing)}")
    makespan = result["makespan"]
    _require(
        _is_num(makespan) and makespan >= 0, f"{path}.makespan", "must be a number >= 0"
    )
    attribution = result["attribution"]
    _require(isinstance(attribution, list), f"{path}.attribution", "must be a list")
    total = 0.0
    for i, row in enumerate(attribution):
        rpath = f"{path}.attribution[{i}]"
        _require(isinstance(row, dict), rpath, "must be an object")
        _require(
            isinstance(row.get("rank"), int) and not isinstance(row.get("rank"), bool),
            f"{rpath}.rank",
            "must be an integer",
        )
        for key in ("stream", "category"):
            _require(isinstance(row.get(key), str), f"{rpath}.{key}", "must be a string")
        _require(
            _is_num(row.get("seconds")) and row["seconds"] >= 0,
            f"{rpath}.seconds",
            "must be a number >= 0",
        )
        total += row["seconds"]
    _require(
        abs(total - makespan) <= 1e-6 * max(1.0, abs(makespan)),
        f"{path}.attribution",
        f"seconds must sum to the makespan (got {total!r} vs {makespan!r})",
    )
    steps = result["steps"]
    _require(isinstance(steps, list), f"{path}.steps", "must be a list")
    for i, step in enumerate(steps):
        spath = f"{path}.steps[{i}]"
        _require(isinstance(step, dict), spath, "must be an object")
        idx = step.get("event_index")
        _require(
            idx is None or (isinstance(idx, int) and not isinstance(idx, bool)),
            f"{spath}.event_index",
            "must be null (idle) or an integer ledger index",
        )
        for key in ("start", "end"):
            _require(_is_num(step.get(key)), f"{spath}.{key}", "must be a number")
        _require(
            step["start"] <= step["end"], spath, "start must not exceed end"
        )


def _check_slo(block: object, path: str) -> None:
    _require(isinstance(block, dict), path, "must be an object")
    assert isinstance(block, dict)
    monitors = block.get("monitors")
    _require(isinstance(monitors, list), f"{path}.monitors", "must be a list")
    for i, mon in enumerate(monitors):
        mpath = f"{path}.monitors[{i}]"
        _require(isinstance(mon, dict), mpath, "must be an object")
        for key in ("name", "source"):
            _require(
                isinstance(mon.get(key), str) and bool(mon.get(key)),
                f"{mpath}.{key}",
                "must be a non-empty string",
            )
        for key in ("threshold", "objective", "fast_window", "slow_window", "now"):
            _require(_is_num(mon.get(key)), f"{mpath}.{key}", "must be a number")
        for key in ("samples", "bad_samples"):
            value = mon.get(key)
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value >= 0,
                f"{mpath}.{key}",
                "must be a non-negative integer",
            )
        for key in ("fast_burn_rate", "slow_burn_rate"):
            _require(
                _is_burn(mon.get(key)),
                f"{mpath}.{key}",
                'must be a number or "inf"',
            )
        _require(
            isinstance(mon.get("firing"), bool), f"{mpath}.firing", "must be a boolean"
        )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.schema <metrics.json>", file=sys.stderr)
        return 2
    path = Path(argv[0])
    try:
        payload = validate_snapshot_json(path.read_text())
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except SnapshotSchemaError as exc:
        print(f"INVALID {path}: {exc}", file=sys.stderr)
        return 1
    n_series = sum(len(f["series"]) for f in payload["families"])
    print(f"OK {path}: {len(payload['families'])} families, {n_series} series")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
