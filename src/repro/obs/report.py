"""Offline run-report CLI: re-render a run from its archived artifacts.

The obs-smoke job (and any local run with ``out_dir`` set) leaves
``metrics.json`` and ``obs_trace.json`` behind.  This CLI turns them
back into the human report — including per-tier time breakdowns and
fresh critical-path extractions — *without re-running anything*::

    python -m repro.obs.report results/obs/metrics.json
    python -m repro.obs.report results/obs/metrics.json \
        --trace results/obs/obs_trace.json

With ``--trace`` the unified chrome trace is split back into per-tier
timelines (via its ``metadata.tiers`` block) and each tier's critical
path is re-extracted from the archived events — so the critical-path
summary works even on metrics.json files from before the ``reports``
block existed.  Without it, the summary falls back to the archived
``reports.critical_path`` block when present.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.exporters import run_report, snapshot_from_document
from repro.obs.schema import validate_snapshot_json

__all__ = ["main"]


def _archived_critical_path_summary(block: dict) -> str:
    lines = ["Archived critical paths:"]
    for tier, result in block.items():
        top = result["attribution"][0] if result["attribution"] else None
        head = f"  {tier}: makespan {result['makespan']:.6f}s"
        if top is not None:
            head += (
                f", dominated by {top['category']} "
                f"(rank {top['rank']}, {top['stream']}) at {top['seconds']:.6f}s"
            )
        lines.append(head)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("metrics", type=Path, help="metrics.json snapshot")
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="obs_trace.json unified chrome trace (enables per-tier "
        "breakdowns and fresh critical-path extraction)",
    )
    parser.add_argument("--title", default="Run report")
    args = parser.parse_args(argv)

    try:
        text = args.metrics.read_text()
    except OSError as exc:
        print(f"error: cannot read {args.metrics}: {exc}", file=sys.stderr)
        return 2
    try:
        payload = validate_snapshot_json(text)
    except ValueError as exc:
        print(f"error: {args.metrics} is not a snapshot: {exc}", file=sys.stderr)
        return 2
    snapshot = snapshot_from_document(payload)
    reports = payload.get("reports", {})

    timelines = None
    critical_paths = None
    if args.trace is not None:
        from repro.obs.critpath import extract_critical_path
        from repro.obs.trace import timelines_from_chrome_trace

        try:
            trace = json.loads(args.trace.read_text())
        except OSError as exc:
            print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
            return 2
        try:
            timelines = timelines_from_chrome_trace(trace)
        except ValueError as exc:
            print(f"error: {args.trace}: {exc}", file=sys.stderr)
            return 2
        critical_paths = {
            name: extract_critical_path(timeline)
            for name, timeline in timelines.items()
            if len(timeline)
        }

    print(
        run_report(
            snapshot,
            timelines=timelines,
            critical_paths=critical_paths,
            title=args.title,
        )
    )
    if critical_paths is None and reports.get("critical_path"):
        print()
        print(_archived_critical_path_summary(reports["critical_path"]))
    if reports.get("slo"):
        monitors = reports["slo"]["monitors"]
        firing = [m["name"] for m in monitors if m.get("firing")]
        print()
        print(
            f"Archived SLOs: {len(monitors)} monitors, "
            + (f"FIRING: {', '.join(firing)}" if firing else "none firing")
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
