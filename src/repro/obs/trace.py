"""Merge per-tier timelines into one unified chrome trace.

The trainer, the delta publisher, and the serving tier each simulate on
their own :class:`~repro.dist.timeline.Timeline` (their clocks are
independent).  ``unified_chrome_trace`` stitches them into a single
chrome-trace object — one *process* per tier, with every lane, span, and
counter track preserved — so a whole train→publish→serve run reads as one
picture in ``chrome://tracing`` / Perfetto.

Optional per-tier ``offsets`` (seconds) shift a tier along the shared
time axis, e.g. to place the publication after the training steps it
follows and the serving burst after the publication.
"""

from __future__ import annotations

from typing import Mapping

from repro.dist.timeline import Timeline

__all__ = [
    "unified_chrome_trace",
    "timelines_from_chrome_trace",
]


def unified_chrome_trace(
    tiers: Mapping[str, Timeline],
    *,
    offsets: Mapping[str, float] | None = None,
) -> dict:
    """Combine named timelines into one multi-process chrome trace.

    ``tiers`` maps a tier name (becomes the chrome process name) to its
    timeline; iteration order fixes the process ids.  ``offsets`` maps
    tier names to a shift in *seconds* applied to every timed entry of
    that tier (metadata events carry no timestamps and are unaffected).

    The result's top-level ``metadata.tiers`` object records each tier's
    ``pid`` and ``offset_seconds`` (viewers ignore it), so
    :func:`timelines_from_chrome_trace` can split the merged trace back
    into per-tier timelines without re-running anything.
    """
    offsets = dict(offsets or {})
    unknown = set(offsets) - set(tiers)
    if unknown:
        raise ValueError(f"offsets name unknown tiers: {sorted(unknown)}")
    merged: list[dict] = []
    tier_meta: dict[str, dict] = {}
    for pid, (name, timeline) in enumerate(tiers.items()):
        shift = float(offsets.get(name, 0.0))
        tier_meta[name] = {"pid": pid, "offset_seconds": shift}
        for entry in timeline.to_chrome_trace(process_name=name)["traceEvents"]:
            entry = dict(entry)
            entry["pid"] = pid
            if "ts" in entry:
                entry["ts"] = entry["ts"] + shift * 1e6
            merged.append(entry)
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "metadata": {"tiers": tier_meta},
    }


def timelines_from_chrome_trace(trace: dict) -> dict[str, Timeline]:
    """Split a :func:`unified_chrome_trace` object back into per-tier
    timelines, offsets undone — the inverse the ``repro.obs.report`` CLI
    uses to analyze an archived trace without re-running the scenario.

    Requires the ``metadata.tiers`` block this module writes; raises
    :class:`ValueError` on traces that lack it (e.g. hand-edited files).
    """
    tiers = (trace.get("metadata") or {}).get("tiers")
    if not isinstance(tiers, dict) or not tiers:
        raise ValueError("trace has no metadata.tiers block (not a unified trace)")
    timelines: dict[str, Timeline] = {}
    for name, meta in tiers.items():
        pid = meta["pid"]
        shift_us = float(meta.get("offset_seconds", 0.0)) * 1e6
        events = []
        for entry in trace.get("traceEvents", ()):
            if entry.get("pid") != pid:
                continue
            # The critical-path highlight lane is derived, not recorded
            # work — re-importing it would double-count every step.
            if entry.get("cat") == "critpath":
                continue
            entry = dict(entry)
            if "ts" in entry:
                entry["ts"] = entry["ts"] - shift_us
            events.append(entry)
        timelines[name] = Timeline.from_chrome_trace({"traceEvents": events})
    return timelines
