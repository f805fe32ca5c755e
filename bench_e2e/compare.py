"""Compare two result files of ``bench_e2e.run`` against the bounds.

``python -m bench_e2e.compare PARENT.json CHANGE.json`` prints one row per
workload x end-to-end metric: the parent's median (the base of the ratio),
the change's median, their ratio, the parent's own quartile spread, and a
verdict against the metric's regression bound in ``BENCHMARK.json``:

* ``worse`` / ``better`` — the change's median is beyond the bound in that
  direction;
* ``same`` — within the bound;
* ``unresolved`` — the parent's own spread (Q3 - Q1 over its median)
  exceeds the bound *and* the two sets of runs overlap, so the runs cannot
  tell (never reported as "same").

Per-layer metrics carry no bound; when both files hold traced runs they are
listed with their ratio and base only — except the simulated / computed
ones (``harness.DETERMINISTIC_METRICS``), which must repeat exactly for the
same seeds and are marked ``identical`` or ``changed``.  Exit code 1 when
any row is worse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_e2e.harness import DETERMINISTIC_METRICS

ROOT = Path(__file__).resolve().parent.parent

__all__ = ["verdict", "compare", "main"]


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """Classify one metric x workload from two ``summary`` entries."""
    base_median, new_median = base["median"], new["median"]
    if base_median == 0:
        return "same" if new_median == 0 else "unresolved"
    gain = (new_median - base_median) / abs(base_median)
    if better == "lower":
        gain = -gain
    spread = (base["q3"] - base["q1"]) / abs(base_median)
    overlap = min(base["values"]) <= max(new["values"]) and min(new["values"]) <= max(base["values"])
    if spread > bound and overlap:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def _row_verdict(name: str, info: dict, base: dict, new: dict) -> str:
    if "bound" in info:
        return verdict(base, new, info["better"], info["bound"])
    if name in DETERMINISTIC_METRICS:
        return "identical" if base["values"] == new["values"] else "changed"
    return ""


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layered = {m["name"]: m for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        base_metrics = parent["summary"].get(workload, {})
        new_metrics = change["summary"].get(workload, {})
        for name, info in {**bounded, **layered}.items():
            if name not in base_metrics or name not in new_metrics:
                continue
            base, new = base_metrics[name], new_metrics[name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": info["unit"],
                    "better": info["better"],
                    "base": base["median"],
                    "new": new["median"],
                    "ratio": new["median"] / base["median"] if base["median"] else float("nan"),
                    "base_spread": (base["q3"] - base["q1"]) / abs(base["median"])
                    if base["median"]
                    else 0.0,
                    "n": (base["n"], new["n"]),
                    "bound": info.get("bound"),
                    "verdict": _row_verdict(name, info, base, new),
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e.compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="result file of the parent commit (the base of every ratio)")
    parser.add_argument("change", help="result file of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(
        json.loads(Path(args.parent).read_text()), json.loads(Path(args.change).read_text()), spec
    )
    print(
        f"{'workload':<17} {'metric':<50} {'base':>13} {'new':>13} {'new/base':>9} "
        f"{'base iqr':>9} {'bound':>6}  verdict"
    )
    for row in rows:
        bound = f"{row['bound']:.0%}" if row["bound"] is not None else "-"
        print(
            f"{row['workload']:<17} {row['metric']:<50} {row['base']:>13.6g} {row['new']:>13.6g} "
            f"{row['ratio']:>9.4f} {row['base_spread']:>9.2%} {bound:>6}  "
            f"{row['verdict']} ({row['unit']}, {row['better']} is better, "
            f"n={row['n'][0]}/{row['n'][1]})"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
