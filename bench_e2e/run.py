"""Run the benchmark: one command, every metric by name.

Two ways in, one measurement underneath:

* ``python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
  measures **one workload in this process** and prints one JSON object as
  the last line of stdout (``correct``, ``attempted``, ``failed``,
  ``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer
  metrics of a traced run with ``--trace 1``.  This is the protocol
  ``BENCHMARK.json`` names.
* ``python -m bench_e2e.run [--workload NAME] [--seed S] [--runs R]
  [--traced] [--smoke] [--out FILE]`` (no ``--trace``) runs each workload
  in its own subprocess — so ``peak_rss_mb`` and ``setup_s`` are clean —
  ``R`` times with seeds ``S .. S+R-1``, prints every metric with its unit
  and direction, and writes the result file ``bench_e2e.compare`` reads.

The program under test is ``src/repro`` of the checkout this file is in,
never an installed copy; without it the run exits non-zero.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# One thread, before numpy loads its BLAS: unpinned, the median train step
# on this 2-core box wanders 0.87-1.05 s between runs; pinned, within 2%.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: world builds per untraced run; ``setup_s`` reports their median
SETUP_REPEATS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ worker


def run_worker(args: argparse.Namespace) -> int:
    """Measure one workload in this process (the BENCHMARK.json protocol)."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no program to measure: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import numpy  # noqa: F401  (timed: part of what a user waits for)

    from bench_e2e.harness import RunContext, environment, peak_rss_mb
    from bench_e2e.targets import build_targets
    from bench_e2e.trace import ConservationError, Tracer
    from bench_e2e.workloads import WORKLOADS

    spec = load_spec()
    import_seconds = time.perf_counter() - _PROCESS_START
    traced = bool(args.trace)
    ctx = RunContext(
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        tracer=Tracer(build_targets()) if traced else None,
    )
    workload = WORKLOADS[args.workload]()

    setup_walls = []
    for _ in range(1 if traced or args.smoke else SETUP_REPEATS):
        start = time.perf_counter()
        workload.build(ctx)
        setup_walls.append(time.perf_counter() - start)
    workload.measure(ctx)
    workload.verify(ctx)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(traced),
        "import_s": import_seconds,
        "setup_walls_s": setup_walls,
        "phases": {name: phase.summary() for name, phase in ctx.phases.items()},
        "env": environment(),
    }
    if traced:
        tracer = ctx.tracer
        totals = tracer.totals()
        values = workload.per_layer(ctx, totals)
        try:
            values["harness.unattributed_share"] = totals.check_conservation(ctx.traced_wall())
        except ConservationError as error:
            ctx.count(False, f"conservation: {error}")
        values["harness.trace_overhead_ratio"] = ctx.trace_overhead_ratio()
        values["harness.wrapped_targets"] = tracer.wrapped_targets
        values["harness.failed_ops_share"] = ctx.failed / ctx.attempted
        declared = spec["per_layer"]
        detail["missing_targets"] = [target.name for target in tracer.missing]
        detail["layer_self_s"] = {
            f"{phase}/{layer}": seconds for (phase, layer), seconds in sorted(totals.layer_self.items())
        }
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.spans))
    else:
        values = workload.end_to_end(ctx)
        values["setup_s"] = import_seconds + statistics.median(setup_walls)
        values["peak_rss_mb"] = peak_rss_mb()
        declared = spec["end_to_end"]

    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"bench_e2e: metrics not declared in BENCHMARK.json: {unknown}")
    # A layer a workload bypasses reports 0 for that layer's metrics.
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()
    }
    for failure in ctx.failures:
        print(f"bench_e2e: FAILED {failure}", file=sys.stderr)
    detail["failures"] = ctx.failures
    print("detail " + json.dumps(detail))
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if ctx.failed == 0 else 1


# ------------------------------------------------------------ orchestrator


def _spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench_e2e: {workload} (seed {seed}, trace {trace}) printed no result")
    run = json.loads(lines[-1])
    run["metrics"] = {name: metric["value"] for name, metric in run["metrics"].items()}
    detail = next((json.loads(line[7:]) for line in lines if line.startswith("detail ")), {})
    sys.stderr.write(done.stderr)
    return {**run, "detail": detail}


def summarise(runs: list[dict]) -> dict:
    """workload -> metric -> median / quartiles / n over the runs (a metric
    that is 0 on every run — a layer the workload bypasses — is left out)."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, value in run["metrics"].items():
            values.setdefault((run["detail"]["workload"], name), []).append(value)
    summary: dict[str, dict] = {}
    for (workload, name), samples in values.items():
        if not any(samples):
            continue
        q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
        summary.setdefault(workload, {})[name] = {
            "median": statistics.median(samples),
            "q1": q1,
            "q3": q3,
            "n": len(samples),
            "values": samples,
        }
    return summary


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = 0.0 if args.smoke else (args.seconds if args.seconds is not None else spec["run_seconds"])
    runs = []
    for name in names:
        for index in range(args.runs):
            for trace in (0, 1) if args.traced else (0,):
                runs.append(_spawn(name, args.seed + index, seconds, trace, args.smoke))
    summary = summarise(runs)

    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name in names:
        print(f"\n== {name} ==")
        for metric, stats in summary[name].items():
            info = declared[metric]
            bound = f"  bound {info['bound']:.0%}" if "bound" in info else ""
            print(
                f"  {metric:<52} {stats['median']:>14.6g} {info['unit']:<6} "
                f"({info['better']} is better; q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                f"n={stats['n']}){bound}"
            )
        for run in runs:
            detail = run["detail"]
            if detail["workload"] == name and not detail["trace"]:
                for phase, numbers in detail["phases"].items():
                    print(
                        f"  harness[{phase}, seed {detail['seed']}] "
                        f"segment_wall_best_ms={numbers['segment_wall_best_ms']:.3f} "
                        f"segment_wall_p75_ms={numbers['segment_wall_p75_ms']:.3f} "
                        f"segments={numbers['segments']} "
                        f"segment_iqr_over_median={numbers['segment_iqr_over_median']:.4f}"
                    )
    failed = sum(run["failed"] for run in runs)
    print(f"\nattempted {sum(run['attempted'] for run in runs)} operations, failed {failed}")
    if args.out:
        document = {
            "schema": 1,
            "commit": _commit(),
            "seed": args.seed,
            "runs_per_workload": args.runs,
            "seconds": seconds,
            "smoke": args.smoke,
            "env": runs[0]["detail"]["env"],
            "summary": summary,
        }
        # A readable head (number lists folded onto one line), then one
        # compact line per run; each run keeps its own load average.
        for run in runs:
            run["detail"]["loadavg"] = run["detail"].pop("env")["loadavg"]
        head = json.dumps(document, indent=1)[:-2]
        head = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", head)
        lines = ",\n  ".join(json.dumps(run, separators=(",", ":")) for run in runs)
        Path(args.out).write_text(f'{head},\n "runs": [\n  {lines}\n ]\n}}\n')
        print(f"wrote {args.out}")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="measure in-process; 1 = traced run")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, one seed each")
    parser.add_argument("--traced", action="store_true", help="also make a traced run per seed")
    parser.add_argument("--smoke", action="store_true", help="tiny segment counts, same shapes")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--spans-out", help="(with --trace 1) write the raw spans here at exit")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_all(args)
    if args.workload is None or args.seconds is None:
        parser.error("--trace needs --workload and --seconds")
    return run_worker(args)


if __name__ == "__main__":
    sys.exit(main())
