#!/usr/bin/env python
"""One chaos run of the whole system: train, publish, serve — under faults.

Runs the ``repro.faults`` day-in-the-life scenario twice from identical
seeds: once healthy, once with an injected :class:`FaultPlan` — a
straggler rank and a fabric outage during training, a rank failure
answered by checkpoint restore, corrupted publication payloads (one
round abandoned, one recovered by retry), and a serving shard crash
absorbed by retries, circuit breakers, and degraded answers.  The
robustness invariants are checked inline (the script fails loudly if any
breaks) and the unified run report is printed.

With ``--out DIR`` it also writes the machine artifacts:

* ``metrics.json``     — snapshot (schema ``repro.obs.snapshot/v2``) with
  the fault/retry/degradation counters
* ``metrics.prom``     — the same snapshot in Prometheus text format
* ``chaos_trace.json`` — one chrome trace with train / publish / serve
  lanes plus FAULT annotation spans marking every injected window
* ``run_report.txt``   — the report printed below

Run:  python examples/faults_day_in_the_life.py [--out results/chaos]
"""

from __future__ import annotations

import argparse

from repro.faults import run_day_in_the_life_under_faults


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="directory for metrics/trace artifacts")
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--requests", type=int, default=200)
    args = parser.parse_args(argv)

    result = run_day_in_the_life_under_faults(
        n_iterations=args.iterations,
        n_requests=args.requests,
        out_dir=args.out,
    )
    print(result.report)
    print()
    print(
        f"train makespan {result.healthy_train_makespan * 1e3:.3f} ms healthy -> "
        f"{result.faulty_train_makespan * 1e3:.3f} ms under faults | "
        f"resume bit-identical: {result.params_bit_identical} "
        f"({result.checkpoints_taken} checkpoints, {result.restores} restore)"
    )
    print(
        f"publish: {result.publish_rounds} rounds, "
        f"{result.failed_publish_rounds} abandoned, "
        f"{result.publish_attempts_total} delivery attempts | "
        f"staleness {result.staleness_after_last_success:.4f} "
        f"<= bound {result.last_success_staleness_bound:.4f}"
    )
    print(
        f"serve: {result.fresh_requests}/{result.n_requests} fresh, "
        f"{result.impaired_requests} impaired "
        f"({result.stale_rows} stale rows, {result.degraded_rows} degraded rows, "
        f"compound bound {result.compound_bound:.4f})"
    )
    for name, path in sorted(result.paths.items()):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
