"""Fig. 1 — performance profiling of DLRM training with 32 GPUs.

The paper's motivating measurement: on 32 A100s, all-to-all communication
accounts for more than 60 % of total training time.  This bench runs the
uncompressed hybrid-parallel simulation at 32 ranks and regenerates the
stacked breakdown.

Shape targets: communication (all-to-all fwd + bwd + all-reduce) > 60 % of
iteration time; the two all-to-alls are the largest single categories.
"""

from __future__ import annotations

from repro.dist.timeline import EventCategory
from repro.profiling import breakdown_report

from conftest import write_result


def test_fig01_profiling_breakdown(cluster_runs, benchmark):
    report = cluster_runs.baseline
    seconds = report.category_seconds

    text = breakdown_report(
        seconds,
        title=(
            f"Fig. 1 - DLRM training breakdown, {cluster_runs.N_RANKS} simulated GPUs "
            f"(global batch {cluster_runs.GLOBAL_BATCH}, uncompressed)"
        ),
    )
    write_result("fig01_profiling", text)

    total = sum(seconds.values())
    alltoall = seconds[EventCategory.ALLTOALL_FWD] + seconds[EventCategory.ALLTOALL_BWD]
    communication = alltoall + seconds.get(EventCategory.ALLREDUCE, 0.0)

    # Paper: all-to-all >60% of training time at 32 GPUs.
    assert communication / total > 0.60, f"communication share {communication / total:.2f}"
    assert alltoall / total > 0.45, f"all-to-all share {alltoall / total:.2f}"
    # The two all-to-alls are the top categories.
    top2 = sorted(seconds.values(), reverse=True)[:2]
    assert set(top2) == {
        seconds[EventCategory.ALLTOALL_FWD],
        seconds[EventCategory.ALLTOALL_BWD],
    }

    # Timed kernel: regenerating the breakdown report from the timeline.
    benchmark(lambda: breakdown_report(report.timeline))
