"""The comparer's verdicts against a metric's bound."""

from __future__ import annotations

import statistics

from bench_e2e.compare import compare, verdict


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def test_verdicts_follow_direction_and_bound():
    base = _stats([100.0, 101.0, 99.0, 100.5])
    assert verdict(base, _stats([100.2, 99.8, 100.1, 100.0]), "higher", 0.10) == "same"
    assert verdict(base, _stats([80.0, 81.0, 79.0, 80.5]), "higher", 0.10) == "worse"
    assert verdict(base, _stats([80.0, 81.0, 79.0, 80.5]), "lower", 0.10) == "better"
    assert verdict(base, _stats([120.0, 121.0, 119.0, 122.0]), "higher", 0.10) == "better"


def test_noisy_parent_with_overlapping_runs_is_unresolved_not_same():
    noisy = _stats([80.0, 100.0, 120.0, 140.0])
    assert verdict(noisy, _stats([90.0, 110.0, 100.0, 105.0]), "higher", 0.10) == "unresolved"
    # ... unless every run of the change lies outside the parent's.
    assert verdict(noisy, _stats([300.0, 310.0, 305.0, 320.0]), "higher", 0.10) == "better"


def test_rows_carry_the_base_of_every_ratio(spec):
    workload = spec["workloads"][0]["name"]
    metric = spec["end_to_end"][0]
    parent = {"summary": {workload: {metric["name"]: _stats([10.0, 10.1, 9.9, 10.0])}}}
    change = {"summary": {workload: {metric["name"]: _stats([5.0, 5.1, 4.9, 5.0])}}}
    (row,) = compare(parent, change, spec)
    assert (row["workload"], row["metric"]) == (workload, metric["name"])
    assert row["base"] == 10.0 and row["new"] == 5.0 and row["ratio"] == 0.5
    assert row["verdict"] == ("worse" if metric["better"] == "higher" else "better")
