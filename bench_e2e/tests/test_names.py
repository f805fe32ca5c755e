"""``BENCHMARK.json`` against the contract and against the code."""

from __future__ import annotations

import re

from bench_e2e.harness import DETERMINISTIC_METRICS
from bench_e2e.workloads import WORKLOADS

from .conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_keys_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * 37 <= 3420, "no room for the driver's runs within its time cap"


def test_names_units_and_bounds(spec):
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_paths_and_command_stay_inside_the_benchmark(spec):
    assert spec["paths"] == ["bench_e2e"]
    assert (ROOT / "bench_e2e").is_dir()
    assert spec["command"] == ["python3", "bench_e2e/run.py"]
    assert (ROOT / spec["command"][1]).is_file()


def test_workloads_and_deterministic_metrics_are_declared(spec):
    assert list(WORKLOADS) == [w["name"] for w in spec["workloads"]]
    assert DETERMINISTIC_METRICS <= {m["name"] for m in spec["per_layer"]}
