"""``--smoke`` runs: same shapes, tiny segment counts, both clocks."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from bench_e2e.harness import DETERMINISTIC_METRICS

from .conftest import ROOT

RUN = [sys.executable, str(ROOT / "bench_e2e" / "run.py")]


def _worker(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_smoke_runs_every_workload_in_under_thirty_seconds(spec, tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out)], cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 30, f"--smoke took {elapsed:.1f}s"
    document = json.loads(out.read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        assert set(document["summary"][workload]) == end_to_end  # never 0
        assert f"== {workload} ==" in done.stdout
    assert {"nproc", "affinity", "loadavg", "python", "numpy", "blas"} <= set(document["env"])
    assert document["seed"] == 17 and "commit" in document


@pytest.mark.parametrize(
    "workload", ["train_compressed", "train_baseline", "publish_serve", "exchange_engine"]
)
def test_simulated_clock_repeats_for_a_seed_and_moves_with_it(workload, spec):
    first = _worker(workload, seed=17, trace=1)
    again = _worker(workload, seed=17, trace=1)
    other = _worker(workload, seed=18, trace=1)
    assert set(first) == {m["name"] for m in spec["per_layer"]}
    deterministic = {name: first[name] for name in DETERMINISTIC_METRICS}
    assert deterministic == {name: again[name] for name in DETERMINISTIC_METRICS}
    assert deterministic != {name: other[name] for name in DETERMINISTIC_METRICS}
    assert first["harness.unattributed_share"] <= 0.05
    assert first["harness.trace_overhead_ratio"] > 0


def test_no_program_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and bench_e2e/ there is
    nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench_e2e", tmp_path / "bench_e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "exchange_engine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""
