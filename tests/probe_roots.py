"""Run every non-test root under a call probe and a value probe.

The static guard in ``tests/test_reachability.py`` matches by name, so it
cannot see a dead method that shares a live one's name, or a setting that
every caller passes at its default.  This script runs what a user or CI
runs and watches what actually happens:

* the **call probe** records every ``src/repro`` code object that runs and
  lists the *outermost* functions no root calls (a nested ``def`` inside
  an uncalled one is not listed again);
* the **value probe** compares, on every call, each defaulted parameter's
  value with its default (``is``, or ``==`` for numbers, strings, bytes and
  tuples) and lists the defaulted parameters of called functions that no
  root ever sets to anything else.  The function is resolved through
  ``frame.f_globals`` and ``co_qualname`` (``staticmethod`` /
  ``classmethod`` unwrapped); generated ``__init__``\\ s (dataclass fields)
  are not covered.

Both probes live in one call-only tracer (``sys.settrace`` and
``threading.settrace``; it returns ``None``, so no line events), installed
by a ``sitecustomize`` this script writes into its work directory.  Each
traced process writes its records at exit.

The roots: every ``examples/*.py`` (the two day-in-the-life examples with
``--out`` into the work directory), ``bench_e2e/run.py`` for every workload
at ``--trace 0`` and ``--trace 1`` (``--seed 100 --seconds 2 --smoke``),
``repro.profiling.perfbench --smoke --check BENCH_compression.json``,
``repro.obs.schema`` on both ``metrics.json``, ``repro.obs.report`` with
``--trace``, ``pytest bench_e2e/tests`` and ``pytest benchmarks
--benchmark-disable``.  A root that fails (a timing bar in ``benchmarks/``
may, under the tracer) is reported, not fatal.

Usage (about 7 minutes on a 2-core host, 4 of them in ``benchmarks/``)::

    python tests/probe_roots.py            # print both lists
    python tests/probe_roots.py --check    # exit 1 on a finding with no keep reason

A finding in :data:`KEEP_FUNCTIONS` or :data:`KEEP_PARAMETERS` is printed
with its reason; ``--check`` fails on any other.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import numbers
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: uncalled function (``module:qualname``) -> why it stays
KEEP_FUNCTIONS: dict[str, str] = {
    "repro.adaptive.decay:DecaySchedule.multiplier": "abstract hook",
    "repro.compression.base:Compressor._compress_body": "abstract hook",
    "repro.compression.base:Compressor._decompress_body": "abstract hook",
    "repro.compression.hybrid:HybridCompressor._compress_body": (
        "abstract-hook override: hybrid frames through its own compress"
    ),
    "repro.compression.hybrid:HybridCompressor._decompress_body": (
        "abstract-hook override: hybrid decodes through its own frame"
    ),
    "repro.compression.base:_wrong_codec_error": "error factory: reached only on a foreign frame",
    "repro.compression.baselines.lz_generic:_corrupt": "error factory: reached only on bad input",
    "repro.obs.schema:_fail": "error factory: reached only on an invalid snapshot",
    "repro.compression.registry:register_compressor": "MEMBER_ALLOWLIST: the registry's extension point",
    "repro.profiling.perfbench:append_run": "the --append writer, run by hand",
    "repro.obs.report:_archived_critical_path_summary": "the report CLI without --trace",
    "repro.obs:__dir__": "module introspection of the lazy exports",
    "repro.compression.base:Compressor.__repr__": "cosmetic",
    "repro.dist.network:Topology.__repr__": "cosmetic",
    "repro.dist.simulator:ClusterSimulator.__repr__": "cosmetic",
    "repro.nn.param:Parameter.__repr__": "cosmetic",
    "repro.serve.loadgen:RequestLoadGenerator.__repr__": "cosmetic",
    "repro.serve.replica:InferenceReplica.__repr__": "cosmetic",
    "repro.serve.shard_server:EmbeddingShardServer.__repr__": "cosmetic",
    "repro.dist.comm:_payload_nbytes": (
        "the mixed/nested-buffer sizer: the ledger golden's payload_shapes world pins it"
    ),
    "repro.dist.timeline:TimelineEvent.end": (
        "read by the tests and the frozen reference analyser; goes with TimelineEvent "
        "once bench_e2e counts len(timeline) (ROADMAP direction 8)"
    ),
}

#: defaulted parameter (``module:qualname(parameter)``) that no root varies -> why it stays
KEEP_PARAMETERS: dict[str, str] = {
    "repro.obs.report:main(argv)": "CLI entry point: tests drive it in-process with an argv list",
    "repro.obs.schema:main(argv)": "CLI entry point: tests drive it in-process with an argv list",
    "repro.profiling.perfbench:main(argv)": "CLI entry point: tests drive it in-process with an argv list",
    "repro.obs.scenario:run_day_in_the_life(n_iterations)": "the example's --iterations flag",
    "repro.obs.scenario:run_day_in_the_life(n_requests)": "the example's --requests flag",
    "repro.faults.scenario:run_day_in_the_life_under_faults(n_iterations)": "the example's --iterations flag",
    "repro.faults.scenario:run_day_in_the_life_under_faults(n_requests)": "the example's --requests flag",
    "repro.adaptive.decay:StepwiseDecay.__init__(n_steps)": "bench_e2e passes it (benchmark-owned code)",
    "repro.dist.network:Topology.hierarchical(intra_link)": "bench_e2e passes it (benchmark-owned code)",
    "repro.train.reference:evaluate_model(batch_size)": "bench_e2e passes it (benchmark-owned code)",
    "repro.serve.publisher:build_serving_tier(checksum)": (
        "bench_e2e passes True, its only legal value (benchmark-owned code); "
        "ROADMAP direction 0 deletes the keyword"
    ),
    "repro.train.hybrid:HybridParallelTrainer.__init__(sharding)": (
        "PARAMETER_ALLOWLIST: tests inject a table placement"
    ),
    "repro.compression.vector_lz:vector_lz_encode_stack(window)": (
        "PARAMETER_ALLOWLIST: the window laws need windows of 1-300"
    ),
    "repro.dist.comm:Communicator.compressed_all_to_all(category)": (
        "varies under compress_backward, ROADMAP direction 5's allowlisted switch"
    ),
    "repro.dist.comm:Communicator.compressed_all_to_all(overlap_compute_seconds)": (
        "varies under compress_backward, ROADMAP direction 5's allowlisted switch"
    ),
    "repro.train.hybrid:HybridParallelTrainer._compressed_exchange(overlap_compute)": (
        "varies under compress_backward, ROADMAP direction 5's allowlisted switch"
    ),
    "repro.dist.simulator:ClusterSimulator.compute(stream)": (
        "the ledger golden's extra-stream world pins a second stream"
    ),
}


# ----------------------------------------------------------------- the tracer
# This half runs inside every traced process (see ``_SITECUSTOMIZE``).

_MISSING = object()


def _same(value, default) -> bool:
    if value is default:
        return True
    plain = (numbers.Number, str, bytes, tuple)
    if isinstance(value, plain) and isinstance(default, plain):
        try:
            return bool(value == default)
        except Exception:  # an element that will not compare: not the default
            return False
    return False


def _resolve(frame):
    """The function object a frame runs, or ``None`` (nested, generated)."""
    code = frame.f_code
    if "<" in code.co_qualname:
        return None
    parts = code.co_qualname.split(".")
    obj = frame.f_globals.get(parts[0])
    for part in parts[1:]:
        if obj is None:
            return None
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    while obj is not None and getattr(obj, "__code__", None) is not code:
        obj = getattr(obj, "__wrapped__", None)
    return obj


def _defaults(function) -> list[tuple[str, object]]:
    """``(name, default)`` of every defaulted parameter of one function."""
    code = function.__code__
    positional = code.co_varnames[: code.co_argcount]
    defaults = function.__defaults__ or ()
    out = list(zip(positional[len(positional) - len(defaults) :], defaults))
    out += list((function.__kwdefaults__ or {}).items())
    return out


def install() -> None:
    """Install the probe when ``PROBE_SRC`` and ``PROBE_OUT`` are set."""
    src, out = os.environ.get("PROBE_SRC"), os.environ.get("PROBE_OUT")
    if not src or not out:
        return
    described: dict = {}
    called: set[tuple[str, int]] = set()
    parameters: dict[tuple[str, str], set[str]] = {}
    varied: set[tuple[str, str, str]] = set()

    def describe(frame):
        code = frame.f_code
        if not code.co_filename.startswith(src):
            return None
        rel = os.path.relpath(code.co_filename, src)
        function = _resolve(frame)
        checks = _defaults(function) if function is not None else []
        if checks:
            parameters[(rel, code.co_qualname)] = {name for name, _ in checks}
        return (rel, code.co_firstlineno), code.co_qualname, checks

    def tracer(frame, event, arg):
        info = described.get(frame.f_code, _MISSING)
        if info is _MISSING:
            info = described[frame.f_code] = describe(frame)
        if info is not None:
            key, qualname, checks = info
            called.add(key)
            if checks:
                local = frame.f_locals
                for name, default in checks:
                    if not _same(local.get(name, default), default):
                        varied.add((key[0], qualname, name))
        return None

    def dump() -> None:
        record = {
            "called": sorted(called),
            "parameters": [[f, q, sorted(p)] for (f, q), p in sorted(parameters.items())],
            "varied": sorted(varied),
        }
        Path(out, f"{os.getpid()}.json").write_text(json.dumps(record))

    atexit.register(dump)
    threading.settrace(tracer)
    sys.settrace(tracer)


_SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_repro_probe", {path!r})
_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_probe)
_probe.install()
"""


# ------------------------------------------------------------------ the roots


def roots(work: Path) -> list[list[str]]:
    py = sys.executable
    obs, chaos = work / "results" / "obs", work / "results" / "chaos"
    out = []
    for example in sorted((ROOT / "examples").glob("*.py")):
        extra = {"obs_day_in_the_life.py": obs, "faults_day_in_the_life.py": chaos}.get(example.name)
        out.append([py, str(example), *(["--out", str(extra)] if extra else [])])
    for workload in ("train_compressed", "train_baseline", "publish_serve", "exchange_engine"):
        for trace in ("0", "1"):
            out.append(
                [py, "bench_e2e/run.py", "--workload", workload, "--seed", "100",
                 "--seconds", "2", "--trace", trace, "--smoke"]
            )
    out += [
        [py, "-m", "repro.profiling.perfbench", "--smoke", "--check", "BENCH_compression.json"],
        [py, "-m", "repro.obs.schema", str(obs / "metrics.json")],
        [py, "-m", "repro.obs.schema", str(chaos / "metrics.json")],
        [py, "-m", "repro.obs.report", str(obs / "metrics.json"), "--trace", str(obs / "obs_trace.json")],
        [py, "-m", "pytest", "bench_e2e/tests", "-q", "-p", "no:cacheprovider"],
        [py, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
    ]
    return out


def run_roots(work: Path) -> list[str]:
    """Run every root traced; return one line per failed root."""
    probe_dir, records = work / "probe", work / "records"
    probe_dir.mkdir(parents=True, exist_ok=True)
    records.mkdir(parents=True, exist_ok=True)
    (probe_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(path=str(Path(__file__).resolve())))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT), str(probe_dir)]),
        PROBE_SRC=str(SRC / "repro") + os.sep,
        PROBE_OUT=str(records),
    )
    failed = []
    for command in roots(work):
        shown = " ".join(Path(c).name if c == sys.executable else c for c in command)
        print(f"# {shown}", file=sys.stderr, flush=True)
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            tail = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
            tail = tail or done.stderr.strip().splitlines()[-1:]
            failed.append(f"{shown}: exit {done.returncode}" + "".join(f"\n    {t}" for t in tail))
    return failed


# --------------------------------------------------------------- the analysis


def _module(rel: str) -> str:
    parts = Path(rel).with_suffix("").parts
    return ".".join(("repro", *(parts[:-1] if parts[-1] == "__init__" else parts)))


def _first_lines(node) -> set[int]:
    return {node.lineno, *(d.lineno for d in node.decorator_list)}


def uncalled(called: set[tuple[str, int]]) -> dict[str, int]:
    """``module:qualname`` -> line count of every outermost uncalled def."""
    out: dict[str, int] = {}

    def visit(node, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any((rel, line) in called for line in _first_lines(child)):
                    visit(child, rel, f"{prefix}{child.name}.<locals>.")
                else:
                    first = min(_first_lines(child))
                    out[f"{_module(rel)}:{prefix}{child.name}"] = child.end_lineno - first + 1
            else:
                visit(child, rel, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = str(path.relative_to(SRC / "repro"))
        visit(ast.parse(path.read_text()), rel, "")
    return out


def read_records(records: Path) -> tuple[set[tuple[str, int]], set[str], int]:
    """Merge every process's records: the code objects called, the
    ``module:qualname(parameter)`` no call varied, and how many defaulted
    parameters the called functions have."""
    called: set[tuple[str, int]] = set()
    parameters: set[str] = set()
    varied: set[str] = set()
    for path in records.glob("*.json"):
        record = json.loads(path.read_text())
        called |= {(rel, line) for rel, line in record["called"]}
        for rel, qualname, names in record["parameters"]:
            parameters |= {f"{_module(rel)}:{qualname}({n})" for n in names}
        varied |= {f"{_module(rel)}:{q}({n})" for rel, q, n in record["varied"]}
    return called, parameters - varied, len(parameters)


def report(title: str, findings: dict[str, str], keep: dict[str, str]) -> int:
    """Print one list; return how many findings have no keep reason."""
    print(f"{title}: {len(findings)}")
    unexplained = 0
    for name in sorted(findings):
        why = keep.get(name)
        unexplained += why is None
        print(f"  {name}{findings[name]}  -- {why or 'NO KEEP REASON'}")
    return unexplained


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="exit 1 on a finding with no keep reason")
    parser.add_argument("--work", type=Path, help="work directory (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        records = work / "records"
        if records.exists():
            for stale in records.glob("*.json"):
                stale.unlink()
        failed = run_roots(work)
        called, constant, n_parameters = read_records(records)
    functions = uncalled(called)
    lines = sum(functions.values())
    unexplained = report(
        f"outermost src/repro functions no root calls ({lines} lines)",
        {name: f" [{n} lines]" for name, n in functions.items()},
        KEEP_FUNCTIONS,
    )
    unexplained += report(
        f"defaulted parameters no root varies (of {n_parameters} of called functions)",
        {name: "" for name in constant},
        KEEP_PARAMETERS,
    )
    print(f"failed roots: {len(failed)}")
    for line in failed:
        print(f"  {line}")
    return 1 if args.check and unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
