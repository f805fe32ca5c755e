"""Self-tests of the benchmark (``python -m pytest bench_e2e/tests -q``).

Not part of tier-1 collection (``testpaths`` is ``tests``); the repo's
pytest config already puts ``src`` and the repo root on ``sys.path``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def fake_module():
    """A throwaway ``repro.*`` module whose functions the tracer may rebind."""
    import repro  # noqa: F401  (the parent package must be loaded)

    module = types.ModuleType("repro._bench_e2e_fake")
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]
