"""Tracer arithmetic, binding hygiene, and the conservation check."""

from __future__ import annotations

import sys
import time
import types

import pytest

from bench_e2e.harness import Part, RunContext
from bench_e2e.targets import build_targets
from bench_e2e.trace import ConservationError, Target, Tracer


class FakeClock:
    """Advances only when code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def _define(module: types.ModuleType, source: str, **namespace) -> None:
    module.__dict__.update(namespace)
    exec(source, module.__dict__)


def test_self_time_of_nested_calls(fake_module):
    clock = FakeClock()
    _define(
        fake_module,
        "def leaf():\n    spend(2.0)\n"
        "def middle():\n    spend(1.0)\n    leaf()\n    leaf()\n"
        "def root():\n    spend(0.5)\n    middle()\n    spend(0.25)\n",
        spend=clock.spend,
    )
    name = fake_module.__name__
    tracer = Tracer(
        [Target(name, "root", "a"), Target(name, "middle", "b"), Target(name, "leaf", "c")],
        clock=clock,
    )
    tracer.phase = "p"
    tracer.install()
    fake_module.root()
    tracer.uninstall()
    totals = tracer.totals()
    assert totals.layer_self[("p", "a")] == pytest.approx(0.75)
    assert totals.layer_self[("p", "b")] == pytest.approx(1.0)
    assert totals.layer_self[("p", "c")] == pytest.approx(4.0)
    assert totals.root_seconds["p"] == pytest.approx(5.75)
    assert totals.calls("p", lambda n: n.endswith(".leaf")) == 2
    assert totals.inclusive_seconds("p", lambda n: n.endswith(".middle")) == pytest.approx(5.0)
    # parents are recorded by span index, children after their parent
    parents = [span[4] for span in tracer.spans]
    assert parents == [-1, 0, 1, 1]
    assert totals.check_conservation({"p": 5.75}) == pytest.approx(0.0)


def test_self_time_of_recursive_calls(fake_module):
    clock = FakeClock()
    _define(
        fake_module,
        "def down(n):\n    spend(1.0)\n    if n:\n        down(n - 1)\n",
        spend=clock.spend,
    )
    tracer = Tracer([Target(fake_module.__name__, "down", "a")], clock=clock)
    tracer.install()
    fake_module.down(3)
    tracer.uninstall()
    totals = tracer.totals()
    assert totals.layer_self[("", "a")] == pytest.approx(4.0)  # not 4 + 3 + 2 + 1
    assert totals.root_seconds[""] == pytest.approx(4.0)


def test_raising_call_closes_its_span(fake_module):
    clock = FakeClock()
    _define(
        fake_module,
        "def boom():\n    spend(1.0)\n    raise KeyError('x')\n"
        "def outer():\n    spend(0.5)\n    try:\n        boom()\n    except KeyError:\n        spend(0.25)\n",
        spend=clock.spend,
    )
    name = fake_module.__name__
    tracer = Tracer([Target(name, "outer", "a"), Target(name, "boom", "b")], clock=clock)
    tracer.install()
    fake_module.outer()
    with pytest.raises(KeyError):
        fake_module.boom()
    tracer.uninstall()
    totals = tracer.totals()
    assert totals.layer_self[("", "a")] == pytest.approx(0.75)
    assert totals.layer_self[("", "b")] == pytest.approx(2.0)
    assert tracer._stack == []
    assert all(span is not None for span in tracer.spans)


def test_counts_are_taken_at_the_span_boundary(fake_module):
    _define(fake_module, "def encode(data):\n    return data * 2\n")
    target = Target(
        fake_module.__name__, "encode", "k", lambda args, kwargs, result: {"out": len(result)}
    )
    tracer = Tracer([target])
    tracer.phase = "p"
    tracer.install()
    fake_module.encode(b"abc")
    fake_module.encode(b"abcd")
    tracer.uninstall()
    assert tracer.totals().counter("p", "out") == 14


def test_module_functions_are_rebound_where_imported_by_name(fake_module):
    _define(fake_module, "def helper():\n    return 1\n")
    importer = types.ModuleType("repro._bench_e2e_fake_importer")
    importer.helper = fake_module.helper
    sys.modules[importer.__name__] = importer
    try:
        original = fake_module.helper
        tracer = Tracer([Target(fake_module.__name__, "helper", "a")])
        tracer.install()
        assert importer.helper is not original and fake_module.helper is importer.helper
        assert importer.helper() == 1
        tracer.uninstall()
        assert importer.helper is original and fake_module.helper is original
        assert len(tracer.spans) == 1
    finally:
        del sys.modules[importer.__name__]


def test_every_declared_target_resolves_and_uninstall_restores_identity():
    tracer = Tracer(build_targets())
    before = [(ns, attr, vars(ns)[attr]) for ns, attr, _original in tracer.sites()]
    assert tracer.missing == [], [t.name for t in tracer.missing]
    assert all(now is original for (_, _, now), (_, _, original) in zip(before, tracer.sites()))
    tracer.install()
    assert all(vars(ns)[attr] is not original for ns, attr, original in tracer.sites())
    tracer.uninstall()
    for namespace, attr, original in tracer.sites():
        assert vars(namespace)[attr] is original, f"{namespace!r}.{attr} was not restored"


def test_unresolvable_targets_are_reported_not_fatal(fake_module):
    _define(fake_module, "def present():\n    return 1\nbuiltin = len\n")
    name = fake_module.__name__
    tracer = Tracer(
        [Target(name, "present", "a"), Target(name, "absent", "a"), Target(name, "builtin", "a")]
    )
    tracer.install()
    tracer.uninstall()
    assert [t.attr for t in tracer.missing] == ["absent", "builtin"]
    assert tracer.wrapped_targets == 1


def test_conservation_trips_on_an_unwrapped_hot_function(fake_module):
    _define(
        fake_module,
        "def traced():\n    sleep(0.002)\n" "def hot_but_unwrapped():\n    sleep(0.02)\n",
        sleep=time.sleep,
    )
    tracer = Tracer([Target(fake_module.__name__, "traced", "a")])
    ctx = RunContext(seed=0, seconds=0.0, tracer=tracer)

    def segment() -> None:
        fake_module.traced()
        fake_module.hot_but_unwrapped()

    ctx.run_segments([Part("p", segment, 1)], min_segments=4, seconds=0.0)
    assert len(ctx.phases["p"].traced_walls) == 2 and len(ctx.phases["p"].walls) == 2
    with pytest.raises(ConservationError, match="unattributed share"):
        tracer.totals().check_conservation(ctx.traced_wall())

    # ... and holds once the hot function is in the table.
    tracer = Tracer(
        [
            Target(fake_module.__name__, "traced", "a"),
            Target(fake_module.__name__, "hot_but_unwrapped", "b"),
        ]
    )
    ctx = RunContext(seed=0, seconds=0.0, tracer=tracer)
    ctx.run_segments([Part("p", segment, 1)], min_segments=4, seconds=0.0)
    assert tracer.totals().check_conservation(ctx.traced_wall()) <= 0.05
    assert not tracer.installed
