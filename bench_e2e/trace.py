"""Outside-in wall-clock tracer.

The benchmark never edits ``repro``; it *rebinds* a declared table of
callables to timing shims for the duration of a traced segment and puts
every original back afterwards.  A class method is rebound with
``setattr`` on the class that defines it; a module function is rebound in
every loaded ``repro.*`` module whose global ``is`` the original (they are
imported by name, so patching the defining module alone would miss the
callers).

Each shim appends one span ``(name, layer, start, end, parent_id, op_id,
phase)`` to an in-memory list.  Nothing is written while measuring.  A
layer's *self time* is its spans' duration minus the part covered by their
child spans, so the layers of one traced segment sum to the wall time of
its root spans — :meth:`Totals.check_conservation` verifies that against
the segment walls the harness measured independently.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = ["Target", "Tracer", "Totals", "ConservationError", "UNATTRIBUTED_LIMIT"]

#: a traced run fails when more than this share of the traced wall time lies
#: outside every span
UNATTRIBUTED_LIMIT = 0.05


class ConservationError(AssertionError):
    """Layer self times do not add up to the traced wall time."""


@dataclass(frozen=True)
class Target:
    """One callable to trace.

    ``owner`` is ``"pkg.module"`` for a module function or
    ``"pkg.module:Class"`` for a method defined on that class; ``count``
    maps ``(args, kwargs, result)`` to ``{counter: amount}`` taken at the
    same boundary as the span (kept cheap: it runs outside the span, on
    the caller's time).
    """

    owner: str
    attr: str
    layer: str
    count: Callable | None = None

    @property
    def name(self) -> str:
        scope = self.owner.split(":")[1] if ":" in self.owner else self.owner.rsplit(".", 1)[-1]
        return f"{scope}.{self.attr}"


class Tracer:
    """Install/uninstall timing shims over a table of :class:`Target`."""

    def __init__(self, targets: Iterable[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.spans: list[tuple] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = ""
        self.op_id = -1
        self.installed = False
        #: targets that did not resolve to a plain function at prepare time
        self.missing: list[Target] = []
        self._stack: list[int] = []
        #: (namespace object, attribute, original, shim) — every rebinding site
        self._sites: list[tuple[object, str, object, object]] = []
        self._prepared = False

    # ------------------------------------------------------------- binding

    def prepare(self) -> None:
        """Resolve every target and find its rebinding sites (once)."""
        if self._prepared:
            return
        self._prepared = True
        for target in self.targets:
            module_name, _, class_name = target.owner.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = vars(owner)[target.attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            if not isinstance(original, types.FunctionType):
                self.missing.append(target)  # static/class methods, builtins: not traceable
                continue
            shim = self._make_shim(original, target)
            if class_name:
                self._sites.append((owner, target.attr, original, shim))
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for global_name, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, global_name, original, shim))

    @property
    def wrapped_targets(self) -> int:
        return len(self.targets) - len(self.missing)

    def install(self) -> None:
        self.prepare()
        if self.installed:
            raise RuntimeError("tracer is already installed")
        for namespace, attr, _original, shim in self._sites:
            setattr(namespace, attr, shim)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for namespace, attr, original, _shim in self._sites:
            setattr(namespace, attr, original)
        self.installed = False

    def sites(self) -> list[tuple[object, str, object]]:
        """``(namespace, attribute, original)`` of every rebinding site."""
        self.prepare()
        return [(namespace, attr, original) for namespace, attr, original, _ in self._sites]

    def _make_shim(self, fn: types.FunctionType, target: Target):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = self.clock
        name, layer, count = target.name, target.layer, target.count

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children can name their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.op_id, self.phase)
            if count is not None:
                phase = self.phase
                for key, amount in count(args, kwargs, result).items():
                    counters[(phase, key)] += amount
            return result

        return shim

    # ------------------------------------------------------------- results

    def totals(self) -> "Totals":
        """Aggregate the recorded spans into per-layer / per-name self times."""
        spans = self.spans
        child_seconds = [0.0] * len(spans)
        for _name, _layer, start, end, parent, _op, _phase in spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        totals = Totals(counters=dict(self.counters))
        for index, (name, layer, start, end, parent, _op, phase) in enumerate(spans):
            duration = end - start
            own = duration - child_seconds[index]
            totals.layer_self[(phase, layer)] += own
            row = totals.by_name[(phase, name)]
            row[0] += 1
            row[1] += own
            row[2] += duration
            if parent < 0:
                totals.root_seconds[phase] += duration
        return totals


@dataclass
class Totals:
    """Span aggregates of one traced run, keyed by harness phase."""

    #: (phase, layer) -> self seconds
    layer_self: dict[tuple[str, str], float] = field(default_factory=lambda: defaultdict(float))
    #: (phase, span name) -> [calls, self seconds, inclusive seconds]
    by_name: dict[tuple[str, str], list] = field(default_factory=lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    #: phase -> summed duration of spans that have no parent
    root_seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counters: dict[tuple[str, str], float] = field(default_factory=dict)

    def self_seconds(self, phase: str, layers: Iterable[str]) -> float:
        """Self time of every layer equal to, or nested under, one of ``layers``."""
        layers = tuple(layers)
        return sum(
            seconds
            for (p, layer), seconds in self.layer_self.items()
            if p == phase and any(layer == top or layer.startswith(top + ".") for top in layers)
        )

    def _rows(self, phase: str, match: Callable[[str], bool]):
        return [row for (p, name), row in self.by_name.items() if p == phase and match(name)]

    def calls(self, phase: str, match: Callable[[str], bool]) -> int:
        return sum(row[0] for row in self._rows(phase, match))

    def name_self_seconds(self, phase: str, match: Callable[[str], bool]) -> float:
        return sum(row[1] for row in self._rows(phase, match))

    def inclusive_seconds(self, phase: str, match: Callable[[str], bool]) -> float:
        return sum(row[2] for row in self._rows(phase, match))

    def counter(self, phase: str, key: str) -> float:
        return self.counters.get((phase, key), 0.0)

    def check_conservation(self, traced_wall: dict[str, float]) -> float:
        """Verify that layer self times tile the traced wall time.

        ``traced_wall`` maps each phase to the wall seconds the harness
        measured around its traced segments.  Returns the unattributed
        share (time inside those segments but outside every span); raises
        :class:`ConservationError` when self times do not sum to the root
        spans or the share exceeds :data:`UNATTRIBUTED_LIMIT`.
        """
        total_wall = sum(traced_wall.values())
        if total_wall <= 0.0:
            raise ConservationError("no traced wall time was measured")
        layer_sum = sum(self.layer_self.values())
        root_sum = sum(self.root_seconds.values())
        if abs(layer_sum - root_sum) > 1e-6 * max(root_sum, 1e-9):
            raise ConservationError(
                f"layer self times sum to {layer_sum:.6f}s but root spans last {root_sum:.6f}s"
            )
        share = (total_wall - root_sum) / total_wall
        if not -1e-6 <= share <= UNATTRIBUTED_LIMIT:
            raise ConservationError(
                f"unattributed share {share:.4f} of {total_wall:.3f}s traced wall is outside "
                f"[0, {UNATTRIBUTED_LIMIT}]: a hot callable is not in the target table"
            )
        return max(share, 0.0)
