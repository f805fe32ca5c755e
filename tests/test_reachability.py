"""Every ``src/repro`` module, and every public function, class and
method in it, has a reader outside ``tests/``.

**Modules.**  The roots are what a user or CI runs: ``examples/*.py``,
``benchmarks/*.py``, ``bench_e2e/**/*.py`` and every ``python -m repro...``
entry point in the CI workflow.  From them the guard walks the static
import graph (``ast``, nothing is imported).  ``from pkg import name``
resolves through ``pkg/__init__.py`` — its imports and its
``_LAZY_EXPORTS`` map — to the module that defines ``name``, so a package
re-export is not a reader.  A non-``__init__`` module under ``src/repro``
that no root reaches fails the test, by name.

**Members.**  A public top-level function or class of a ``src/repro``
module, or a public method of a top-level class (public: the name has no
leading underscore), is read when its name appears in ``src/repro``,
``examples/``, ``benchmarks/`` or ``bench_e2e/`` as a ``Name``, an
``Attribute``, a name imported by ``from ... import`` outside an
``__init__.py``, or a word in a string constant that is neither a
docstring nor part of ``__all__`` or ``_LAZY_EXPORTS``.  A member whose name appears in none of
these fails the test, by module and qualified name.

**Parameters.**  Every parameter with a default of a public function, a
public method of a top-level class or the ``__init__`` of a public class,
and every init field with a default of a public dataclass, is passed
somewhere outside the tests: a file in ``src/repro``, ``examples/``,
``benchmarks/`` or ``bench_e2e/`` (not ``tests/`` or ``bench_e2e/tests/``)
calls the callee's name (a) with the parameter's name as a keyword, (b)
with a positional argument at its index, or (c) with ``*`` or ``**``.  The callee's name is the function's or
method's own, and for an ``__init__`` or a field the class name (``cls``
inside the class).  An argument whose source text (``ast.unparse``) is the
default's own does not pass the parameter: ``n_steps=4`` leaves
``n_steps: int = 4`` a constant.  ``self``, ``cls``, names with a leading
underscore and ``init=False`` fields are skipped.  A parameter no caller
passes fails the test, by module, qualified name and parameter: its value
is a constant, not a setting.  A value only tests set is a constant too.

The scans read source, so what they cannot see is what only running
shows: a dead member that shares its name with a live one (a method
``slot_of`` beside a local variable ``slot_of``, say), a keyword passed to
one class's method that counts for every method of that name, and a value
forwarded under another name (``factory(**kwargs)``, ``cls(...)`` inside a
different class, a wrapper's own parameter) that counts as passed however
it is set.  ``tests/probe_roots.py`` runs every root under a call probe
and a value probe and lists the functions no root calls and the defaulted
parameters no root sets to anything but their default.  A parameter passed
only through a forwarder needs a :data:`PARAMETER_ALLOWLIST` entry naming
that reader.

An entry in :data:`ALLOWLIST` keeps an unreached module, one in
:data:`MEMBER_ALLOWLIST` an unread member and one in
:data:`PARAMETER_ALLOWLIST` an unpassed parameter; its value must say why
it stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: unreached module -> why it stays
ALLOWLIST: dict[str, str] = {}

#: unread member (``module:Qualified.name``) -> why it stays
MEMBER_ALLOWLIST: dict[str, str] = {
    "repro.compression.registry:register_compressor": (
        "the registry's extension point: tests register fake codecs through it"
    ),
}

#: unpassed parameter (``module:Qualified.name(parameter)``) -> why it stays
PARAMETER_ALLOWLIST: dict[str, str] = {
    "repro.obs.registry:Counter(help)": (
        "MetricsRegistry._get_or_create passes it on as cls(name, help, **kwargs),"
        " for every counter(name, help) call"
    ),
    "repro.obs.registry:Gauge(help)": (
        "MetricsRegistry._get_or_create passes it on as cls(name, help, **kwargs),"
        " for every gauge(name, help) call"
    ),
    "repro.obs.registry:Histogram(bounds)": (
        "MetricsRegistry._get_or_create passes it on as cls(name, help, **kwargs),"
        " for every histogram(name, help, bounds=...) call"
    ),
    "repro.obs.report:main(argv)": (
        "the report CLI's entry point: tests drive it in-process with an argv list"
    ),
    "repro.obs.schema:main(argv)": (
        "the schema validator's entry point: tests drive it in-process with an argv list"
    ),
    "repro.profiling.perfbench:main(argv)": (
        "the perf gate's entry point: tests drive it in-process with an argv list"
    ),
    "repro.train.pipeline:CompressionPipeline(compress_backward)": (
        "ROADMAP direction 5's switch for compressing the backward exchange;"
        " test_exchange_golden.py pins both exchanges' digests"
    ),
    "repro.train.hybrid:HybridParallelTrainer(sharding)": (
        "tests inject a table placement (round_robin_plan) to pin exchanges"
        " whose tables and owners they choose"
    ),
    "repro.faults.plan:LinkFault(extra_latency)": (
        "tests inject fault plans with latency spikes: the worst-case link-state"
        " law and the degraded-serving pull-time law"
    ),
    "repro.adaptive.decay:StepwiseDecay(n_steps)": (
        "bench_e2e's train world passes it at its default, and bench_e2e changes"
        " only with the benchmark; no other root sets it"
    ),
    "repro.serve.publisher:build_serving_tier(checksum)": (
        "bench_e2e's publish_serve world passes checksum=True, its only legal value"
        " (every frame carries a CRC32), and bench_e2e changes only with the"
        " benchmark; ROADMAP direction 0 deletes the keyword"
    ),
    "repro.dist.network:Topology.hierarchical(intra_link)": (
        "bench_e2e's exchange world passes it at its default, and bench_e2e changes"
        " only with the benchmark; no other root sets it"
    ),
    "repro.dist.simulator:ClusterSimulator.compute(stream)": (
        "tests/dist/test_ledger_golden.py's extra-stream world charges a second"
        " stream; every src caller charges the compute stream"
    ),
    "repro.compression.vector_lz:vector_lz_encode_stack(window)": (
        "the vector-LZ window laws encode integer codes at windows of 1-300 so"
        " small inputs reach the window edge (VectorLZCompressor(window=) is the"
        " same value for float batches)"
    ),
}

_WORD = re.compile(r"[A-Za-z_]\w*")


def _modules() -> dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _absolute(module: str | None, level: int, importer: str) -> str:
    """The absolute name of a (possibly relative) ``from`` import."""
    if level == 0:
        return module or ""
    package = importer if importer in MODULES and _is_package(importer) else importer.rpartition(".")[0]
    for _ in range(level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{module}" if module else package


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports(package: str) -> dict[str, tuple[str, str | None]]:
    """What ``package/__init__.py`` binds by import: name -> ``(module,
    attribute)``, the attribute ``None`` when the name is a module."""
    bound: dict[str, tuple[str, str | None]] = {}
    tree = _tree(MODULES[package])
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node.module, node.level, package)
            for alias in node.names:
                bound[alias.asname or alias.name] = (source, alias.name)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_LAZY_EXPORTS" for t in node.targets
        ):
            for name, module in ast.literal_eval(node.value).items():
                bound[name] = (module, name)
    return bound


def _resolve(module: str, name: str, seen: frozenset = frozenset()) -> str | None:
    """The module that defines ``name`` as imported ``from module``."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module not in MODULES:
        return None
    if not _is_package(module) or (module, name) in seen:
        return module
    source, attribute = _exports(module).get(name, (module, None))
    if source == module or attribute is None:
        return module
    return _resolve(source, attribute, seen | {(module, name)})


def _readers(path: Path, importer: str) -> set[str]:
    """The ``repro`` modules one file imports from, resolved to definers."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node.module, node.level, importer)
            if source.split(".")[0] != "repro":
                continue
            for alias in node.names:
                target = _resolve(source, alias.name)
                if target is not None:
                    out.add(target)
    return out


def _roots() -> tuple[list[Path], set[str]]:
    files = [
        *sorted((ROOT / "examples").glob("*.py")),
        *sorted((ROOT / "benchmarks").glob("*.py")),
        *sorted((ROOT / "bench_e2e").rglob("*.py")),
    ]
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    entry_points = set(re.findall(r"python -m (repro(?:\.\w+)+)", ci))
    return files, entry_points


def reached() -> set[str]:
    files, entry_points = _roots()
    frontier = set(entry_points)
    for path in files:
        frontier |= _readers(path, "")
    seen: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in seen or module not in MODULES:
            continue
        seen.add(module)
        if not _is_package(module):  # an ``__init__``'s imports are re-exports
            frontier |= _readers(MODULES[module], module)
    return seen


def members(module: str, tree: ast.Module | None = None) -> list[str]:
    """``module:Qualified.name`` of every public top-level function and
    class of one module, and every public method of its top-level classes."""
    out = []
    for node in (tree or _tree(MODULES[module])).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append(f"{module}:{node.name}")
        if isinstance(node, ast.ClassDef):
            out += [
                f"{module}:{node.name}.{method.name}"
                for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not method.name.startswith("_")
            ]
    return out


def _not_read(tree: ast.Module) -> set[int]:
    """``id`` of every docstring constant and every node under ``__all__``
    or ``_LAZY_EXPORTS``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skip.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id in ("__all__", "_LAZY_EXPORTS") for t in targets):
                skip.update(id(n) for n in ast.walk(node))
    return skip


def names_read(tree: ast.Module, is_init: bool = False) -> set[str]:
    """The names one file reads, by the member rule of the module docstring."""
    skip = _not_read(tree)
    out = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_init:
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(_WORD.findall(node.value))
    return out


def read_names() -> set[str]:
    files = [*MODULES.values(), *_roots()[0]]
    out = set()
    for path in files:
        out |= names_read(_tree(path), path.name == "__init__.py")
    return out


def unread_members() -> set[str]:
    read = read_names()
    return {
        member
        for module in MODULES
        for member in members(module)
        if re.split("[:.]", member)[-1] not in read
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_call(value: ast.expr | None) -> ast.Call | None:
    if isinstance(value, ast.Call):
        func = value.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "field":
            return value
    return None


def _init_fields(node: ast.ClassDef) -> list[tuple[str, bool, str | None]]:
    """``(name, has_default, default source)`` of one dataclass's own init
    fields, in order; the source is ``None`` for a ``default_factory``."""
    out = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        call = _field_call(item.value)
        keywords = {k.arg: k.value for k in call.keywords} if call else {}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        has_default = item.value is not None and (
            call is None or "default" in keywords or "default_factory" in keywords
        )
        default = item.value if call is None else keywords.get("default")
        out.append((item.target.id, has_default, None if default is None else ast.unparse(default)))
    return out


def _function_parameters(node: ast.FunctionDef | ast.AsyncFunctionDef, method: bool) -> list[tuple[str, int | None, str]]:
    """``(name, positional index, default source)`` of every defaulted
    parameter of one definition, the index ``None`` for a keyword-only one."""
    positional = [*node.args.posonlyargs, *node.args.args]
    if method and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first_default = len(positional) - len(node.args.defaults)
    out = [
        (arg.arg, i, ast.unparse(node.args.defaults[i - first_default]))
        for i, arg in enumerate(positional)
        if i >= first_default
    ]
    out += [
        (arg.arg, None, ast.unparse(default))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
        if default is not None
    ]
    return out


def defaulted_parameters(module: str, tree: ast.Module | None = None) -> dict[str, tuple[str, int | None, str | None]]:
    """``module:Qualified.name(parameter)`` -> ``(callee name, positional
    index, default source)`` of every defaulted parameter the parameter
    rule covers."""
    out: dict[str, tuple[str, int | None, str | None]] = {}

    def add(qualified: str, callee: str, parameters: list[tuple[str, int | None, str | None]]) -> None:
        for name, index, default in parameters:
            if not name.startswith("_"):
                out[f"{module}:{qualified}({name})"] = (callee, index, default)

    for node in (tree or _tree(MODULES[module])).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            add(node.name, node.name, _function_parameters(node, method=False))
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if _is_dataclass(node):
            fields = _init_fields(node)
            add(node.name, node.name, [(name, i, d) for i, (name, has, d) in enumerate(fields) if has])
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                add(node.name, node.name, _function_parameters(method, method=True))
            elif not method.name.startswith("_"):
                add(f"{node.name}.{method.name}", method.name, _function_parameters(method, method=True))
    return out


def passed_arguments(
    tree: ast.Module,
) -> tuple[set[tuple[str, str, str]], set[tuple[str, int, str]], set[str]]:
    """Of every call in one file: the ``(callee, keyword, argument source)``
    triples it names, the ``(callee, positional index, argument source)``
    triples it fills, and the callees it passes ``*`` or ``**`` to.  A call
    to ``cls`` counts as a call to its enclosing class."""
    keywords: set[tuple[str, str, str]] = set()
    positions: set[tuple[str, int, str]] = set()
    starred: set[str] = set()

    def visit(node: ast.AST, cls: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee == "cls" and cls is not None:
                callee = cls
            if callee is not None:
                keywords.update(
                    (callee, k.arg, ast.unparse(k.value)) for k in node.keywords if k.arg is not None
                )
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        starred.add(callee)
                        break
                    positions.add((callee, i, ast.unparse(arg)))
                if any(k.arg is None for k in node.keywords):
                    starred.add(callee)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return keywords, positions, starred


def _callers() -> list[Path]:
    """The files whose calls pass parameters: ``src/repro`` and the roots,
    never a file under ``tests/`` or ``bench_e2e/tests/``."""
    tests = (ROOT / "tests", ROOT / "bench_e2e" / "tests")
    return [
        path
        for path in [*MODULES.values(), *_roots()[0]]
        if not any(path.is_relative_to(t) for t in tests)
    ]


def unpassed_parameters(callers: list[Path] | None = None) -> set[str]:
    """Every covered parameter no caller passes a value other than its
    default's source text."""
    keywords: dict[tuple[str, str], set[str]] = {}
    positions: dict[tuple[str, int], set[str]] = {}
    starred: set[str] = set()
    for path in _callers() if callers is None else callers:
        k, p, s = passed_arguments(_tree(path))
        for callee, keyword, source in k:
            keywords.setdefault((callee, keyword), set()).add(source)
        for callee, index, source in p:
            positions.setdefault((callee, index), set()).add(source)
        starred |= s
    unpassed = set()
    for module in MODULES:
        for parameter, (callee, index, default) in defaulted_parameters(module).items():
            name = parameter[parameter.rindex("(") + 1 : -1]
            passed = keywords.get((callee, name), set()) | positions.get((callee, index), set())
            if callee in starred or passed - {default}:
                continue
            unpassed.add(parameter)
    return unpassed


def test_every_module_has_a_non_test_reader():
    unreached = {m for m in MODULES if not _is_package(m)} - reached() - set(ALLOWLIST)
    assert not unreached, f"no root reaches {', '.join(sorted(unreached))}"


def test_allowlist_entries_are_live_and_explained():
    for module, why in ALLOWLIST.items():
        assert module in MODULES and not _is_package(module), module
        assert why.strip(), f"{module}: say why it stays"
        assert module not in reached(), f"{module} is reached now; drop its entry"


def test_the_walk_sees_through_re_exports():
    """A name imported from a package resolves to its defining module, lazy
    exports included, so the package itself never counts as the reader."""
    assert _resolve("repro.compression", "HybridCompressor") == "repro.compression.hybrid"
    assert _resolve("repro.obs", "run_report") == "repro.obs.exporters"
    assert _resolve("repro.obs", "enable") == "repro.obs.runtime"
    assert _resolve("repro", "AdaptiveController") == "repro.adaptive.controller"
    assert _resolve("repro.compression", "baselines") == "repro.compression.baselines"


def test_every_public_member_has_a_non_test_reader():
    unread = unread_members() - set(MEMBER_ALLOWLIST)
    assert not unread, f"nothing outside tests/ reads {', '.join(sorted(unread))}"


def test_member_allowlist_entries_are_live_and_explained():
    unread = unread_members()
    for member, why in MEMBER_ALLOWLIST.items():
        module = member.partition(":")[0]
        assert module in MODULES and member in members(module), member
        assert why.strip(), f"{member}: say why it stays"
        assert member in unread, f"{member} is read now; drop its entry"


def test_the_member_scan_rule():
    """What counts as a read: a Name, an Attribute, a ``from`` import outside
    an ``__init__``, a word of a plain string; not a docstring, ``__all__``
    or a definition's own name."""
    tree = ast.parse(
        '''"""module docstring: in_docstring"""
from pkg import imported
__all__ = ["in_all"]
_LAZY_EXPORTS = {"in_lazy_exports": "pkg.lazy"}
def defined():
    """in_function_docstring"""
    return called(obj.attribute, "word in_string")
'''
    )
    assert names_read(tree) == {"imported", "called", "obj", "attribute", "word", "in_string"}
    assert "imported" not in names_read(tree, is_init=True)
    defined = ast.parse(
        "class Public:\n    def method(self): ...\n    def _private(self): ...\n"
        "class _Hidden:\n    def shown(self): ...\n"
        "def _helper():\n    def nested(): ...\n"
    )
    assert members("m", defined) == ["m:Public", "m:Public.method", "m:_Hidden.shown"]


def test_every_defaulted_parameter_is_passed_somewhere():
    unpassed = unpassed_parameters() - set(PARAMETER_ALLOWLIST)
    assert not unpassed, f"no caller passes {', '.join(sorted(unpassed))}"


def test_parameter_allowlist_entries_are_live_and_explained():
    unpassed = unpassed_parameters()
    for parameter, why in PARAMETER_ALLOWLIST.items():
        assert why.strip(), f"{parameter}: say why it stays"
        assert parameter in unpassed, f"{parameter} is passed now; drop its entry"


def test_the_parameter_scan_rule():
    """What a scan covers: defaulted parameters of public functions, public
    methods and public classes' ``__init__``, and defaulted init fields of
    public dataclasses; what counts as passing one: a keyword, a positional
    argument at its index, or ``*`` / ``**``, each in a call of the
    callee's own name outside ``tests/``, with source text other than the
    default's."""
    tree = ast.parse(
        "def public(a, b=1, *, c=2, _d=3): ...\n"
        "def _private(e=4): ...\n"
        "class Thing:\n"
        "    def __init__(self, f=5): ...\n"
        "    def method(self, g=6): ...\n"
        "    def _hidden(self, h=7): ...\n"
        "@dataclass\n"
        "class Record:\n"
        "    i: int\n"
        "    j: int = 8\n"
        "    k: list = field(default_factory=list)\n"
        "    l: int = field(init=False, default=0)\n"
        "    m: ClassVar[int] = 9\n"
    )
    assert defaulted_parameters("m", tree) == {
        "m:public(b)": ("public", 1, "1"),
        "m:public(c)": ("public", None, "2"),
        "m:Thing(f)": ("Thing", 0, "5"),
        "m:Thing.method(g)": ("method", 0, "6"),
        "m:Record(j)": ("Record", 1, "8"),
        "m:Record(k)": ("Record", 2, None),
    }
    assert defaulted_parameters("m", ast.parse("def f(a=CONST, *, b=obj.attr): ...")) == {
        "m:f(a)": ("f", 0, "CONST"),
        "m:f(b)": ("f", None, "obj.attr"),
    }
    calls = ast.parse(
        "public(0, c=1)\n"
        "obj.method(*args)\n"
        "class Record:\n"
        "    def make(cls): return cls(0, 1)\n"
    )
    keywords, positions, starred = passed_arguments(calls)
    assert keywords == {("public", "c", "1")}
    assert positions == {("public", 0, "0"), ("Record", 0, "0"), ("Record", 1, "1")}
    assert starred == {"method"}
    # an argument spelled as the default is no setting: bench_e2e's
    # StepwiseDecay(..., n_steps=4) leaves n_steps: int = 4 unpassed
    bench = ROOT / "bench_e2e" / "workloads" / "train.py"
    assert bench in _callers()
    assert ("StepwiseDecay", "n_steps", "4") in passed_arguments(_tree(bench))[0]
    assert defaulted_parameters("repro.adaptive.decay")["repro.adaptive.decay:StepwiseDecay(n_steps)"][2] == "4"
    assert "repro.adaptive.decay:StepwiseDecay(n_steps)" in unpassed_parameters()
    # a keyword passed only from a tests/ file leaves the parameter unpassed
    test_dirs = (ROOT / "tests", ROOT / "bench_e2e" / "tests")
    assert not [p for p in _callers() if any(p.is_relative_to(d) for d in test_dirs)]
    test_file = ROOT / "tests" / "faults" / "test_plan_injector.py"
    assert {k[:2] for k in passed_arguments(_tree(test_file))[0]} >= {("LinkFault", "extra_latency")}
    assert "repro.faults.plan:LinkFault(extra_latency)" in unpassed_parameters()
    assert "repro.faults.plan:LinkFault(extra_latency)" not in unpassed_parameters([*_callers(), test_file])


def test_a_keyword_counts_only_for_its_own_callee():
    """A keyword passed to another callee does not pass the parameter: the
    ``window=`` of a ``Codec(...)`` call leaves ``Pipeline(window)`` unpassed,
    and ``cls(...)`` is a call of the class it is written in."""
    keywords, _, _ = passed_arguments(
        ast.parse(
            "Codec(window=8)\n"
            "obj.run(window=8)\n"
            "class Registry:\n"
            "    def make(self, cls): return cls(help='h')\n"
        )
    )
    assert keywords == {("Codec", "window", "8"), ("run", "window", "8"), ("Registry", "help", "'h'")}
    assert not {k for k in keywords if k[0] == "Pipeline"}
