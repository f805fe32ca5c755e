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
docstring nor part of ``__all__``.  A member whose name appears in none of
these fails the test, by module and qualified name.

Two limits of the member scan:

* matching is by name, so a dead member that shares its name with a live
  one (a method ``slot_of`` beside a local variable ``slot_of``, say) stays
  invisible;
* an argument that no caller passes (a ``rows=`` keyword every call leaves
  at its default, say) is beyond an AST scan of names.

An entry in :data:`ALLOWLIST` keeps an unreached module, and one in
:data:`MEMBER_ALLOWLIST` an unread member; its value must say why it stays.
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
    "repro.compression.metrics:evaluate_codec": (
        "the capacity planner (ROADMAP direction 2(b)) measures its codec-throughput axis with it"
    ),
    "repro.obs.critpath:TimelineDag.reschedule": (
        "the capacity planner (ROADMAP direction 2(b)) prices its what-if points with it"
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
    """``id`` of every docstring constant and every node under ``__all__``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skip.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
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
