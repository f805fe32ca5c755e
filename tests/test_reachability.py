"""Every ``src/repro`` module has a reader outside ``tests/``.

The roots are what a user or CI runs: ``examples/*.py``,
``benchmarks/*.py``, ``bench_e2e/**/*.py`` and every ``python -m repro...``
entry point in the CI workflow.  From them the guard walks the static
import graph (``ast``, nothing is imported).  ``from pkg import name``
resolves through ``pkg/__init__.py`` — its imports and its
``_LAZY_EXPORTS`` map — to the module that defines ``name``, so a package
re-export is not a reader.  A non-``__init__`` module under ``src/repro``
that no root reaches fails the test, by name.

An entry in :data:`ALLOWLIST` keeps an unreached module; its value must
say why that module stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: unreached module -> why it stays
ALLOWLIST: dict[str, str] = {}


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
