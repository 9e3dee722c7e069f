"""Every module under ``src/repro`` is reachable from the command line,
every name a module imports is read, and no module imports a private
name from another; importing the engine, or caching on a local
directory, leaves its distributed layer unloaded.

The walk starts at ``repro.cli`` and ``repro.__main__`` and follows the
static import graph: each module's source is parsed, and every import
statement counts, including those inside functions.  Importing
``a.b.c`` also runs ``a`` and ``a.b``, and ``from a import b`` reaches
the module ``a.b`` when there is one.  The package uses absolute imports
only; a relative one stops the walk.  A module the walk never reaches is
code that only its own tests run.

An import binds names; a module that never reads one (string annotations
count as reads) imports it for nothing.  A package's ``__init__.py``
imports to re-export, and so does a module whose name another file in
the repository imports from it; both are exempt.

A name with a leading underscore is its module's own business: a module
that imports one from another ties itself to that module's internals.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOTS = ("repro.cli", "repro.__main__")
#: the repository's Python trees, whose imports may re-export a name
TREES = ("src", "tests", "benchmarks", "perfbench", "examples")


def package_modules() -> Dict[str, Path]:
    """Dotted name -> source file of every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path) -> Iterator[str]:
    """Every dotted name an import statement in ``path`` refers to."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def reachable(modules: Dict[str, Path]) -> set:
    """The modules the import walk from :data:`ROOTS` reaches."""
    seen: set = set()
    queue = list(ROOTS)
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        seen.add(name)
        for target in imported_names(modules[name]):
            parts = target.split(".")
            queue.extend(
                prefix for prefix in (".".join(parts[:i])
                                      for i in range(1, len(parts) + 1))
                if prefix in modules
            )
    return seen


def test_every_module_is_reachable_from_the_cli():
    modules = package_modules()
    unreached = sorted(set(modules) - reachable(modules))
    assert not unreached, (
        f"no import path from {' or '.join(ROOTS)} reaches: "
        f"{', '.join(unreached)}"
    )


def bound_names(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """The line and name of every binding an import statement makes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def read_names(tree: ast.AST) -> Set[str]:
    """Every name ``tree`` reads, inside string annotations too."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def imported_from() -> Set[Tuple[str, str]]:
    """``(module, name)`` of every ``from module import name`` in the
    repository's Python trees."""
    pairs = set()
    for tree in TREES:
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module:
                    pairs.update((node.module, alias.name)
                                 for alias in node.names)
    return pairs


def test_every_imported_name_is_read():
    exported = imported_from()
    unread = []
    for module, path in package_modules().items():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = read_names(tree)
        unread.extend(
            f"{path.relative_to(SRC)}:{line}: {name}"
            for line, name in bound_names(tree)
            if name not in reads and (module, name) not in exported
        )
    assert not unread, "imported but never read: " + ", ".join(unread)


def test_no_module_imports_a_private_name():
    private = []
    for path in package_modules().values():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and \
                    node.module.split(".")[0] == "repro":
                private.extend(
                    f"{path.relative_to(SRC)}:{node.lineno}: "
                    f"{node.module}.{alias.name}"
                    for alias in node.names if alias.name.startswith("_")
                )
    assert not private, "private names imported: " + ", ".join(private)


def _distributed_modules_after(probe: str, *argv: str) -> str:
    """What of the distributed layer a fresh interpreter running
    ``probe`` has loaded, as printed by a sorted list."""
    probe += ("\nprint(sorted(set(sys.modules) & "
              "{'repro.engine.distributed', 'http.client'}))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    ).stdout


def test_importing_the_engine_leaves_the_distributed_layer_unloaded():
    # Only --dispatch, `repro serve` and `repro worker` speak HTTP; a
    # process that just prices specs must not load that layer.
    assert _distributed_modules_after("import sys, repro.engine") == "[]\n"


def test_a_local_cache_leaves_the_distributed_layer_unloaded(tmp_path):
    # The on-disk store is local: writing a record and reading it back
    # from a second engine on the same directory loads no HTTP client.
    probe = (
        "import sys\n"
        "from repro.engine import Engine\n"
        "key, payload = {'kind': 'probe'}, {'value': 1}\n"
        "Engine(cache_dir=sys.argv[1]).cache.put(key, payload)\n"
        "assert Engine(cache_dir=sys.argv[1]).cache.get(key) == payload"
    )
    assert _distributed_modules_after(probe, str(tmp_path)) == "[]\n"
