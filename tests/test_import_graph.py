"""Every module under ``src/repro`` is reachable from the command line.

The walk starts at ``repro.cli`` and ``repro.__main__`` and follows the
static import graph: each module's source is parsed, and every import
statement counts, including those inside functions.  Importing
``a.b.c`` also runs ``a`` and ``a.b``, and ``from a import b`` reaches
the module ``a.b`` when there is one.  The package uses absolute imports
only; a relative one stops the walk.  A module the walk never reaches is
code that only its own tests run.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator

SRC = Path(__file__).resolve().parents[1] / "src"
ROOTS = ("repro.cli", "repro.__main__")


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
