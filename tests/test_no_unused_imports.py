"""Every name a module imports is read by that module.

An import that nothing reads costs a line and, worse, suggests a dependency
that does not exist.  One AST pass over each module of ``src/repro``
(package ``__init__.py`` files re-export, so they are skipped) collects the
names bound by its module-level imports, those under ``if TYPE_CHECKING:``
included; ``from __future__`` imports are not names.  A name counts as read
if it appears as an ``ast.Name`` anywhere in the module (the root of an
attribute chain is one) or as a word inside a string constant (a quoted
annotation).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _module_level_imports(tree: ast.Module):
    """``(name, line)`` for each name bound by a module-level import."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.If):  # `if TYPE_CHECKING:` among them
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _read_names(tree: ast.Module) -> set[str]:
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(WORD.findall(node.value))
    return read


def unused_imports() -> list[str]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree)
        rel = path.relative_to(ROOT)
        found.extend(
            f"{rel}:{line} {name}"
            for name, line in _module_level_imports(tree)
            if name not in read
        )
    return found


def test_no_module_imports_a_name_it_never_reads():
    unused = unused_imports()
    assert not unused, (
        f"{len(unused)} imported name(s) that their module never reads:\n"
        + "\n".join(unused)
    )


def test_the_scan_sees_imports_and_reads():
    # A scan that found no imports would pass the test above vacuously.
    tree = ast.parse(
        "from typing import TYPE_CHECKING, List\n"
        "import os.path\n"
        "if TYPE_CHECKING:\n"
        "    from x import Seen, Unseen\n"
        "def f(a: 'List[Seen]') -> None:\n"
        "    os.path.join(a)\n"
    )
    names = dict(_module_level_imports(tree))
    assert set(names) == {"TYPE_CHECKING", "List", "os", "Seen", "Unseen"}
    assert set(names) - _read_names(tree) == {"Unseen"}
