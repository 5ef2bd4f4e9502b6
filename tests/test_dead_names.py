"""Every function, class and constant a package module defines at module level
is read somewhere: in the package, a demo, the benchmark scripts or a test.

A read is a bare name, an attribute (``stencils.MAX_ORDER``) or an imported
name (``from grdsa.stencils import MAX_ORDER``), outside the name's own
definition, so a function that only calls itself is still dead.  Names are
matched by spelling alone, the way :mod:`test_imports` matches them.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "grdsa").glob("*.py"))
READERS = PACKAGE + sorted(
    path for folder in ("demos", "perfbench", "tests") for path in (ROOT / folder).glob("*.py")
)


def definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """``(name, statement)`` for each name a module-level ``def``, ``class``
    or plain assignment binds; dunder names are read by Python itself."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found if not name.startswith("__")]


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``."""
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            counts.update(alias.name for alias in node.names)
    return counts


def dead_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each module-level name of the ``package`` sources
    (module -> source) that no source of ``readers`` reads outside its own
    definition."""
    total = sum((reads(ast.parse(source)) for source in readers), Counter())
    dead = []
    for module, source in package.items():
        for name, node in definitions(ast.parse(source)):
            if total[name] - reads(node)[name] == 0:
                dead.append(f"{module}.{name}")
    return dead


def test_files_are_found():
    names = {f"{p.parent.name}/{p.name}" for p in READERS}
    assert {"grdsa/stencils.py", "demos/01_stencil_tables.py", "perfbench/run.py"} <= names
    assert "tests/test_dead_names.py" in names


@pytest.mark.parametrize("source,dead", [
    ("X = 1\ndef f(): return X\n", ["m.f"]),
    ("def f(n): return f(n - 1)\n", ["m.f"]),
    ("class C: pass\nc: C = C()\n", ["m.c"]),
    ("__all__ = []\nLIMIT: int = 3\nLIMIT\n", []),
    ("def f(): pass\nimport m\nm.f()\n", []),
])
def test_dead_names_are_found(source, dead):
    assert dead_names({"m": source}, [source]) == dead


def test_an_import_elsewhere_is_a_read():
    assert dead_names({"m": "def f(): pass\n"}, ["def f(): pass\n", "from m import f\n"]) == []


def test_every_module_level_name_is_read():
    package = {f"grdsa.{p.stem}": p.read_text() for p in PACKAGE}
    assert dead_names(package, [p.read_text() for p in READERS]) == []
