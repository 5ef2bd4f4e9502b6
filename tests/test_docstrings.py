"""Cross-references in the package's docstrings name objects that exist.

A ``:func:`` / ``:class:`` / ``:meth:`` / ``:data:`` / ``:mod:`` reference
resolves from the namespace of the module that holds it, or as an absolute
``grdsa.`` path, so a rename cannot leave a docstring citing a stale name.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "grdsa"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__main__")
REFERENCE = re.compile(r":(func|class|meth|data|mod):`~?([\w.]+?)(?:\(\))?`")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def references(module: str) -> list[tuple[str, str]]:
    """``(role, target)`` of every reference in the module's docstrings."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    docstrings = [ast.get_docstring(n) for n in ast.walk(tree) if isinstance(n, DOCUMENTED)]
    return [ref for doc in docstrings if doc for ref in REFERENCE.findall(doc)]


def resolve(namespace: object, target: str) -> object:
    """The object at dotted ``target``: from ``namespace``, else by import."""
    head, *rest = target.split(".")
    if hasattr(namespace, head):
        obj = getattr(namespace, head)
    else:
        # an absolute path: import its longest module prefix
        for cut in range(len(rest), -1, -1):
            try:
                obj = importlib.import_module(".".join([head, *rest[:cut]]))
            except ImportError:
                continue
            rest = rest[cut:]
            break
        else:
            raise AttributeError(f"{target!r} is neither a name in scope nor importable")
    for name in rest:
        obj = getattr(obj, name)
    return obj


def test_references_are_found():
    assert len([ref for m in MODULES for ref in references(m)]) >= 30


@pytest.mark.parametrize("module", MODULES)
def test_references_resolve(module):
    namespace = importlib.import_module(f"grdsa.{module}")
    unresolved = []
    for role, target in references(module):
        try:
            resolve(namespace, target)
        except AttributeError:
            unresolved.append(f":{role}:`{target}`")
    assert unresolved == [], f"grdsa.{module} cites names it cannot reach"
