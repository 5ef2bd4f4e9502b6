"""Every name a module imports is used in that module.

Covers the package's modules (its ``__init__``, which imports to re-export,
aside) and the demo scripts.  A name counts as used when the file reads it
anywhere: as a bare name, or as the root of an attribute chain such as
``np.linalg.eigh``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [p for p in (ROOT / "src" / "grdsa").glob("*.py") if p.stem != "__init__"]
    + list((ROOT / "demos").glob("*.py")),
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``; ``as`` binds the alias
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_files_are_found():
    names = {p.name for p in FILES}
    assert {"estimators.py", "harness.py", "03_bias_order_sweep.py"} <= names
    assert "__init__.py" not in names


@pytest.mark.parametrize("source,unused", [
    ("import numpy as np\nnp.zeros(2)\n", []),
    ("import numpy as np\n", ["np"]),
    ("import os.path\nos.sep\n", []),
    ("from __future__ import annotations\nfrom a import b, c\nc()\n", ["b"]),
    ("from a import b\ndef f(x: b) -> None: ...\n", []),
])
def test_unused_imports_are_found(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
