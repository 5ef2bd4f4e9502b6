"""The package measures only through ``BudgetedOracle.evaluate_many``.

The benchmark's tracer counts evaluations where ``evaluate_many`` returns,
so a second measuring method would go uncounted; a probe's ray form is an
argument of ``evaluate_many`` for that reason.  This reads every module of
``src/grdsa`` and fails on a use of any other ``BudgetedOracle`` method,
``check_affords`` aside, outside the class itself.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from grdsa.oracle import BudgetedOracle

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "grdsa").glob("*.py"))
ALLOWED = {"evaluate_many", "check_affords"}


def oracle_methods(cls=BudgetedOracle) -> set[str]:
    """The methods ``cls`` defines, dunders aside (a property is not a method)."""
    return {
        name for name, value in vars(cls).items()
        if inspect.isfunction(value) and not name.startswith("__")
    }


def other_method_uses(source: str, methods: set[str]) -> list[str]:
    """``line: name`` for each attribute in ``methods`` that ``source`` reads
    outside a class named ``BudgetedOracle``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "BudgetedOracle"
        for node in ast.walk(cls)
    }
    return [
        f"{node.lineno}: {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in methods and id(node) not in inside
    ]


def test_the_oracle_defines_the_allowed_methods():
    assert ALLOWED <= oracle_methods()


@pytest.mark.parametrize("source,found", [
    ("oracle.evaluate_rays(p)\n", ["1: evaluate_rays"]),
    ("f = oracle.evaluate_rays\nf(p)\n", ["1: evaluate_rays"]),
    ("oracle.evaluate_many(p, center=c)\n", []),
    ("class BudgetedOracle:\n    def f(self):\n        self.evaluate_rays()\n", []),
])
def test_other_uses_are_found(source, found):
    assert other_method_uses(source, oracle_methods() - ALLOWED | {"evaluate_rays"}) == found


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_only_the_counted_entry_points_are_used(path):
    assert other_method_uses(path.read_text(), oracle_methods() - ALLOWED) == []
