"""The benchmark's tracer still finds the functions it wraps.

``perfbench/tracer.py`` patches grdsa's functions by the names their
callers look up, and skips a name that no longer exists, so a rename or a
removal in the package would blind a per-layer benchmark row without any
test failing.  This installs the tracer, so every target is resolved by the
tracer's own code, and pins the names it skips.
"""

from __future__ import annotations

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: targets the package no longer defines; deleting them from the tracer
#: empties this list
STALE = [
    "grdsa.harness.run_first_order",
    "grdsa.newton.estimate_hessian",
    "grdsa.newton.estimate_gradient",
    "grdsa.cubic.batch_hessian",
    "grdsa.cubic.batch_gradient",
    "grdsa.estimators.grad_stencil",
    "grdsa.estimators.hess_stencil",
    "grdsa.cubic.grad_stencil",
    "grdsa.cubic.hess_stencil",
    "grdsa.estimators.scaling_matrix",
    "grdsa.estimators.scaling_matrices",
    "grdsa.cubic.scaling_matrices",
]


def test_only_the_stale_targets_are_skipped(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    with tracer.Tracer() as t:
        pass
    assert t.skipped == STALE
