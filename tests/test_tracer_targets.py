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

import pytest

from grdsa.cubic import CubicConfig, run_crzon
from grdsa.newton import NewtonConfig, iteration_cost, run_newton
from grdsa.oracle import LinearGaussianNoise, rastrigin

ROOT = Path(__file__).resolve().parents[1]

#: targets the package no longer defines; deleting them from the tracer
#: empties this list
STALE = [
    "grdsa.harness.run_first_order",
    "grdsa.newton.newton_step",
    "grdsa.newton.clamped_newton_direction",
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


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracer")


def test_only_the_stale_targets_are_skipped(monkeypatch):
    with _tracer(monkeypatch).Tracer() as t:
        pass
    assert t.skipped == STALE


@pytest.mark.parametrize("reuse", [True, False])
def test_traced_oracle_evals_equal_the_report(monkeypatch, reuse):
    # d = 50 and b = 200 make every probe several oracle calls
    cfg = CubicConfig(
        objective=rastrigin(50), k=1, n_steps=2, m=300, b=200, delta=0.1,
        noise=LinearGaussianNoise(0.001), seed=0, reuse=reuse,
    )
    with _tracer(monkeypatch).Tracer() as t:
        report = run_crzon(cfg)
    assert t.summary()["oracle.evaluate_many"].calls > 2 * cfg.n_steps
    assert t.counters["oracle.evals"] == report.evals_used == 2 * cfg.step_cost()


@pytest.mark.parametrize(
    "algorithm,reuse", [("newton", True), ("newton", False), ("gradient_only", True)],
)
def test_traced_newton_evals_equal_the_record(monkeypatch, algorithm, reuse):
    # the iteration binds the oracle's method per block: the tracer's wrapper
    # must still see every evaluation, across blocks
    cfg = NewtonConfig(
        objective=rastrigin(5), budget=2500, k=2, noise=LinearGaussianNoise(0.001),
        reuse=reuse, algorithm=algorithm, record_stride=2500,
    )
    with _tracer(monkeypatch).Tracer() as t:
        record = run_newton(cfg)
    cost = iteration_cost(cfg.k, reuse, algorithm == "newton")
    assert record.iterations * cost == record.evals_used > 2 * 64 * cost
    assert t.counters["oracle.evals"] == record.evals_used
