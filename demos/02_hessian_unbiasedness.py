"""Show that the scaled Hessian estimator is unbiased, entry by entry.

A single draw evaluates the objective at k1 + k2 + 1 points along one
random direction, forms a second directional derivative, and multiplies
it by a direction-dependent scaling matrix.  Averaging many draws of a
noiseless quadratic recovers its true Hessian; replacing the corrected
scaling with the plain outer-product form lands on twice the truth.
"""

from __future__ import annotations

import numpy as np

from grdsa.estimators import batch_hessian
from grdsa.oracle import BudgetedOracle, quadratic
from grdsa.perturb import PerturbationSpec, gaussian, uniform


def show(label: str, value: np.ndarray, target: np.ndarray, se: np.ndarray) -> None:
    dev = np.abs(value - target) / se
    print(f"{label}:")
    for row, drow in zip(value, dev):
        cells = "  ".join(f"{v:8.4f}" for v in row)
        devs = "  ".join(f"{d:4.1f}" for d in drow)
        print(f"  [{cells}]   ({devs} SE from target)")


def main() -> None:
    a = np.array([[2.0, 0.7], [0.7, 4.0]])
    obj = quadratic(a)
    theta = np.array([0.5, -0.5])
    n = 200_000

    for spec, name in ((gaussian(), "gaussian"), (uniform(np.sqrt(3.0)), "uniform")):
        est, samples = batch_hessian(
            BudgetedOracle(obj), theta, 1e-3, 1, n, spec,
            np.random.default_rng(7), return_samples=True,
        )
        se = samples.std(axis=0, ddof=1) / np.sqrt(n)
        print(f"\n{name} directions, {n} draws, corrected scaling")
        show("  mean estimate", est.value, a, se)

    est, samples = batch_hessian(
        BudgetedOracle(obj), theta, 1e-3, 1, n,
        PerturbationSpec("gaussian", paper_literal_scaling=True),
        np.random.default_rng(7), return_samples=True,
    )
    se = samples.std(axis=0, ddof=1) / np.sqrt(n)
    print("\ngaussian directions, plain outer-product scaling (converges to 2H)")
    show("  mean estimate", est.value, 2.0 * a, se)

    print("\ntrue Hessian:")
    for row in a:
        print("  [" + "  ".join(f"{v:8.4f}" for v in row) + "]")


if __name__ == "__main__":
    main()
