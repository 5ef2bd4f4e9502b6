"""Show that the scaled Hessian estimator is unbiased, entry by entry.

A single draw evaluates the objective at k1 + k2 + 1 points along one
random direction, forms a second directional derivative, and multiplies
it by a direction-dependent scaling matrix.  Averaging many draws of a
noiseless quadratic recovers its true Hessian; replacing the corrected
scaling with the plain outer-product form lands on twice the truth.
"""

from __future__ import annotations

import numpy as np

from grdsa.estimators import batch_hessian, hessian_samples, probe
from grdsa.oracle import BudgetedOracle, quadratic
from grdsa.perturb import PerturbationSpec, gaussian, scaling_matrices, uniform

DELTA = 1e-3


def show(label: str, value: np.ndarray, target: np.ndarray, se: np.ndarray) -> None:
    dev = np.abs(value - target) / se
    print(f"{label}:")
    for row, drow in zip(value, dev):
        cells = "  ".join(f"{v:8.4f}" for v in row)
        devs = "  ".join(f"{d:4.1f}" for d in drow)
        print(f"  [{cells}]   ({devs} SE from target)")


def estimate(obj, theta: np.ndarray, spec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean of ``n`` one-draw estimates and its standard error, entry by entry."""
    directions = spec.sample(np.random.default_rng(7), (n, theta.size))
    mean = batch_hessian(BudgetedOracle(obj), theta, directions, DELTA, 1, 1, spec)
    values = probe(BudgetedOracle(obj), theta, directions, DELTA, 3)
    samples = hessian_samples(values, scaling_matrices(spec, directions), DELTA, 1, 1)
    return mean, samples.std(axis=0, ddof=1) / np.sqrt(n)


def main() -> None:
    a = np.array([[2.0, 0.7], [0.7, 4.0]])
    obj = quadratic(a)
    theta = np.array([0.5, -0.5])
    n = 200_000

    for spec, name in ((gaussian(), "gaussian"), (uniform(np.sqrt(3.0)), "uniform")):
        mean, se = estimate(obj, theta, spec, n)
        print(f"\n{name} directions, {n} draws, corrected scaling")
        show("  mean estimate", mean, a, se)

    mean, se = estimate(obj, theta, PerturbationSpec("gaussian", paper_literal_scaling=True), n)
    print("\ngaussian directions, plain outer-product scaling (converges to 2H)")
    show("  mean estimate", mean, 2.0 * a, se)

    print("\ntrue Hessian:")
    for row in a:
        print("  [" + "  ".join(f"{v:8.4f}" for v in row) + "]")


if __name__ == "__main__":
    main()
