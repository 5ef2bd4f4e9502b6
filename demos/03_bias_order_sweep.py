"""Measure how fast estimator bias shrinks as the probing radius does.

Higher-order stencils buy faster bias decay: the truncation residual of
an order-k rule scales like delta^k.  This sweep shares one batch of
random directions across all radii (common random numbers), prints the
deviation at each delta, and fits the log-log slope.
"""

from __future__ import annotations

import numpy as np

from grdsa.estimators import fit_loglog_slope, gradient_deviation, hessian_deviation
from grdsa.harness import run_bias_sweep
from grdsa.oracle import quartic
from grdsa.perturb import gaussian


def main() -> None:
    deltas = np.array([0.4, 0.2, 0.1, 0.05])
    spec = gaussian()
    n = 50_000
    dirs = spec.sample(np.random.default_rng(3), (n, 2))
    theta = np.array([0.9, -1.1])
    obj = quartic(2)

    print(f"{n} shared directions, quartic objective, residual mode\n")
    header = "  ".join(f"d={d:<7}" for d in deltas)
    print(f"{'estimator':<14}{header}  slope")
    for k in (1, 2):
        devs = [gradient_deviation(obj, theta, d, k, spec, dirs) for d in deltas]
        slope = fit_loglog_slope(deltas, devs)
        cells = "  ".join(f"{v:<9.4f}" for v in devs)
        print(f"{f'grad k={k}':<14}{cells}  {slope:.3f}")
    for k1, k2 in ((1, 1), (2, 2), (1, 3)):
        devs = [hessian_deviation(obj, theta, d, k1, k2, spec, dirs) for d in deltas]
        slope = fit_loglog_slope(deltas, devs)
        cells = "  ".join(f"{v:<9.4f}" for v in devs)
        print(f"{f'hess ({k1},{k2})':<14}{cells}  {slope:.3f}")
    print("\nmixed orders decay at min(k1, k2); everything else at k.")

    # the harness wraps the same sweep behind a config dict
    result = run_bias_sweep(
        {
            "estimator_kind": "gradient",
            "objective": "exp_sin",
            "theta": [0.3, 0.4],
            "k": 3,
            "samples": n,
        }
    )
    print(f"\nharness sweep, entire objective, grad k=3: slope {result.slope:.3f}")


if __name__ == "__main__":
    main()
