"""Escape a saddle point: cubic-regularized Newton against the Newton loop.

The test surface has a strict saddle at the origin and two symmetric
minima.  Both solvers start right next to the saddle with noisy
evaluations, at very different budgets: the cubic-regularized loop gets
30 outer steps of 1,600 evaluations each (48,000 per run), the
averaged-Hessian Newton loop a budget of 30 evaluations (10 iterations
at k = 1).  Escape is judged by the true smallest Hessian eigenvalue at
the reported iterate.
"""

from __future__ import annotations

import numpy as np

from grdsa.cubic import CubicConfig, run_crzon
from grdsa.newton import NewtonConfig, run_newton
from grdsa.oracle import LinearGaussianNoise, saddle_quartic


def main() -> None:
    obj = saddle_quartic()
    noise = LinearGaussianNoise(0.001)
    theta0 = np.array([0.01, 0.01])
    n_seeds = 10

    print("start (0.01, 0.01), noise scale 0.001, first-order stencils\n")
    print("cubic-regularized (30 outer steps, m=200 gradient / b=400 Hessian draws):")
    escapes = 0
    for seed in range(n_seeds):
        report = run_crzon(
            CubicConfig(
                objective=obj, k=1, n_steps=30, m=200, b=400, delta=0.1,
                noise=noise, seed=seed, theta0=theta0,
            )
        )
        escaped = report.lambda_min_at_r >= -0.5
        escapes += escaped
        print(
            f"  seed {seed}: iterate ({report.theta_r[0]:7.3f}, {report.theta_r[1]:7.3f})"
            f"  lambda_min {report.lambda_min_at_r:7.3f}  "
            f"{'escaped' if escaped else 'stuck'}"
        )

    print("\nplain Newton loop (same evaluation noise, budget 30):")
    stuck = 0
    for seed in range(n_seeds):
        record = run_newton(
            NewtonConfig(objective=obj, budget=30, k=1, noise=noise, seed=seed, theta0=theta0)
        )
        lam = float(np.linalg.eigvalsh(obj.hessian(record.theta_final))[0])
        failed = lam < -0.5
        stuck += failed
        print(
            f"  seed {seed}: iterate ({record.theta_final[0]:7.3f}, "
            f"{record.theta_final[1]:7.3f})  lambda_min {lam:7.3f}  "
            f"{'stuck' if failed else 'escaped'}"
        )

    print(f"\ncubic-regularized escaped {escapes}/{n_seeds}, "
          f"plain Newton stuck {stuck}/{n_seeds}")


if __name__ == "__main__":
    main()
