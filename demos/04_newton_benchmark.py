"""Benchmark gradient-only and Newton-style runs on the Rastrigin surface.

GSF-m uses an order-(m-1) gradient stencil with m evaluations per draw;
G2SF-m adds a Hessian average with k = (m-1)/2 and reuses the gradient's
evaluations.  Every cell runs several seeds from the same initial-point
law and reports the squared parameter error normalized by its starting
value, so 1.0 means no progress.
"""

from __future__ import annotations

import time

from grdsa.harness import run_table


def main() -> None:
    config = {
        "objective": "rastrigin",
        "methods": ["GSF-3", "GSF-5", "G2SF-3", "G2SF-5"],
        "dims": [5],
        "budgets": [2000, 5000],
        "seeds": 5,
    }
    t0 = time.perf_counter()
    result = run_table(config)
    elapsed = time.perf_counter() - t0

    print(f"{len(result.rows)} runs in {elapsed:.1f}s "
          f"(rastrigin, d=5, 5 seeds per cell)\n")
    print(f"{'method':<9}{'budget':>7}{'mean err':>10}{'sd':>8}{'evals':>9}")
    for cell in result.cells:
        print(
            f"{cell.method:<9}{cell.budget:>7}{cell.mean_error:>10.4f}"
            f"{cell.sd_error:>8.4f}{cell.mean_evals:>9.0f}"
        )

    failures = [r for r in result.rows if r.status != "ok"]
    if failures:
        print(f"\n{len(failures)} runs failed:")
        for row in failures:
            print(f"  {row.method} seed={row.seed}: {row.message}")


if __name__ == "__main__":
    main()
