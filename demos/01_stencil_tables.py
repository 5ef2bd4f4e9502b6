"""Print the one-sided difference weights and certify their algebra.

The gradient estimator probes along a random direction at the shifts
0, 1, ..., k and combines the values with fixed rational weights; the
Hessian estimator composes two such rules.  This script prints the exact
weight tables, shows the moment cancellations that give each rule its
bias order, and runs the full rational certification.
"""

from __future__ import annotations

import time
from fractions import Fraction

from grdsa.stencils import (
    grad_stencil,
    hess_stencil,
    residual_coefficient,
    verify_identities,
)


def fmt(weights: tuple[Fraction, ...]) -> str:
    return "  ".join(f"{w!s:>8}" for w in weights)


def main() -> None:
    print("first-derivative weights (shift 0 .. k, divide by delta):")
    for k in (1, 2, 3, 4):
        print(f"  k={k}:  {fmt(grad_stencil(k).weights)}")

    print("\nsecond-derivative weights (shift 0 .. k1+k2, divide by delta^2):")
    for k1, k2 in ((1, 1), (2, 2), (3, 3), (1, 3)):
        print(f"  (k1,k2)=({k1},{k2}):  {fmt(hess_stencil(k1, k2).weights)}")

    print("\nmoment cancellation for the order-3 gradient rule:")
    st = grad_stencil(3)
    for q in range(6):
        print(f"  sum_s w_s s^{q} = {st.moment(q)}")
    print("  (zero through q=3 except q=1; the q=4 term drives the delta^3 bias)")

    print("\nleading bias coefficient of the Hessian rule, per factor of order min(k1,k2):")
    print("  (a rule with k1 = k2 has two such factors and carries it twice)")
    for k1, k2 in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
        print(f"  (k1,k2)=({k1},{k2}): {residual_coefficient(k1, k2)}")

    t0 = time.perf_counter()
    report = verify_identities(12)
    elapsed = time.perf_counter() - t0
    n_pass = sum(c.passed for c in report)
    print(f"\ncertification: {n_pass}/{len(report)} identities exact "
          f"up to order 12 ({elapsed * 1000:.0f} ms)")


if __name__ == "__main__":
    main()
