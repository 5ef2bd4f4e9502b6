"""Print each stencil's gain on a cosine ripple, for every order.

A difference stencil applied to the ripple ``e^{i omega t}`` at shift
``delta`` returns ``sum_s w_s e^{i x s}`` with ``x = omega * delta``; over
the ripple's own derivative, ``x`` for the gradient and ``x^2`` for the
Hessian, that is the stencil's gain, and 1 is exact.  Rastrigin's ripple
meets ``x`` between about 1 and 5 along a ray at the default radii, where
the higher orders amplify it and order 1 damps it: the account of the
acceptance-06 ordering in the README.
"""

from __future__ import annotations

import cmath

from grdsa.stencils import MAX_ORDER, grad_weights, hess_weights

XS = (1, 2, 3, 4)


def ripple_gain(weights, x: float, power: int) -> float:
    """``|sum_s w_s e^{ixs}| / x**power``."""
    return abs(sum(w * cmath.exp(1j * x * s) for s, w in enumerate(weights))) / x**power


def gains(k: int) -> tuple[list[float], list[float]]:
    """The order-``k`` gradient and Hessian (``hess_weights(k, k)``) gains at ``XS``."""
    grad = [ripple_gain(grad_weights(k), x, 1) for x in XS]
    hess = [ripple_gain(hess_weights(k, k), x, 2) for x in XS]
    return grad, hess


def main() -> None:
    header = "".join(f"{f'x={x}':>10}" for x in XS)
    print("ripple gain |sum_s w_s e^(ixs)| / x^p, x = omega * delta (1 is exact)\n")
    print(f"{'k':>3}  {'gradient (p = 1)':<40}  Hessian (p = 2)")
    print(f"{'':>3}  {header}  {header}")
    damping = []
    for k in range(1, MAX_ORDER + 1):
        grad, hess = gains(k)
        row = "".join(f"{g:10.3f}" for g in grad) + "  " + "".join(f"{h:10.3f}" for h in hess)
        print(f"{k:>3}  {row}")
        if max(grad + hess) <= 1.0:
            damping.append(k)
    print(f"\norders that damp the ripple at every x: {damping}")


if __name__ == "__main__":
    main()
