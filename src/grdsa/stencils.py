"""Exact one-sided stencil weights for random-direction derivative estimators.

A truncation order ``k`` defines a stencil on the integer shifts ``0..k``
whose weighted combination of function values along a ray reproduces the
first directional derivative with an O(delta^k) truncation error.  Composing
the first-derivative operator with itself gives a second-derivative stencil
on the shifts ``0..k1+k2``.  All weights are held as ``fractions.Fraction``
so the cancellation structure can be certified exactly rather than checked
to floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

#: Largest supported truncation order.  Weights grow like k!/l! and the
#: certification loop is quadratic in k, so anything much beyond this is
#: numerically useless once converted to floats.
MAX_ORDER = 12


class OrderError(ValueError):
    """Raised for truncation orders outside the supported range."""


def _check_order(k: int, name: str) -> None:
    # a bool is an int subclass, but not an order
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise OrderError(f"{name} must be an integer, got {k!r}")
    if k < 1:
        raise OrderError(f"{name} must be >= 1, got {k}")
    if k > MAX_ORDER:
        raise OrderError(f"{name}={k} exceeds the supported cap {MAX_ORDER}")


def coeff(k: int, l: int) -> Fraction:
    """Series coefficient ``c_l`` of the order-``k`` derivative operator.

    ``c_0`` is the k-th harmonic number; for ``l >= 1`` the falling-factorial
    form ``k (k-1) ... (k-l+1) / l`` applies.

    Parameters
    ----------
    k : int
        Truncation order, ``1 <= k <= MAX_ORDER``.
    l : int
        Shift index, ``0 <= l <= k``.
    """
    _check_order(k, "k")
    if not 0 <= l <= k:
        raise ValueError(f"l must satisfy 0 <= l <= k={k}, got {l}")
    if l == 0:
        return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))
    prod = 1
    for j in range(l):
        prod *= k - j
    return Fraction(prod, l)


@dataclass(frozen=True)
class Stencil:
    """Derivative stencil: ``weights[s]`` multiplies the value at shift ``s``.

    ``orders == (k,)``: the first derivative, the weighted sum over ``delta``.
    ``orders == (k1, k2)``: the second derivative, two first-derivative
    stencils composed along one ray, the weighted sum over ``delta**2``.
    """

    orders: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def to_float(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights])

    def moment(self, q: int) -> Fraction:
        """Exact weighted power sum ``sum_s weights[s] * s**q``."""
        if q < 0:
            raise ValueError(f"moment order must be >= 0, got {q}")
        return sum((w * s**q for s, w in enumerate(self.weights)), Fraction(0))


def grad_stencil(k: int) -> Stencil:
    """Build the order-``k`` first-derivative stencil.

    The weight at shift ``l`` is ``(-1)**(l+1) * c_l / l!``.
    """
    _check_order(k, "k")
    weights = tuple((-1) ** (l + 1) * coeff(k, l) / factorial(l) for l in range(k + 1))
    return Stencil(orders=(k,), weights=weights)


def hess_stencil(k1: int, k2: int | None = None) -> Stencil:
    """Compose the order-``k1`` and order-``k2`` first-derivative stencils.

    Applying one to the other along the same ray convolves their weights:
    ``W_s = sum_{l+m=s} (-1)**(l+m) c_l(k1) c_m(k2) / (l! m!)``.  ``k2``
    defaults to ``k1`` (equal truncation).
    """
    if k2 is None:
        k2 = k1
    _check_order(k1, "k1")
    _check_order(k2, "k2")
    w1, w2 = grad_stencil(k1).weights, grad_stencil(k2).weights
    weights = [Fraction(0)] * (k1 + k2 + 1)
    for l, a in enumerate(w1):
        for m, b in enumerate(w2):
            weights[l + m] += a * b
    return Stencil(orders=(k1, k2), weights=tuple(weights))


@lru_cache(maxsize=None, typed=True)
def grad_weights(k: int) -> np.ndarray:
    """Float weights of :func:`grad_stencil`, built once per order.

    The array is shared by every caller and therefore read-only.  Orders
    outside ``1..MAX_ORDER`` raise before anything is cached, so the cache
    stays bounded; keys are typed, so ``1.0`` is checked (and rejected)
    rather than served the entry for ``1``.
    """
    weights = grad_stencil(k).to_float()
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=None, typed=True)
def hess_weights(k1: int, k2: int | None = None) -> np.ndarray:
    """Float weights of :func:`hess_stencil`, built once per order pair.

    Read-only and bounded like :func:`grad_weights`.
    """
    weights = hess_stencil(k1, k2).to_float()
    weights.flags.writeable = False
    return weights


def residual_coefficient(k1: int, k2: int) -> Fraction:
    """Leading truncation coefficient of the unequal-order stencil.

    For ``k = min(k1, k2)`` the moments of the composed stencil vanish up to
    order ``k+1`` and the first surviving term sits at ``q = k + 2``.  Its
    coefficient per order-``k`` factor is read off that factor's stencil: the
    first surviving moment over ``(k+1)!``.
    """
    k = min(k1, k2)
    return grad_stencil(k).moment(k + 1) / factorial(k + 1)


@dataclass(frozen=True)
class IdentityCheck:
    """One certified identity: exact left/right sides and the verdict."""

    identity: str
    k: int
    q: int | None
    lhs: Fraction
    rhs: Fraction
    passed: bool


def _check(identity: str, k: int, q: int | None, lhs: Fraction, rhs: Fraction) -> IdentityCheck:
    return IdentityCheck(identity, k, q, lhs, rhs, lhs == rhs)


def verify_identities(k_max: int) -> list[IdentityCheck]:
    """Certify the combinatorial identities behind the stencils, exactly.

    Every sum is read off the package's own stencils, so a wrong weight fails
    the certificate.  With ``w = grad_stencil(k).weights``, whose weight at
    shift ``l >= 1`` is ``(-1)**(l+1) C(k,l)/l``, this checks for every
    ``k <= k_max``, in exact rational arithmetic:

    - ``sum_{l=1..k} w_l`` equals the k-th harmonic number ``-w_0``,
    - the first moment ``sum_l w_l l`` equals 1,
    - ``(-1)**(k+1)`` times the ``(q+1)``-th moment, which is
      ``sum_{j=0..k} (-1)**(k-j) C(k,j) j**q``, equals 0 for every 0 < q < k,

    plus the moment cancellations of the equal-order second-derivative
    stencil: constant and first-order moments 0, second-order moment / 2!
    equal to 1, and q-th moment / q! equal to 0 for 3 <= q <= k.
    """
    _check_order(k_max, "k_max")
    report: list[IdentityCheck] = []
    for k in range(1, k_max + 1):
        grad, hess = grad_stencil(k), hess_stencil(k, k)
        alt_harmonic = sum(grad.weights[1:], Fraction(0))
        report.append(_check("alternating_harmonic", k, None, alt_harmonic, -grad.weights[0]))
        report.append(_check("alternating_binomial", k, None, grad.moment(1), Fraction(1)))
        for q in range(1, k):
            power_sum = (-1) ** (k + 1) * grad.moment(q + 1)
            report.append(_check("centered_power_sum", k, q, power_sum, Fraction(0)))
        report.append(_check("second_diff_constant", k, 0, hess.moment(0), Fraction(0)))
        report.append(_check("second_diff_first", k, 1, hess.moment(1), Fraction(0)))
        report.append(_check("second_diff_second", k, 2, hess.moment(2) / 2, Fraction(1)))
        for q in range(3, k + 1):
            moment = hess.moment(q) / factorial(q)
            report.append(_check("second_diff_higher", k, q, moment, Fraction(0)))
    return report


def all_identities_pass(report: list[IdentityCheck]) -> bool:
    return all(row.passed for row in report)
