"""Test objectives, measurement noise, and budgeted function evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: floats of one block (2**13, 64 KB): the probe points of one oracle call,
#: one step of :func:`~grdsa.estimators.hessian_mean`, a Newton run's draws
#: and the ``(rows, d, d)`` products of :func:`quadratic`'s value
BLOCK_FLOATS = 2**13


def _check_integer(**values: int) -> None:
    """Raise naming the first of ``values`` that is not an integer; a bool
    is not one, though ``bool`` subclasses ``int``."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


class BudgetExhausted(RuntimeError):
    """Raised when an evaluation would exceed the measurement budget."""


class BudgetTooSmall(ValueError):
    """Budget cannot cover even one iteration of the requested run."""


@dataclass(frozen=True)
class Objective:
    """A deterministic objective with optional analytic derivatives.

    ``value`` must accept arrays of shape ``(d,)`` or ``(n, d)`` and return
    a scalar or ``(n,)`` respectively, and each value must be a function of
    its point alone: a probe reads ``theta``, the start its rays share, once
    per block as a ``(d,)`` call, apart from the off-center rows (see
    :meth:`BudgetedOracle.evaluate_many`).  ``optimum`` is the minimizer used by
    the parameter-error metric; ``lipschitz_hessian`` bounds the third
    derivative on the standard box and feeds the cubic regularizer weight.
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    optimum: np.ndarray | None = None
    lipschitz_hessian: float | None = None


def rastrigin(dim: int) -> Objective:
    """Classic multimodal benchmark, global minimum 0 at the origin."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")

    # 0-d constants: a ufunc converts a Python float operand on every call
    offset, ten, two_pi = np.array(10.0 * dim), np.array(10.0), np.array(2.0 * np.pi)

    def value(x: np.ndarray) -> np.ndarray:
        # 10 d + sum(x**2 - 10 cos(2 pi x)), the cosine term formed in place
        # in one temporary; np.add.reduce is np.sum without its Python wrapper
        x = np.asarray(x, dtype=float)
        t = x * two_pi
        np.cos(t, out=t)
        t *= ten
        return offset + np.add.reduce(np.subtract(np.square(x), t, out=t), axis=-1)

    def gradient(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 2.0 * x + 20.0 * np.pi * np.sin(2.0 * np.pi * x)

    def hessian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.diag(2.0 + 40.0 * np.pi**2 * np.cos(2.0 * np.pi * x))

    return Objective(
        name="rastrigin",
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        optimum=np.zeros(dim),
        lipschitz_hessian=80.0 * np.pi**3,
    )


def quadratic(a: np.ndarray, b: np.ndarray | None = None) -> Objective:
    """``0.5 x^T A x + b^T x`` for symmetric ``A``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"A must be finite, got {a.tolist()}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ValueError("A must be symmetric")
    dim = a.shape[0]
    if b is None:
        b = np.zeros(dim)
    b = np.asarray(b, dtype=float)
    if b.shape != (dim,):
        raise ValueError(f"b must have shape ({dim},), got {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError(f"b must be finite, got {b.tolist()}")

    # rows per block of about BLOCK_FLOATS floats of (rows, d, d) products
    rows = max(1, BLOCK_FLOATS // (dim * dim))

    def value(x: np.ndarray) -> np.ndarray:
        # plain reductions per row, so every row keeps the bits of its own
        # call whatever the batch size (einsum and matmul do not); the
        # products are formed a block of rows at a time
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, dim)
        quad = np.empty(len(flat))
        for i in range(0, len(flat), rows):
            block = flat[i : i + rows]
            products = block[:, :, None] * a
            products *= block[:, None, :]
            quad[i : i + rows] = np.add.reduce(products, axis=(-2, -1))
        return 0.5 * quad.reshape(x.shape[:-1]) + np.add.reduce(x * b, axis=-1)

    def gradient(x: np.ndarray) -> np.ndarray:
        return a @ np.asarray(x, dtype=float) + b

    def hessian(x: np.ndarray) -> np.ndarray:
        return a.copy()

    if np.any(b):
        try:
            optimum = np.linalg.solve(a, -b)
        except np.linalg.LinAlgError:
            optimum = None  # singular A: no unique minimizer
    else:
        optimum = np.zeros(dim)

    return Objective(
        name="quadratic",
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        optimum=optimum,
        lipschitz_hessian=0.0,
    )


def quartic(dim: int) -> Objective:
    """Separable quartic ``sum x_i^4``; minimal at the origin.

    Its fifth and higher derivatives vanish, so stencils of order >= 3
    reproduce it exactly; order sweeps above k=2 need :func:`exp_sin`.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")

    def value(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.add.reduce(x**4, axis=-1)  # np.sum without its wrapper

    def gradient(x: np.ndarray) -> np.ndarray:
        return 4.0 * np.asarray(x, dtype=float) ** 3

    def hessian(x: np.ndarray) -> np.ndarray:
        return np.diag(12.0 * np.asarray(x, dtype=float) ** 2)

    return Objective(
        name="quartic",
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        optimum=np.zeros(dim),
    )


def saddle_quartic() -> Objective:
    """2-D strict-saddle fixture ``x1^2 - x2^2 + x2^4 / 4``.

    The origin is a stationary point with bottom curvature -2; the global
    minima sit at ``(0, +-sqrt(2))``.
    """

    def value(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 - x[..., 1] ** 2 + 0.25 * x[..., 1] ** 4

    def gradient(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([2.0 * x[0], -2.0 * x[1] + x[1] ** 3])

    def hessian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.diag([2.0, -2.0 + 3.0 * x[1] ** 2])

    return Objective(
        name="saddle_quartic",
        dim=2,
        value=value,
        gradient=gradient,
        hessian=hessian,
        optimum=np.array([0.0, np.sqrt(2.0)]),
        lipschitz_hessian=6.0,
    )


def exp_sin() -> Objective:
    """Smooth 2-D fixture ``exp(x1) + sin(x2)`` with derivatives of all orders.

    Used by the truncation-order sweeps, where a polynomial would be
    reproduced exactly by high-order stencils and leave nothing to measure.
    """

    def value(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(x[..., 0]) + np.sin(x[..., 1])

    def gradient(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([np.exp(x[0]), np.cos(x[1])])

    def hessian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.diag([np.exp(x[0]), -np.sin(x[1])])

    return Objective(name="exp_sin", dim=2, value=value, gradient=gradient, hessian=hessian)


@dataclass(frozen=True)
class LinearGaussianNoise:
    """Additive noise ``[theta^T, 1] . z`` with ``z ~ N(0, sigma^2 I_{d+1})``.

    A fresh ``z`` is drawn per evaluation, so the noise is i.i.d. across
    measurements but its scale grows with ``|theta|``.
    """

    sigma: float

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be >= 0 and finite, got {self.sigma}")

    def sample(
        self, rng: np.random.Generator, thetas: np.ndarray, center: np.ndarray | None = None
    ) -> np.ndarray:
        """One noise value per point of ``thetas``, shape ``(n,)``.

        With ``center``, ``thetas`` holds the ``(s, n, d)`` off-center points
        of ``n`` rays that start at ``center``, and the result is ``(n, s + 1)``
        with ``center``'s noise in column 0: the same draws, in the same
        order and to the bit, as the ``(n * (s + 1), d)`` ray-by-ray points.
        """
        if center is None:
            thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
            n, d = thetas.shape
            z = rng.normal(0.0, self.sigma, size=(n, d + 1))
            return np.einsum("ij,ij->i", thetas, z[:, :d]) + z[:, d]
        s, n, d = thetas.shape
        z = rng.normal(0.0, self.sigma, size=(n, s + 1, d + 1))
        noise = np.empty((n, s + 1))
        noise[:, 0] = np.einsum("j,rj->r", center, z[:, 0, :d])
        noise[:, 1:] = np.einsum("srj,rsj->rs", thetas, z[:, 1:, :d])
        noise += z[..., d]
        return noise


class BudgetedOracle:
    """Noisy function evaluations with an exact measurement counter.

    Every scalar evaluation increments the counter by one.  A call that
    would push the counter past ``budget`` raises :class:`BudgetExhausted`
    without consuming anything, so callers can treat a multi-point request
    as all-or-nothing.
    """

    def __init__(
        self,
        objective: Objective,
        noise: LinearGaussianNoise | None = None,
        budget: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if budget is not None:
            # a NaN budget would compare False to every count and never run out
            _check_integer(budget=budget)
            if budget < 0:
                raise ValueError(f"budget must be >= 0, got {budget}")
        if noise is not None and noise.sigma > 0 and rng is None:
            raise ValueError("a noise rng is required when sigma > 0")
        self.objective = objective
        self.noise = noise
        self.budget = budget
        self.rng = rng
        self._used = 0
        self._noisy = noise is not None and noise.sigma > 0

    @property
    def evals_used(self) -> int:
        return self._used

    def check_affords(self, n: int) -> None:
        """Raise :class:`BudgetExhausted` unless ``n`` more evaluations fit the budget."""
        if self.budget is not None and self._used + n > self.budget:
            raise BudgetExhausted(
                f"{n} evaluations requested with {self.budget - self._used} "
                f"of {self.budget} remaining"
            )

    def evaluate_many(self, thetas: np.ndarray, center: np.ndarray | None = None) -> np.ndarray:
        """Evaluate a batch of points, one budget unit per point.

        ``thetas`` is ``(n, d)``, and the result is ``(n,)``.  The ray form,
        with a ``(d,)`` ``center``, takes the ``(s, n, d)`` off-center points of
        ``n`` rays that all start at ``center``: ``thetas[j - 1, i]`` is shift
        ``j`` of ray ``i``.  It charges ``n * (s + 1)`` units, reads the
        objective once at ``center`` and once on the off-center points, draws
        each point's noise, ``center``'s once per ray, and returns the flat
        ``(n * (s + 1),)`` values ray by ray: those of the flat call on the
        points laid out ray by ray, to the bit, for an objective whose rows
        keep the bits of their own calls.
        """
        thetas = np.asarray(thetas, dtype=float)
        dim = self.objective.dim
        if center is None:
            if thetas.ndim != 2 or thetas.shape[1] != dim:
                raise ValueError(f"expected shape (n, {dim}), got {thetas.shape}")
            n = thetas.shape[0]
        else:
            center = np.asarray(center, dtype=float)
            if center.shape != (dim,) or thetas.ndim != 3 or thetas.shape[2] != dim:
                raise ValueError(
                    f"expected center ({dim},) and points (s, n, {dim}), "
                    f"got {center.shape} and {thetas.shape}"
                )
            s, rays = thetas.shape[:2]
            n = rays * (s + 1)
        if self.budget is not None and self._used + n > self.budget:
            self.check_affords(n)  # raises, with its message
        if center is None:
            values = np.asarray(self.objective.value(thetas), dtype=float)
            if self._noisy:
                values = values + self.noise.sample(self.rng, thetas)
        else:
            values = np.empty((rays, s + 1))
            values[:, 0] = self.objective.value(center)
            if s:
                # the (s * n, d) reshape of a contiguous block is free; a
                # strided view would make the objective's ufuncs buffer it
                off_center = self.objective.value(thetas.reshape(-1, dim))
                values[:, 1:] = np.reshape(off_center, (s, rays)).T
            if self._noisy:
                values += self.noise.sample(self.rng, thetas, center)
            values = values.reshape(n)
        self._used += n
        return values


def parameter_error(theta_final: np.ndarray, theta_init: np.ndarray, optimum: np.ndarray) -> float:
    """Squared distance to the optimum, normalized by the starting distance."""
    theta_final = np.asarray(theta_final, dtype=float)
    theta_init = np.asarray(theta_init, dtype=float)
    optimum = np.asarray(optimum, dtype=float)
    denom = float(np.sum((theta_init - optimum) ** 2))
    if denom == 0.0:
        raise ValueError("theta_init coincides with the optimum; error undefined")
    return float(np.sum((theta_final - optimum) ** 2)) / denom
