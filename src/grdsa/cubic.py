"""Cubic-regularized Newton on batched zeroth-order derivative estimates.

Each outer step forms a batch-averaged gradient and Hessian from random-ray
measurements, minimizes the cubic model ``g.s + s.H.s/2 + alpha |s|^3 / 6``
exactly, and applies the minimizer as the step.  The reported point is a
uniformly random iterate, which is what the second-order guarantee speaks
about.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .estimators import gradient_slopes, hessian_mean, probe
from .newton import _check_finite, _check_run, _initial_theta, _spawn_streams
from .oracle import (
    BudgetedOracle,
    BudgetTooSmall,
    LinearGaussianNoise,
    Objective,
    _check_integer,
)
from .perturb import PerturbationSpec, gaussian, gradient_unbias_factor
from .stencils import _check_order

#: regularizer floor used when the objective has a vanishing third derivative
ALPHA_FLOOR = 1e-3

# the most safeguarded Newton steps one solve takes on the secular equation
_SECULAR_ITERS = 200

# floats in numpy's largest float64 array: its byte count must fit an intp
_MAX_ARRAY_FLOATS = np.iinfo(np.intp).max // 8


def _check_batch(name: str, size: int, dim: int, value: str) -> None:
    """Raise naming ``name = value`` if ``size`` draws of ``dim`` coordinates,
    which a step samples as one array, exceed numpy's largest array."""
    if size * dim > _MAX_ARRAY_FLOATS:
        raise ValueError(
            f"{name} = {value} is too large: a ({name}, {dim}) batch of draws "
            f"exceeds numpy's largest array"
        )


@dataclass(frozen=True)
class CubicConfig:
    """One cubic-regularized run: batch sizes, radius, regularizer, seed.

    Frozen, so the checks made when it is built hold for every run of it."""

    objective: Objective
    k: int = 1
    n_steps: int = 30
    m: int = 200
    b: int = 400
    delta: float = 0.1
    alpha: float | None = None  # None: 3 * objective.lipschitz_hessian, floored
    epsilon: float | None = None
    noise: LinearGaussianNoise | None = None
    perturbation: PerturbationSpec = field(default_factory=gaussian)
    seed: int = 0
    theta0: np.ndarray | None = None
    budget: int | None = None
    reuse: bool = False

    def __post_init__(self) -> None:
        _check_order(self.k, "k")
        _check_integer(n_steps=self.n_steps, m=self.m, b=self.b)
        if self.budget is not None:
            _check_integer(budget=self.budget)
        for name in ("n_steps", "m", "b"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("m", "b"):
            size = getattr(self, name)
            _check_batch(name, size, self.objective.dim, str(size))
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        _check_finite(delta=self.delta)
        # a product, as delta**2 raises OverflowError where the product is inf
        if self.delta * self.delta == 0.0:
            raise ValueError(
                f"delta = {self.delta!r} is too small: the Hessian divides by delta**2"
            )
        if self.alpha is not None:
            if not self.alpha > 0:
                raise ValueError(f"alpha must be > 0, got {self.alpha}")
            _check_finite(alpha=self.alpha)
        _check_run(self.seed, self.theta0, self.objective)
        cost = self.step_cost()
        if self.budget is not None and self.budget < cost:
            raise BudgetTooSmall(
                f"budget {self.budget} cannot afford one step ({cost} evaluations)"
            )

    def alpha_value(self) -> float:
        if self.alpha is not None:
            return self.alpha
        l_h = self.objective.lipschitz_hessian
        if l_h is None:
            raise ValueError(
                "alpha not set and the objective carries no third-derivative bound"
            )
        return max(3.0 * l_h, ALPHA_FLOOR)

    def step_cost(self) -> int:
        """Measurements one outer step consumes."""
        shared = min(self.m, self.b) if self.reuse else 0
        return self.b * (2 * self.k + 1) + (self.m - shared) * (self.k + 1)


def from_epsilon(
    objective: Objective,
    epsilon: float,
    k: int = 1,
    n_prefactor: float = 1.0,
    m_prefactor: float = 1.0,
    b_prefactor: float = 1.0,
    delta_prefactor: float = 1.0,
    **kwargs,
) -> CubicConfig:
    """Size a run from a target stationarity level ``epsilon``.

    The counts follow the guarantee's scalings with tunable prefactors
    (the analysis constants are problem-dependent and not reproducible):

    - steps   ``N ~ epsilon**-3/2``
    - gradient batch ``m ~ epsilon**-(2 + 2/k)``
    - Hessian batch ``b ~ epsilon**-(1 + 4/k)``
    - probing radius ``delta ~ epsilon**(1/k)``
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    _check_order(k, "k")
    _check_finite(
        n_prefactor=n_prefactor,
        m_prefactor=m_prefactor,
        b_prefactor=b_prefactor,
        delta_prefactor=delta_prefactor,
    )
    sizes = {}
    for name, prefactor, exponent in (
        ("n_steps", n_prefactor, -1.5),
        ("m", m_prefactor, -(2.0 + 2.0 / k)),
        ("b", b_prefactor, -(1.0 + 4.0 / k)),
    ):
        try:
            sizes[name] = math.ceil(prefactor * epsilon**exponent)
        except OverflowError as exc:  # the power's range error, or ceil of infinity
            raise ValueError(
                f"{name} = {prefactor} * epsilon**{exponent:.4g} overflows at "
                f"epsilon = {epsilon} ({exc.args[-1]})"
            ) from None
        if name != "n_steps":
            _check_batch(
                name, sizes[name], objective.dim,
                f"{prefactor} * epsilon**{exponent:.4g} = {sizes[name]:.4g} at epsilon = {epsilon}",
            )
    return CubicConfig(
        objective=objective,
        k=k,
        **sizes,
        delta=delta_prefactor * epsilon ** (1.0 / k),
        epsilon=epsilon,
        **kwargs,
    )


def cubic_model_value(g: np.ndarray, h: np.ndarray, alpha: float, s: np.ndarray) -> float:
    """Value of the cubic model at step ``s``."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    s = np.asarray(s, dtype=float)
    return float(g @ s + 0.5 * s @ h @ s + (alpha / 6.0) * np.linalg.norm(s) ** 3)


@dataclass(frozen=True)
class CubicSolution:
    """Global minimizer of the cubic model plus solve diagnostics."""

    step: np.ndarray
    radius: float
    model_value: float
    stationarity: float
    hard_case: bool
    iterations: int


def solve_cubic_subproblem(
    g: np.ndarray,
    h: np.ndarray,
    alpha: float,
    tol: float = 1e-8,
) -> CubicSolution:
    """Globally minimize ``g.s + s.H.s/2 + alpha |s|^3 / 6``.

    Works through the eigendecomposition of ``H``: the minimizer satisfies
    ``(H + (alpha/2) r I) s = -g`` with ``r = |s|`` and ``H + (alpha/2) r I``
    positive semidefinite, so ``r`` solves the scalar secular equation
    ``|(H + (alpha/2) r I)^{-1} g| = r`` on ``r >= max(0, -2 lambda_min /
    alpha)``.  A safeguarded Newton iteration (bisection fallback) finds the
    root; when ``g`` has no component on the bottom eigenspace the hard case
    applies and the step gains an explicit bottom-eigenvector component.

    The returned ``stationarity`` is ``|g + H s + (alpha/2) |s| s|``, and the
    solve stops once it falls below ``tol * max(1, |g|)``.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be > 0 and finite, got {alpha}")
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.ndim != 1 or h.shape != (g.size, g.size):
        raise ValueError(f"shape mismatch: g {g.shape}, H {h.shape}")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise ValueError("g and H must be finite")

    sym = 0.5 * (h + h.T)
    eigval, eigvec = np.linalg.eigh(sym)
    ghat = eigvec.T @ g
    gnorm = float(np.linalg.norm(g))
    half = 0.5 * alpha
    lam_min = float(eigval[0])
    r_floor = max(0.0, -lam_min / half)
    scale = max(1.0, float(np.max(np.abs(eigval))), half * r_floor)

    def phi_and_slope(r: float) -> tuple[float, float]:
        # np.linalg.norm and np.sum, without their Python wrappers: the
        # norm of a vector is sqrt(x.dot(x)), and np.sum is np.add.reduce
        den = eigval + half * r
        ratios = ghat / den
        phi = math.sqrt(ratios.dot(ratios))
        if phi == 0.0:
            return 0.0, 0.0
        weighted = np.square(ratios)
        weighted /= den
        slope = -half * float(np.add.reduce(weighted)) / phi
        return phi, slope

    def finish(s_hat: np.ndarray, hard: bool, iters: int) -> CubicSolution:
        s = eigvec @ s_hat
        radius = float(np.linalg.norm(s))
        resid = float(np.linalg.norm(g + sym @ s + half * radius * s))
        return CubicSolution(
            step=s,
            radius=radius,
            model_value=cubic_model_value(g, sym, alpha, s),
            stationarity=resid,
            hard_case=hard,
            iterations=iters,
        )

    # all-zero and convex-with-zero-gradient cases
    if gnorm == 0.0 and lam_min >= 0.0:
        return finish(np.zeros_like(g), False, 0)

    def hard_case_solution() -> CubicSolution:
        den = eigval + half * r_floor
        keep = den > 1e-12 * scale
        p_hat = np.zeros_like(ghat)
        p_hat[keep] = -ghat[keep] / den[keep]
        tau = math.sqrt(max(r_floor**2 - float(p_hat @ p_hat), 0.0))
        bottom = int(np.argmin(den))
        s_hat = p_hat.copy()
        s_hat[bottom] += tau
        return finish(s_hat, True, 0)

    # strictly above r_floor the shifted matrix is positive definite
    r_lo = r_floor + 1e-13 * scale / half
    phi_lo, _ = phi_and_slope(r_lo)
    # g = 0 here has lambda_min < 0, a hard case even where -lambda_min / half underflows to 0
    if phi_lo <= r_lo and (r_floor > 0.0 or gnorm == 0.0):
        return hard_case_solution()

    # all lambda_i + half r_floor >= 0: from r = r_floor + t, t = sqrt(2|g|/alpha), each denominator
    # is >= half t, so phi(r) <= t <= r; equality (H = 0) takes one doubling, after which phi <= t/2
    r_hi = max(2.0 * r_lo, r_floor + math.sqrt(2.0 * gnorm / alpha), 1e-8)
    if phi_and_slope(r_hi)[0] >= r_hi:
        r_hi *= 2.0

    r = min(max(math.sqrt(2.0 * gnorm / alpha), r_lo), r_hi)
    iters = 0
    for iters in range(1, _SECULAR_ITERS + 1):
        phi, slope = phi_and_slope(r)
        residual = half * abs(phi - r) * phi
        if residual <= tol * max(1.0, gnorm):
            break
        if phi > r:
            r_lo = r
        else:
            r_hi = r
        newton = r - (phi - r) / (slope - 1.0)
        r = newton if r_lo < newton < r_hi else 0.5 * (r_lo + r_hi)
    s_hat = -ghat / (eigval + half * r)
    return finish(s_hat, False, iters)


def crzon_step(
    theta: np.ndarray,
    oracle: BudgetedOracle,
    cfg: CubicConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, CubicSolution]:
    """One outer step: batch estimates, exact model minimization, move."""
    theta = np.asarray(theta, dtype=float)
    hess, grad = _batched_estimates(theta, oracle, cfg, rng)
    sol = solve_cubic_subproblem(grad, hess, cfg.alpha_value())
    return theta + sol.step, sol


def _batched_estimates(theta, oracle, cfg, rng):
    """Hessian batch mean, then gradient batch mean.

    With reuse, the first ``min(m, b)`` gradient draws read the Hessian
    batch's shift-0..k measurements; the rest draw their own directions
    and probe them at ``k+1`` shifts.  The gradient mean
    ``factor * D^T s / m`` (:func:`~grdsa.estimators.gradient_mean`) is
    summed over the shared rows, then, once the Hessian batch is freed,
    over the fresh ones: a step holds one direction batch plus one probe block.
    """
    spec, k, delta = cfg.perturbation, cfg.k, cfg.delta
    directions = spec.sample(rng, (cfg.b, theta.size))
    values = probe(oracle, theta, directions, delta, 2 * k + 1)
    hess = hessian_mean(values, directions, delta, k, k, spec)
    shared = min(cfg.m, cfg.b) if cfg.reuse else 0
    total = directions[:shared].T @ gradient_slopes(values[:shared], delta, k)
    del directions, values  # free the spent batch before the fresh probe
    if cfg.m > shared:
        fresh = spec.sample(rng, (cfg.m - shared, theta.size))
        total += fresh.T @ gradient_slopes(probe(oracle, theta, fresh, delta, k + 1), delta, k)
    return hess, total * (gradient_unbias_factor(spec) / cfg.m)


@dataclass
class SospReport:
    """Outcome of one run, evaluated at a uniformly random iterate."""

    seed: int
    k: int
    epsilon: float | None
    n_steps: int
    iterations: int
    m: int
    b: int
    delta: float
    alpha: float
    r_index: int
    theta_init: np.ndarray
    theta_r: np.ndarray
    theta_final: np.ndarray
    grad_norm_at_r: float
    lambda_min_at_r: float
    evals_used: int
    wall_time_s: float


def run_crzon(cfg: CubicConfig) -> SospReport:
    """Run ``n_steps`` outer steps, or as many as the budget buys, and report
    a random iterate.

    Every step costs ``step_cost()``, so the count is fixed up front (the
    config has checked that the budget buys one).  The report index ``R``
    is drawn uniformly over the iterates before the loop, from a stream of
    its own, so the run keeps only ``theta_R`` and its last iterate.
    """
    start = time.perf_counter()
    steps = cfg.n_steps
    if cfg.budget is not None:
        steps = min(steps, cfg.budget // cfg.step_cost())
    alpha = cfg.alpha_value()

    init_rng, perturb_rng, noise_rng, select_rng = _spawn_streams(cfg.seed, 4)

    theta0 = _initial_theta(cfg.theta0, cfg.objective.dim, init_rng)
    oracle = BudgetedOracle(cfg.objective, cfg.noise, cfg.budget, noise_rng)

    r_index = int(select_rng.integers(1, steps + 1))
    theta = theta0
    for i in range(1, steps + 1):
        theta, _ = crzon_step(theta, oracle, cfg, perturb_rng)
        if i == r_index:
            theta_r = theta

    grad_norm = float("nan")
    lam_min = float("nan")
    if cfg.objective.gradient is not None:
        grad_norm = float(np.linalg.norm(cfg.objective.gradient(theta_r)))
    if cfg.objective.hessian is not None:
        lam_min = float(np.linalg.eigvalsh(cfg.objective.hessian(theta_r))[0])

    return SospReport(
        seed=cfg.seed,
        k=cfg.k,
        epsilon=cfg.epsilon,
        n_steps=cfg.n_steps,
        iterations=steps,
        m=cfg.m,
        b=cfg.b,
        delta=cfg.delta,
        alpha=alpha,
        r_index=r_index,
        theta_init=theta0,
        theta_r=theta_r,
        theta_final=theta,
        grad_norm_at_r=grad_norm,
        lambda_min_at_r=lam_min,
        evals_used=oracle.evals_used,
        wall_time_s=time.perf_counter() - start,
    )
