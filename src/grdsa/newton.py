"""Two-timescale projected stochastic Newton with averaged Hessian estimates.

Each iteration draws one direction, measures the objective at ``2k+1``
points along it, updates a running Hessian average on the faster timescale,
and moves the iterate against the clamped-Newton direction on the slower
one.  The gradient estimate reuses the first ``k+1`` Hessian measurements,
so an iteration costs exactly ``2k+1`` evaluations.  The gradient-only
baseline runs through the same driver with :func:`gradient_step`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .estimators import gradient_samples, hessian_samples, probe
from .oracle import (
    BudgetedOracle,
    BudgetTooSmall,
    LinearGaussianNoise,
    Objective,
    parameter_error,
)
from .perturb import PerturbationSpec, gaussian

#: iterates start uniform in this coordinate range unless overridden
INIT_RANGE = (2.0, 3.0)


@dataclass(frozen=True)
class Schedules:
    """Step-size and probing-radius sequences.

    ``a(n) = a0 / (n + A)**alpha`` drives the iterate, ``b(n) = b0 /
    (n + B)**beta`` drives the Hessian average, and ``delta(n) = delta0 /
    n**gamma`` shrinks the probing radius; ``n`` counts from 1.
    """

    a0: float = 0.9
    big_a: float = 20.0
    alpha: float = 0.9
    b0: float = 0.9
    big_b: float = 10.0
    beta: float = 0.56
    delta0: float = 0.9
    gamma: float = 0.16667

    def a(self, n: int) -> float:
        return self.a0 / (n + self.big_a) ** self.alpha

    def b(self, n: int) -> float:
        return self.b0 / (n + self.big_b) ** self.beta

    def delta(self, n: int) -> float:
        return self.delta0 / n**self.gamma


@dataclass(frozen=True)
class Finding:
    """One config check: stable id, severity, verdict, human message."""

    check: str
    severity: str  # "error" | "warning"
    ok: bool
    message: str


def validate_schedules(s: Schedules) -> list[Finding]:
    """Check the decaying-step conditions the convergence analysis needs.

    Errors are structural (non-positive coefficients or exponents).
    Warnings flag asymptotic conditions: both step sums must diverge, the
    iterate timescale must be slower than the averaging one, and the two
    noise-to-radius ratios must be square-summable.
    """
    findings: list[Finding] = []

    structural_ok = (
        s.a0 > 0 and s.b0 > 0 and s.delta0 > 0
        and s.alpha > 0 and s.beta > 0 and s.gamma > 0
        and s.big_a >= 0 and s.big_b >= 0
    )
    findings.append(
        Finding(
            check="positive_parameters",
            severity="error",
            ok=structural_ok,
            message=(
                "coefficients a0, b0, delta0 and exponents alpha, beta, gamma must be "
                "positive; offsets A, B must be nonnegative"
            ),
        )
    )
    if not structural_ok:
        return findings

    findings.append(
        Finding(
            check="a_sum_diverges",
            severity="warning",
            ok=s.alpha <= 1.0,
            message=f"sum a(n) requires alpha <= 1 (alpha = {s.alpha:.2f})",
        )
    )
    findings.append(
        Finding(
            check="b_sum_diverges",
            severity="warning",
            ok=s.beta <= 1.0,
            message=f"sum b(n) requires beta <= 1 (beta = {s.beta:.2f})",
        )
    )
    findings.append(
        Finding(
            check="timescale_separation",
            severity="warning",
            ok=s.alpha > s.beta,
            message=(
                f"a(n)/b(n) -> 0 requires alpha > beta "
                f"(alpha = {s.alpha:.2f}, beta = {s.beta:.2f})"
            ),
        )
    )
    grad_margin = 2.0 * (s.alpha - s.gamma)
    findings.append(
        Finding(
            check="a_delta_square_summable",
            severity="warning",
            ok=grad_margin > 1.0,
            message=(
                f"sum (a(n)/delta(n))^2 diverges "
                f"(2(alpha - gamma) = {grad_margin:.2f} <= 1)"
                if grad_margin <= 1.0
                else f"sum (a(n)/delta(n))^2 converges (2(alpha - gamma) = {grad_margin:.2f} > 1)"
            ),
        )
    )
    hess_margin = 2.0 * (s.beta - 2.0 * s.gamma)
    findings.append(
        Finding(
            check="b_delta_square_summable",
            severity="warning",
            ok=hess_margin > 1.0,
            message=(
                f"sum (b(n)/delta(n)^2)^2 diverges "
                f"(2(beta - 2 gamma) = {hess_margin:.2f} <= 1)"
                if hess_margin <= 1.0
                else f"sum (b(n)/delta(n)^2)^2 converges (2(beta - 2 gamma) = {hess_margin:.2f} > 1)"
            ),
        )
    )
    return findings


@dataclass(frozen=True)
class Box:
    """Coordinate-wise projection onto ``[lower, upper]^d``."""

    lower: float = -5.12
    upper: float = 5.12

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(f"empty box: [{self.lower}, {self.upper}]")

    def clip(self, theta: np.ndarray) -> np.ndarray:
        return np.clip(theta, self.lower, self.upper)


def theta_operator(h: np.ndarray, eps_pd: float = 0.1) -> np.ndarray:
    """Map a symmetric matrix to a positive-definite one.

    Symmetrizes, then lifts every eigenvalue below ``eps_pd`` up to
    ``eps_pd``; already well-conditioned matrices pass through unchanged.
    The inverse of the result has spectral norm at most ``1/eps_pd``.
    """
    if not eps_pd > 0:
        raise ValueError(f"eps_pd must be > 0, got {eps_pd}")
    h = np.asarray(h, dtype=float)
    sym = 0.5 * (h + h.T)
    eigval, eigvec = np.linalg.eigh(sym)
    lifted = np.maximum(eigval, eps_pd)
    return (eigvec * lifted) @ eigvec.T


def clamped_newton_direction(h: np.ndarray, g: np.ndarray, eps_pd: float = 0.1) -> np.ndarray:
    """Solve ``theta_operator(h) s = g`` through the eigendecomposition."""
    if not eps_pd > 0:
        raise ValueError(f"eps_pd must be > 0, got {eps_pd}")
    h = np.asarray(h, dtype=float)
    sym = 0.5 * (h + h.T)
    eigval, eigvec = np.linalg.eigh(sym)
    lifted = np.maximum(eigval, eps_pd)
    return eigvec @ ((eigvec.T @ g) / lifted)


@dataclass
class NewtonConfig:
    """Everything one run needs; ``seed`` determines all randomness."""

    objective: Objective
    budget: int
    k: int = 1
    noise: LinearGaussianNoise | None = None
    perturbation: PerturbationSpec = field(default_factory=gaussian)
    schedules: Schedules = field(default_factory=Schedules)
    box: Box = field(default_factory=Box)
    eps_pd: float = 0.1
    reuse: bool = True
    paper_literal_scaling: bool = False
    seed: int = 0
    theta0: np.ndarray | None = None
    record_stride: int = 1


@dataclass
class NewtonState:
    theta: np.ndarray
    hbar: np.ndarray
    n: int  # 1-based index of the next iteration


@dataclass
class RunRecord:
    """Outcome of one run, CSV-friendly."""

    algorithm: str
    seed: int
    k: int
    dim: int
    budget: int
    iterations: int
    evals_used: int
    theta_init: np.ndarray
    theta_final: np.ndarray
    final_parameter_error: float | None
    trajectory: np.ndarray
    wall_time_s: float


def iteration_cost(k: int, reuse: bool = True) -> int:
    """Measurements one Newton iteration consumes."""
    return 2 * k + 1 if reuse else (2 * k + 1) + (k + 1)


def newton_step(
    state: NewtonState,
    oracle: BudgetedOracle,
    cfg: NewtonConfig,
    rng: np.random.Generator,
) -> NewtonState:
    """Advance one iteration; on budget exhaustion the state is unchanged.

    The Hessian average moves first (fast timescale), then the iterate moves
    against the clamped-Newton direction (slow timescale) and is projected
    back into the box.
    """
    n = state.n
    k = cfg.k
    delta_n = cfg.schedules.delta(n)
    direction = cfg.perturbation.sample(rng, state.theta.size)
    rays = direction[None, :]

    values = probe(oracle, state.theta, rays, delta_n, 2 * k + 1)[0]
    hess = hessian_samples(
        values, direction, delta_n, k, k, cfg.perturbation, cfg.paper_literal_scaling
    )
    if not cfg.reuse:
        values = probe(oracle, state.theta, rays, delta_n, k + 1)[0]
    grad = gradient_samples(values, direction, delta_n, k, cfg.perturbation)

    hbar = state.hbar + cfg.schedules.b(n) * (hess - state.hbar)
    hbar = 0.5 * (hbar + hbar.T)
    step = clamped_newton_direction(hbar, grad, cfg.eps_pd)
    theta = cfg.box.clip(state.theta - cfg.schedules.a(n) * step)
    return NewtonState(theta=theta, hbar=hbar, n=n + 1)


def gradient_step(
    state: NewtonState,
    oracle: BudgetedOracle,
    cfg: NewtonConfig,
    rng: np.random.Generator,
) -> NewtonState:
    """Advance one gradient-only iteration of ``k+1`` evaluations.

    Same schedules and projection as :func:`newton_step`, with no Hessian:
    the iterate moves against the gradient estimate and ``hbar`` is passed
    through unchanged.
    """
    n = state.n
    delta_n = cfg.schedules.delta(n)
    direction = cfg.perturbation.sample(rng, state.theta.size)
    values = probe(oracle, state.theta, direction[None, :], delta_n, cfg.k + 1)[0]
    grad = gradient_samples(values, direction, delta_n, cfg.k, cfg.perturbation)
    theta = cfg.box.clip(state.theta - cfg.schedules.a(n) * grad)
    return NewtonState(theta=theta, hbar=state.hbar, n=n + 1)


def _spawn_streams(seed: int, n: int) -> list[np.random.Generator]:
    """Independent per-run streams: iterate init, directions, noise, then any
    extra ones a solver needs."""
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n)]


def _initial_theta(cfg_theta0: np.ndarray | None, dim: int, init_rng: np.random.Generator) -> np.ndarray:
    if cfg_theta0 is not None:
        theta0 = np.asarray(cfg_theta0, dtype=float)
        if theta0.shape != (dim,):
            raise ValueError(f"theta0 must have shape ({dim},), got {theta0.shape}")
        return theta0.copy()
    return init_rng.uniform(INIT_RANGE[0], INIT_RANGE[1], dim)


def _run(
    cfg: NewtonConfig, algorithm: str, step: Callable[..., NewtonState], cost: int
) -> RunRecord:
    """Apply ``step`` (``cost`` evaluations each) until the budget runs out."""
    start = time.perf_counter()
    if cfg.k < 1:
        raise ValueError(f"k must be >= 1, got {cfg.k}")
    if cfg.record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {cfg.record_stride}")
    if cfg.budget < cost:
        raise BudgetTooSmall(
            f"budget {cfg.budget} cannot afford one iteration ({cost} evaluations)"
        )

    dim = cfg.objective.dim
    init_rng, perturb_rng, noise_rng = _spawn_streams(cfg.seed, 3)
    theta0 = _initial_theta(cfg.theta0, dim, init_rng)
    oracle = BudgetedOracle(cfg.objective, cfg.noise, cfg.budget, noise_rng)

    state = NewtonState(theta=theta0.copy(), hbar=np.eye(dim), n=1)
    snapshots = [theta0.copy()]
    while oracle.remaining >= cost:
        state = step(state, oracle, cfg, perturb_rng)
        if (state.n - 1) % cfg.record_stride == 0:
            snapshots.append(state.theta.copy())
    iterations = state.n - 1
    if iterations % cfg.record_stride != 0:
        snapshots.append(state.theta.copy())

    error = None
    if cfg.objective.optimum is not None:
        error = parameter_error(state.theta, theta0, cfg.objective.optimum)
    return RunRecord(
        algorithm=algorithm,
        seed=cfg.seed,
        k=cfg.k,
        dim=dim,
        budget=cfg.budget,
        iterations=iterations,
        evals_used=oracle.evals_used,
        theta_init=theta0,
        theta_final=state.theta.copy(),
        final_parameter_error=error,
        trajectory=np.asarray(snapshots),
        wall_time_s=time.perf_counter() - start,
    )


def run_newton(cfg: NewtonConfig) -> RunRecord:
    """Run until the next iteration no longer fits in the budget."""
    return _run(cfg, "newton", newton_step, iteration_cost(cfg.k, cfg.reuse))


def run_first_order(cfg: NewtonConfig) -> RunRecord:
    """Gradient-only baseline: same schedules and projection, no Hessian.

    Each iteration costs ``k+1`` evaluations.
    """
    return _run(cfg, "gradient_only", gradient_step, cfg.k + 1)
