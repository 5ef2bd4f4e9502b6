"""Two-timescale projected stochastic Newton with averaged Hessian estimates.

Each iteration draws one direction, measures the objective at ``2k+1``
points along it, updates a running Hessian average on the faster timescale,
and moves the iterate against the clamped-Newton direction on the slower
one.  The gradient estimate reuses the first ``k+1`` Hessian measurements,
so an iteration costs exactly ``2k+1`` evaluations; without reuse the same
oracle call measures them again, at ``3k+2``.  The gradient-only baseline
runs through the same driver and step without the Hessian, at ``k+1``.

One generator, :func:`_iterations`, runs the iteration for either
algorithm.  It draws what the iterations need that does not depend on the
iterate (directions, radii, probe offsets, scaling matrices) a block at a
time, and yields the iterate after every iteration.  :func:`run_newton`,
the one way to run it, keeps the last iterate of a whole budget.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import eigh_lo

try:  # numpy >= 2; numpy.core warns there
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip as _clip

from .estimators import _check_finite_values, ray_offsets
from .oracle import (
    BLOCK_FLOATS,
    BudgetedOracle,
    BudgetTooSmall,
    LinearGaussianNoise,
    Objective,
    _check_integer,
    parameter_error,
)
from .perturb import PerturbationSpec, gaussian, gradient_unbias_factor, scaling_matrices
from .stencils import _check_order, grad_weights, hess_weights

#: iterates start uniform in this coordinate range unless overridden
INIT_RANGE = (2.0, 3.0)


def _check_finite(**values: float) -> None:
    """Raise naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Schedules:
    """Step-size and probing-radius sequences.

    ``a(n) = a0 / (n + A)**alpha`` drives the iterate, ``b(n) = b0 /
    (n + B)**beta`` drives the Hessian average, and ``delta(n) = delta0 /
    n**gamma`` shrinks the probing radius; ``n`` counts from 1.  The
    coefficients and exponents must be positive and the offsets
    nonnegative, and all of them finite.
    """

    a0: float = 0.9
    big_a: float = 20.0
    alpha: float = 0.9
    b0: float = 0.9
    big_b: float = 10.0
    beta: float = 0.56
    delta0: float = 0.9
    gamma: float = 0.16667

    def __post_init__(self) -> None:
        for name in ("a0", "alpha", "b0", "beta", "delta0", "gamma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("big_a", "big_b"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        _check_finite(**asdict(self))

    def _over(self, ns: range) -> tuple[array, array, array]:
        """``a(n)``, ``b(n)`` and ``delta(n)`` for each ``n`` of ``ns``, in one
        pass that reads the coefficients once.

        Python float arithmetic, as ``np.power`` does not round as ``**``
        does; the values are kept as raw doubles, a third of their size as
        float objects.
        """
        a0, big_a, alpha, b0, big_b, beta = (
            self.a0, self.big_a, self.alpha, self.b0, self.big_b, self.beta
        )
        delta0, gamma = self.delta0, self.gamma
        a, b, delta = array("d"), array("d"), array("d")
        for n in ns:
            a.append(a0 / (n + big_a) ** alpha)
            b.append(b0 / (n + big_b) ** beta)
            delta.append(delta0 / n**gamma)
        return a, b, delta


@dataclass(frozen=True)
class Finding:
    """One config check: stable id, severity, verdict, human message."""

    check: str
    severity: str  # "error" | "warning"
    ok: bool
    message: str


def validate_schedules(s: Schedules) -> list[Finding]:
    """Check the asymptotic conditions the convergence analysis needs.

    Both step sums must diverge, the iterate timescale must be slower than
    the averaging one, and the two noise-to-radius ratios must be
    square-summable.  Each is a warning; the signs are checked when
    :class:`Schedules` is built.
    """
    grad_margin = 2.0 * (s.alpha - s.gamma)
    hess_margin = 2.0 * (s.beta - 2.0 * s.gamma)
    grad_sum, grad_cmp = ("converges", ">") if grad_margin > 1.0 else ("diverges", "<=")
    hess_sum, hess_cmp = ("converges", ">") if hess_margin > 1.0 else ("diverges", "<=")
    rules = [
        ("a_sum_diverges", s.alpha <= 1.0,
         f"sum a(n) requires alpha <= 1 (alpha = {s.alpha:.2f})"),
        ("b_sum_diverges", s.beta <= 1.0,
         f"sum b(n) requires beta <= 1 (beta = {s.beta:.2f})"),
        ("timescale_separation", s.alpha > s.beta,
         f"a(n)/b(n) -> 0 requires alpha > beta (alpha = {s.alpha:.2f}, beta = {s.beta:.2f})"),
        ("a_delta_square_summable", grad_margin > 1.0,
         f"sum (a(n)/delta(n))^2 {grad_sum} "
         f"(2(alpha - gamma) = {grad_margin:.2f} {grad_cmp} 1)"),
        ("b_delta_square_summable", hess_margin > 1.0,
         f"sum (b(n)/delta(n)^2)^2 {hess_sum} "
         f"(2(beta - 2 gamma) = {hess_margin:.2f} {hess_cmp} 1)"),
    ]
    return [Finding(check, "warning", ok, message) for check, ok, message in rules]


@dataclass(frozen=True)
class Box:
    """Bounds of the coordinate-wise projection onto ``[lower, upper]^d``.

    Both bounds must be finite: a half-line is a closed convex set that
    the projection handles exactly, but the projected scheme's analysis
    rests on a compact constraint set, so an infinite bound is rejected
    as a config error rather than run without that guarantee.

    The projection is one call of numpy's ``clip`` ufunc.  When neither
    bound is zero it equals ``np.minimum(np.maximum(x, lower), upper)`` bit
    for bit, NaN, infinities and signed zeros included.  A zero bound
    differs in the sign of a zero: ``clip`` keeps a ``-0.0`` coordinate
    inside ``Box(0.0, 1.0)``, where max-then-min gives ``+0.0``.  A run's
    ``theta - step`` is ``-0.0`` only where ``theta`` already was and the
    step is ``+0.0``.
    """

    lower: float = -5.12
    upper: float = 5.12

    def __post_init__(self) -> None:
        _check_finite(lower=self.lower, upper=self.upper)
        if not self.lower < self.upper:
            raise ValueError(f"empty box: [{self.lower}, {self.upper}]")


def _lifted_solve(sym: np.ndarray, g: np.ndarray, eps_pd: float) -> np.ndarray:
    """``V @ ((V.T @ g) / max(w, eps_pd))`` for the eigenpairs ``(w, V)`` of ``sym``.

    The clamped-Newton direction: every eigenvalue below ``eps_pd`` is lifted
    to it, so the step is at most ``|g| / eps_pd`` long.

    Calls the LAPACK gufunc behind ``np.linalg.eigh`` directly, with the
    same bits and without its per-call checks.  When LAPACK fails, the
    gufunc fills every output with NaN, so a NaN eigenvalue raises eigh's
    own error here.  Unlike eigh, this also raises when a non-finite
    ``sym`` gives NaN eigenvalues.
    """
    eigval, eigvec = eigh_lo(sym, signature="d->dd")
    if math.isnan(eigval[0]):
        raise LinAlgError("Eigenvalues did not converge")
    # ndarray.dot: the same BLAS mat-vecs as ``@`` at a lower call overhead;
    # the clamp and the division reuse the gufunc's fresh outputs
    c = eigvec.T.dot(g)
    c /= np.maximum(eigval, eps_pd, out=eigval)
    return eigvec.dot(c)


@dataclass(frozen=True)
class NewtonConfig:
    """Everything one run needs; ``seed`` determines all randomness.

    Frozen, so the checks made when it is built hold for every run of it."""

    objective: Objective
    budget: int = 1000
    k: int = 1
    noise: LinearGaussianNoise | None = None
    perturbation: PerturbationSpec = field(default_factory=gaussian)
    schedules: Schedules = field(default_factory=Schedules)
    box: Box = field(default_factory=Box)
    eps_pd: float = 0.1
    reuse: bool = True
    seed: int = 0
    theta0: np.ndarray | None = None
    algorithm: str = "newton"  # or "gradient_only": no Hessian, k+1 evaluations

    def __post_init__(self) -> None:
        _check_order(self.k, "k")
        _check_integer(budget=self.budget)
        if not self.eps_pd > 0:
            raise ValueError(f"eps_pd must be > 0, got {self.eps_pd}")
        _check_finite(eps_pd=self.eps_pd)
        _check_run(self.seed, self.theta0, self.objective)
        # a run's parameter error is normalized by theta0's distance to the optimum
        if self.theta0 is not None and self.objective.optimum is not None:
            start = np.asarray(self.theta0, dtype=float)
            if np.sum((start - self.objective.optimum) ** 2) == 0.0:
                raise ValueError(
                    f"theta0 must be away from the objective's optimum, "
                    f"got {start.tolist()}"
                )
        if self.algorithm not in ("newton", "gradient_only"):
            raise ValueError(
                f"algorithm must be one of newton, gradient_only, got {self.algorithm!r}"
            )
        hessian = self.algorithm == "newton"
        cost = iteration_cost(self.k, self.reuse, hessian)
        if self.budget < cost:
            raise BudgetTooSmall(
                f"budget {self.budget} cannot afford one iteration ({cost} evaluations)"
            )
        # a(n), b(n) and delta(n) are monotone in n, so the last iteration is the extreme one
        last = self.budget // cost
        try:
            delta = self.schedules._over(range(last, last + 1))[2][0]
        except OverflowError as exc:
            raise ValueError(f"schedules overflow at iteration {last}") from exc
        if (delta * delta if hessian else delta) == 0.0:
            raise ValueError(
                f"schedules underflow at iteration {last}: delta = {delta!r}, "
                f"and a run divides by delta{'**2' if hessian else ''}"
            )


def _check_run(seed: int, theta0: np.ndarray | None, objective: Objective) -> None:
    _check_integer(seed=seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if theta0 is not None and np.shape(theta0) != (objective.dim,):
        raise ValueError(f"theta0 must have shape ({objective.dim},), got {np.shape(theta0)}")
    if theta0 is not None and not np.isfinite(theta0).all():
        raise ValueError(f"theta0 must be finite, got {np.asarray(theta0).tolist()}")


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
    wall_time_s: float


def iteration_cost(k: int, reuse: bool = True, hessian: bool = True) -> int:
    """Measurements one iteration consumes: ``2k+1`` for Newton, ``k+1`` more
    without reuse; ``k+1`` for the gradient-only baseline (no Hessian)."""
    return (2 * k + 1 if reuse else 3 * k + 2) if hessian else k + 1


def _block_rows(cfg: NewtonConfig) -> int:
    """Iterations of ``cfg`` whose draws fit in :data:`~grdsa.oracle.BLOCK_FLOATS`
    floats, and at least one: per iteration, the ``cost`` probe offsets and
    the direction (``d`` floats each), Newton's ``(d, d)`` scaling matrix,
    and the three schedule values."""
    hessian = cfg.algorithm == "newton"
    d = cfg.objective.dim
    floats = (iteration_cost(cfg.k, cfg.reuse, hessian) + 1) * d + (d * d if hessian else 0) + 3
    return max(1, BLOCK_FLOATS // floats)


def _iterations(
    theta: np.ndarray,
    hbar: np.ndarray,
    oracle: BudgetedOracle,
    cfg: NewtonConfig,
    rng: np.random.Generator,
    count: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Run iterations ``1 .. count`` of ``cfg.algorithm`` from ``(theta,
    hbar)``, yielding the pair after every iteration.

    Each iteration makes one oracle call of ``iteration_cost`` points along
    one direction.  Newton's holds shifts ``0..2k`` (then ``0..k`` again
    without reuse, for the gradient) and moves the Hessian average first
    (fast timescale), then the iterate against the clamped-Newton direction
    (slow timescale).  Gradient-only's holds shifts ``0..k``; it moves the
    iterate against the gradient estimate and passes ``hbar`` through.
    Either way the iterate is projected back into the box.

    The direction stream feeds nothing else, so the inputs that do not
    depend on the iterate (directions, probe offsets, scaling matrices and
    step sizes) are drawn a block of :func:`_block_rows` iterations at a
    time, about :data:`~grdsa.oracle.BLOCK_FLOATS` floats.  One bulk
    draw equals as many one-direction draws bit for bit, so the block size
    cannot change a run.  Newton's scaling matrices are built first, so
    their temporaries are freed before the offsets exist; the offsets are
    one shift-major ``ray_offsets`` call over the call's shifts, with the
    radii as an ``(n, 1)`` view of the schedule's doubles, and iteration
    ``i`` reads ``offsets[:, i]``.  The directions, once read, are scaled
    in place by the gradient's unbiasing factor.  A spent block
    is released before the next is drawn, so a run peaks at about one block
    of draws plus its own ``(d, d)`` arrays.

    The estimator reductions and the projection are written inline, with
    everything the iterations read bound once per block; the projection is
    one ``clip`` ufunc call (see :class:`Box`).  Every measured value enters
    a stencil dot the iteration takes anyway, the Hessian's or the
    gradient's, and a NaN or infinite value makes that dot non-finite; so
    only a non-finite dot scans the call, and a non-finite value raises
    :class:`~grdsa.estimators.NonFiniteEvaluation`, naming the first bad
    point, before ``hbar`` or the iterate moves: without reuse, after all
    ``3k+2`` points are charged, even for a bad value among the Hessian's
    shifts.  ``hbar`` is never symmetrized: it must be symmetric, as a run's
    is (it starts at the identity and every sample ``M(Delta) q`` is exactly
    symmetric, so every average is too), and the eigensolve reads its lower
    triangle only.
    """
    k, s, spec = cfg.k, cfg.schedules, cfg.perturbation
    hessian = cfg.algorithm == "newton"
    n_shifts = 2 * k + 1 if hessian else k + 1
    grad_start = n_shifts if hessian and not cfg.reuse else 0
    grad_stop = grad_start + k + 1
    shifts = [*range(n_shifts), *range(k + 1 if grad_start else 0)]
    grad_w = grad_weights(k)
    hess_w = hess_weights(k, k) if hessian else None
    rows = _block_rows(cfg)
    for first in range(1, count + 1, rows):
        a, b, deltas = s._over(range(first, min(first + rows, count + 1)))
        directions = spec.sample(rng, (len(deltas), theta.size))
        scalers = scaling_matrices(spec, directions) if hessian else None
        offsets = ray_offsets(directions, np.frombuffer(deltas)[:, None], shifts)
        directions *= gradient_unbias_factor(spec)
        # 0-d arrays: a ufunc converts a Python float operand on every call
        lower, upper = np.array(cfg.box.lower), np.array(cfg.box.upper)
        eps_pd = np.array(cfg.eps_pd)
        # looked up per block, so a wrapper installed on the class is called
        evaluate = oracle.evaluate_many
        for i, delta in enumerate(deltas):
            points = theta + offsets[:, i]
            values = evaluate(points)
            slope = values[grad_start:grad_stop].dot(grad_w)
            quad = values[:n_shifts].dot(hess_w) if hessian else 0.0
            # not isfinite(slope + quad): inf + -inf warns, and warnings raise
            if not (math.isfinite(slope) and math.isfinite(quad)):
                _check_finite_values(values, points)
            step = directions[i] * (slope / delta)
            if hessian:
                hess = scalers[i] * (quad / delta**2)
                # hbar + b(n) (hess - hbar), in the sample's own array
                hess -= hbar
                hess *= b[i]
                hess += hbar
                hbar = hess
                step = _lifted_solve(hbar, step, eps_pd)
            # step is a fresh array each iteration: project into it
            step *= a[i]
            np.subtract(theta, step, step)
            theta = _clip(step, lower, upper, step)
            yield theta, hbar
        del a, b, deltas, directions, offsets, scalers, points, values, slope, step


def _spawn_streams(seed: int, n: int) -> list[np.random.Generator]:
    """Independent per-run streams: iterate init, directions, noise, then any
    extra ones a solver needs."""
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n)]


def _initial_theta(cfg_theta0: np.ndarray | None, dim: int, init_rng: np.random.Generator) -> np.ndarray:
    if cfg_theta0 is not None:
        return np.array(cfg_theta0, dtype=float)
    return init_rng.uniform(INIT_RANGE[0], INIT_RANGE[1], dim)


def run_newton(cfg: NewtonConfig) -> RunRecord:
    """Run ``cfg.algorithm`` for ``budget // cost`` iterations of
    :func:`_iterations`.

    A run keeps only its last iterate, so it holds one block of draws,
    whatever its budget.
    """
    start = time.perf_counter()
    cost = iteration_cost(cfg.k, cfg.reuse, cfg.algorithm == "newton")

    dim = cfg.objective.dim
    init_rng, perturb_rng, noise_rng = _spawn_streams(cfg.seed, 3)
    theta0 = _initial_theta(cfg.theta0, dim, init_rng)
    oracle = BudgetedOracle(cfg.objective, cfg.noise, cfg.budget, noise_rng)

    # every iteration costs exactly `cost`, so the count is known up front
    # (the config has checked that the budget buys one)
    iterations = cfg.budget // cost
    for theta, _ in _iterations(theta0, np.eye(dim), oracle, cfg, perturb_rng, iterations):
        pass

    error = None
    if cfg.objective.optimum is not None:
        error = parameter_error(theta, theta0, cfg.objective.optimum)
    return RunRecord(
        algorithm=cfg.algorithm,
        seed=cfg.seed,
        k=cfg.k,
        dim=dim,
        budget=cfg.budget,
        iterations=iterations,
        evals_used=oracle.evals_used,
        theta_init=theta0,
        theta_final=theta,
        final_parameter_error=error,
        wall_time_s=time.perf_counter() - start,
    )
