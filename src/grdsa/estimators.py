"""Gradient and Hessian estimators from measurements along random rays.

Every estimator goes through one probe, :func:`probe`, which measures the
objective at ``theta + (delta*s)*Delta`` for the shifts ``s = 0..n_shifts-1``
of each drawn direction ``Delta``.  The Hessian reduction reads all ``2k+1``
columns of that value matrix; the gradient reduction reads the first ``k+1``,
which is what measurement reuse exploits.  A single-draw estimate is the
one-row case; batch variants average independent single-draw estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import BudgetedOracle, Objective
from .perturb import (
    PerturbationSpec,
    apply_scaling,
    gradient_unbias_factor,
    scaling_matrices,
    scaling_matrix,
    scaling_norms,
)
from .stencils import grad_weights, hess_weights


class NonFiniteEvaluation(RuntimeError):
    """Raised when the oracle returns NaN or infinity."""


@dataclass(frozen=True)
class GradientEstimate:
    value: np.ndarray
    measurements_used: int
    k: int
    delta: float


@dataclass(frozen=True)
class HessianEstimate:
    value: np.ndarray
    measurements_used: int
    k1: int
    k2: int
    delta: float


def _check_inputs(theta: np.ndarray, direction: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if theta.ndim != 1:
        raise ValueError(f"theta must be 1-D, got shape {theta.shape}")
    if direction.shape != theta.shape:
        raise ValueError(
            f"direction shape {direction.shape} does not match theta shape {theta.shape}"
        )
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return theta, direction


def ray_offsets(directions: np.ndarray, delta, n_shifts: int) -> np.ndarray:
    """Offsets ``(delta*s)*directions[i]`` for ``s = 0..n_shifts-1``, shape ``(n, n_shifts, d)``.

    ``delta`` is one radius for every row or an ``(n,)`` array of per-row radii.
    """
    steps = np.reshape(delta, (-1, 1)) * np.arange(n_shifts, dtype=float)
    return steps[:, :, None] * directions[:, None, :]


def measure(oracle: BudgetedOracle, points: np.ndarray) -> np.ndarray:
    """Evaluate the ``(n, d)`` points in one oracle call; every value must be finite."""
    values = oracle.evaluate_many(points)
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        raise NonFiniteEvaluation("oracle returned a non-finite value")
    return values


def probe(
    oracle: BudgetedOracle,
    theta: np.ndarray,
    directions: np.ndarray,
    delta: float,
    n_shifts: int,
) -> np.ndarray:
    """Measure ``n_shifts`` points along each of the ``(n, d)`` directions.

    Returns the ``(n, n_shifts)`` matrix whose entry ``(i, s)`` is the
    oracle's value at ``theta + (delta*s)*directions[i]``.  The points are
    evaluated in one call, draw-major, and every value must be finite.
    """
    n = directions.shape[0]
    points = theta + ray_offsets(directions, delta, n_shifts)
    return measure(oracle, points.reshape(n * n_shifts, -1)).reshape(n, n_shifts)


def gradient_samples(
    values: np.ndarray,
    directions: np.ndarray,
    delta: float,
    k: int,
) -> np.ndarray:
    """One-draw gradient estimates from the first ``k+1`` probe columns.

    ``directions`` come already scaled by the unbiasing factor:
    ``gradient_unbias_factor(spec) * Delta``, so each estimate is that row
    times its directional slope.  ``values`` is one probe row with a
    ``(d,)`` direction, giving a ``(d,)`` estimate, or a probe matrix with
    ``(n, d)`` directions, giving ``(n, d)``.
    """
    slopes = values[..., : k + 1] @ grad_weights(k) / delta
    return directions * (slopes[:, None] if slopes.ndim else slopes)


def _quads(values: np.ndarray, delta: float, k1: int, k2: int | None) -> np.ndarray:
    """Second directional derivative per draw, from all ``k1+k2+1`` columns."""
    return values @ hess_weights(k1, k2) / delta**2


def hessian_samples(
    values: np.ndarray,
    scalers: np.ndarray,
    delta: float,
    k1: int,
    k2: int | None,
) -> np.ndarray:
    """One-draw Hessian estimates from the ``k1+k2+1`` probe columns.

    Each estimate is the draw's scaling matrix ``M(Delta)`` (from
    :func:`~grdsa.perturb.scaling_matrix` or ``scaling_matrices``) times
    its quadratic form.  One probe row with a ``(d, d)`` scaling gives a
    ``(d, d)`` estimate, ``n`` rows with ``(n, d, d)`` give ``(n, d, d)``.
    Each estimate is symmetric because its scaling matrix is.
    """
    quads = values @ hess_weights(k1, k2) / delta**2  # _quads, one call fewer per iteration
    return scalers * (quads[:, None, None] if quads.ndim else quads)


def hessian_mean(
    values: np.ndarray,
    directions: np.ndarray,
    delta: float,
    k1: int,
    k2: int | None,
    spec: PerturbationSpec,
) -> np.ndarray:
    """Mean of the one-draw Hessian estimates of a probe matrix in ``O(d**2)`` memory.

    The mean of ``M(Delta_i) q_i`` is ``M`` applied to the quadratic-form
    weighted outer-product mean, so no ``(n, d, d)`` stack is built.
    """
    quads = _quads(values, delta, k1, k2)
    outer_mean = directions.T @ (directions * quads[:, None]) / len(directions)
    return apply_scaling(spec, outer_mean, quads.mean())


def estimate_gradient(
    oracle: BudgetedOracle,
    theta: np.ndarray,
    direction: np.ndarray,
    delta: float,
    k: int,
    spec: PerturbationSpec,
) -> GradientEstimate:
    """One-draw gradient estimate of order ``k`` along ``direction``.

    Consumes ``k + 1`` measurements.
    """
    theta, direction = _check_inputs(theta, direction, delta)
    values = probe(oracle, theta, direction[None, :], delta, k + 1)[0]
    value = gradient_samples(values, gradient_unbias_factor(spec) * direction, delta, k)
    return GradientEstimate(value=value, measurements_used=k + 1, k=k, delta=delta)


def estimate_hessian(
    oracle: BudgetedOracle,
    theta: np.ndarray,
    direction: np.ndarray,
    delta: float,
    k1: int,
    k2: int | None = None,
    spec: PerturbationSpec | None = None,
) -> HessianEstimate:
    """One-draw Hessian estimate of orders ``(k1, k2)`` along ``direction``.

    Consumes ``k1 + k2 + 1`` measurements (``k2`` defaults to ``k1``).
    """
    theta, direction = _check_inputs(theta, direction, delta)
    if spec is None:
        raise ValueError("a PerturbationSpec is required to unbias the estimate")
    n_shifts = hess_weights(k1, k2).size
    values = probe(oracle, theta, direction[None, :], delta, n_shifts)[0]
    scaler = scaling_matrix(spec, direction)
    value = hessian_samples(values, scaler, delta, k1, k2)
    return HessianEstimate(
        value=value,
        measurements_used=n_shifts,
        k1=k1,
        k2=k1 if k2 is None else k2,
        delta=delta,
    )


def batch_gradient(
    oracle: BudgetedOracle,
    theta: np.ndarray,
    delta: float,
    k: int,
    m: int,
    spec: PerturbationSpec,
    rng: np.random.Generator,
    return_samples: bool = False,
) -> GradientEstimate | tuple[GradientEstimate, np.ndarray]:
    """Average of ``m`` independent one-draw gradient estimates.

    Draws all directions first, then evaluates the ``m * (k+1)`` points;
    with the same generator state this reproduces the sequential
    single-estimate loop exactly.
    """
    theta = np.asarray(theta, dtype=float)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    directions = spec.sample(rng, (m, theta.size))
    values = probe(oracle, theta, directions, delta, k + 1)
    samples = gradient_samples(values, gradient_unbias_factor(spec) * directions, delta, k)
    estimate = GradientEstimate(
        value=samples.mean(axis=0),
        measurements_used=m * (k + 1),
        k=k,
        delta=delta,
    )
    if return_samples:
        return estimate, samples
    return estimate


def batch_hessian(
    oracle: BudgetedOracle,
    theta: np.ndarray,
    delta: float,
    k: int,
    b: int,
    spec: PerturbationSpec,
    rng: np.random.Generator,
    return_samples: bool = False,
) -> HessianEstimate | tuple[HessianEstimate, np.ndarray]:
    """Average of ``b`` independent one-draw Hessian estimates (order ``k``).

    The average is formed in ``O(d**2)`` memory; only ``return_samples``
    stacks the ``b`` matrices.
    """
    theta = np.asarray(theta, dtype=float)
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    directions = spec.sample(rng, (b, theta.size))
    values = probe(oracle, theta, directions, delta, 2 * k + 1)
    estimate = HessianEstimate(
        value=hessian_mean(values, directions, delta, k, k, spec),
        measurements_used=b * (2 * k + 1),
        k1=k,
        k2=k,
        delta=delta,
    )
    if return_samples:
        scalers = scaling_matrices(spec, directions)
        return estimate, hessian_samples(values, scalers, delta, k, k)
    return estimate


def gradient_deviation(
    objective: Objective,
    theta: np.ndarray,
    delta: float,
    k: int,
    spec: PerturbationSpec,
    directions: np.ndarray,
    mode: str = "residual",
) -> float:
    """Truncation-error summary of the noiseless gradient estimator.

    With ``mode="residual"`` this averages, over the supplied directions,
    the norm of the difference between each one-draw estimate and its
    direction-conditional leading term ``factor * Delta (Delta . grad F)``;
    the average scales like ``delta**k``.  With ``mode="mean_bias"`` it
    returns the norm of (mean estimate - true gradient), which for symmetric
    direction laws decays at least one order faster because odd moments
    vanish.  Common random numbers across ``delta`` come from passing the
    same ``directions`` array.
    """
    if objective.gradient is None:
        raise ValueError("objective must provide an analytic gradient")
    theta = np.asarray(theta, dtype=float)
    directions = np.asarray(directions, dtype=float)
    values = probe(BudgetedOracle(objective), theta, directions, delta, k + 1)
    scaled = gradient_unbias_factor(spec) * directions
    estimates = gradient_samples(values, scaled, delta, k)

    grad = np.asarray(objective.gradient(theta), dtype=float)
    if mode == "residual":
        leading = scaled * (directions @ grad)[:, None]
        return float(np.linalg.norm(estimates - leading, axis=1).mean())
    if mode == "mean_bias":
        return float(np.linalg.norm(estimates.mean(axis=0) - grad))
    raise ValueError(f"unknown mode {mode!r}")


def hessian_deviation(
    objective: Objective,
    theta: np.ndarray,
    delta: float,
    k1: int,
    k2: int | None,
    spec: PerturbationSpec,
    directions: np.ndarray,
    mode: str = "residual",
) -> float:
    """Truncation-error summary of the noiseless Hessian estimator.

    Same protocol as :func:`gradient_deviation`; the leading term per draw
    is ``M(Delta) (Delta^T hess F Delta)`` and the residual average scales
    like ``delta**min(k1, k2)``.
    """
    if objective.hessian is None:
        raise ValueError("objective must provide an analytic Hessian")
    theta = np.asarray(theta, dtype=float)
    directions = np.asarray(directions, dtype=float)
    n_shifts = hess_weights(k1, k2).size
    values = probe(BudgetedOracle(objective), theta, directions, delta, n_shifts)

    hess = np.asarray(objective.hessian(theta), dtype=float)
    if mode == "residual":
        # |M(Delta) q - M(Delta) q*|_F = |q - q*| |M(Delta)|_F
        lead_quads = np.einsum("ni,ij,nj->n", directions, hess, directions)
        gaps = np.abs(_quads(values, delta, k1, k2) - lead_quads)
        return float((gaps * scaling_norms(spec, directions)).mean())
    if mode == "mean_bias":
        mean = hessian_mean(values, directions, delta, k1, k2, spec)
        return float(np.linalg.norm(mean - hess))
    raise ValueError(f"unknown mode {mode!r}")


def fit_loglog_slope(deltas: np.ndarray, deviations: np.ndarray) -> float:
    """Least-squares slope of log(deviation) against log(delta)."""
    deltas = np.asarray(deltas, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if deltas.size != deviations.size or deltas.size < 2:
        raise ValueError("need at least two (delta, deviation) pairs")
    if np.any(deviations <= 0):
        raise ValueError("deviations must be positive to fit a log-log slope")
    return float(np.polyfit(np.log(deltas), np.log(deviations), 1)[0])
