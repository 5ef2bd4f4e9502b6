"""Gradient and Hessian estimators from measurements along random rays.

Every estimator goes through one probe, :func:`probe`, which measures the
objective at ``theta + (delta*s)*Delta`` for the shifts ``s = 0..n_shifts-1``
of each drawn direction ``Delta``, streaming the points through the oracle
in blocks of directions.  Shift 0 is ``theta`` on every ray, so each block
goes through the oracle's ray form: the objective reads ``theta`` once and
the off-center points once, and every point still draws its own noise and
costs one unit of budget.  The Hessian reduction reads all ``2k+1``
columns of that value matrix; the gradient reduction reads the first ``k+1``,
which is what measurement reuse exploits.  :func:`batch_gradient` and
:func:`batch_hessian` average the one-draw estimates along directions the
caller has drawn, through :func:`gradient_mean` and :func:`hessian_mean`; a
single draw is the one-row call.  A caller that needs the draws themselves
reduces a probe with :func:`gradient_samples` or :func:`hessian_samples`.
"""

from __future__ import annotations

import math

import numpy as np

from .oracle import BLOCK_FLOATS, BudgetedOracle, Objective
from .perturb import (
    PerturbationSpec,
    apply_scaling,
    gradient_unbias_factor,
    scaling_norms,
)
from .stencils import grad_weights, hess_weights


class NonFiniteEvaluation(RuntimeError):
    """Raised when the oracle returns NaN or infinity."""


def _check_inputs(theta, directions) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    directions = np.asarray(directions, dtype=float)
    if theta.ndim != 1:
        raise ValueError(f"theta must be 1-D, got shape {theta.shape}")
    if directions.ndim != 2 or len(directions) < 1 or directions.shape[1] != theta.size:
        raise ValueError(
            f"directions must have shape (n >= 1, {theta.size}), got {directions.shape}"
        )
    if not _all_finite(directions):
        row = np.flatnonzero(~np.isfinite(directions).all(axis=1))[0]
        raise ValueError(f"directions must be finite, got row {row}: {directions[row].tolist()}")
    return theta, directions


def ray_offsets(directions: np.ndarray, delta, shifts) -> np.ndarray:
    """Offsets ``(delta*s)*directions`` shift-major, ``(len(shifts), n, d)``, as
    the oracle's ray form reads them.  ``delta`` is one
    radius, fastest as a Python float, or an ``(n, 1)`` column of per-row
    radii; a 1-D radius raises, as it would broadcast across the columns.

    Each shift's product is formed in its slice of the result.  A column is
    copied across the slice, then multiplied by ``s`` and by the directions
    in place: the broadcast form's two roundings, without the hidden buffer
    numpy gives a broadcast operand or a ``delta*s`` temporary."""
    ndim = np.ndim(delta)
    if ndim == 1:
        raise ValueError(f"delta must be a scalar or an (n, 1) column, got {np.shape(delta)}")
    offsets = np.empty((len(shifts), *directions.shape))
    for j, s in enumerate(shifts):
        if ndim:
            out = offsets[j]
            np.copyto(out, delta)
            np.multiply(out, s, out=out)
            np.multiply(out, directions, out=out)
        else:
            np.multiply(delta * s, directions, out=offsets[j])
    return offsets


def _all_finite(values: np.ndarray) -> bool:
    # an exact scan: a bool array's bytes hold a zero exactly where isfinite failed
    return b"\x00" not in np.isfinite(values).tobytes()


def _check_finite_values(values: np.ndarray, points: np.ndarray) -> None:
    """Raise :class:`NonFiniteEvaluation` naming the first non-finite value and its point."""
    if not _all_finite(values):
        bad = np.flatnonzero(~np.isfinite(values))[0]
        raise NonFiniteEvaluation(
            f"oracle returned a non-finite value ({values[bad]}) at {points[bad].tolist()}"
        )


def probe(
    oracle: BudgetedOracle,
    theta: np.ndarray,
    directions: np.ndarray,
    delta: float,
    n_shifts: int,
) -> np.ndarray:
    """Measure ``n_shifts`` points along each of the ``(n, d)`` directions.

    Returns the ``(n, n_shifts)`` matrix whose entry ``(i, s)`` is the
    oracle's value at ``theta + (delta*s)*directions[i]``, and every value
    must be finite.  The points go to the oracle in blocks of consecutive
    directions, in its ray form: shift 0 is ``theta`` itself on every ray,
    so a block holds only the off-center shifts ``1..n_shifts-1``, from
    :func:`ray_offsets`, and the objective reads ``theta`` once per
    block.  A block is sized as ``n_shifts`` points per direction, about
    :data:`BLOCK_FLOATS` floats, so a probe holds its values plus
    ``(n_shifts-1)/n_shifts`` of a block and the objective's temporaries for
    it, not all ``n * n_shifts * d`` points.  The whole cost, ``theta``
    included once per ray, is checked against the budget before the first
    block, so a probe is all-or-nothing on budget (a non-finite value raises
    after its block is charged).  Each point, ``theta`` on each ray too,
    draws its own noise in ray-by-ray order, so for an objective whose rows
    keep the bits of their own calls, as every objective in
    :mod:`grdsa.oracle` does, the values equal one ray-by-ray flat call's.
    ``n_shifts``, ``delta`` (positive and finite) and ``theta`` (finite) are
    checked before anything is charged.
    """
    if isinstance(n_shifts, bool) or not isinstance(n_shifts, (int, np.integer)) or n_shifts < 1:
        raise ValueError(f"n_shifts must be an integer >= 1, got {n_shifts!r}")
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if not _all_finite(theta):
        raise ValueError(f"theta must be finite, got {np.asarray(theta).tolist()}")
    n, d = directions.shape
    oracle.check_affords(n * n_shifts)
    rows = max(1, BLOCK_FLOATS // (n_shifts * d))
    values = np.empty((n, n_shifts))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        points = ray_offsets(directions[block], delta, range(1, n_shifts))
        points += theta
        # no name holds the oracle's result, so it is freed before the next block
        values[block] = oracle.evaluate_many(points, center=theta).reshape(-1, n_shifts)
        if not _all_finite(values[block]):
            # every shift, theta at shift 0, ray by ray, only to name the bad point
            points = ray_offsets(directions[block], delta, range(n_shifts)) + theta
            _check_finite_values(values[block].ravel(), points.swapaxes(0, 1).reshape(-1, d))
    return values


def gradient_slopes(values: np.ndarray, delta: float, k: int) -> np.ndarray:
    """Directional slope per draw, from the first ``k+1`` probe columns."""
    return values[..., : k + 1] @ grad_weights(k) / delta


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
    ``(n, d)`` directions, giving ``(n, d)``.  The inputs are not modified.
    """
    slopes = gradient_slopes(values, delta, k)
    return directions * (slopes[:, None] if slopes.ndim else slopes)


def gradient_mean(
    values: np.ndarray,
    directions: np.ndarray,
    delta: float,
    k: int,
    spec: PerturbationSpec,
) -> np.ndarray:
    """Mean of the one-draw gradient estimates of a probe matrix, in ``O(n + d)``.

    The mean of ``factor * Delta_i * s_i`` over the ``(n, d)`` directions is
    ``factor * D^T s / n``: one matrix-vector product with the slopes, so
    no ``(n, d)`` array of draws is built.
    """
    factor = gradient_unbias_factor(spec) / len(directions)
    return directions.T @ gradient_slopes(values, delta, k) * factor


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

    Each estimate is the draw's scaling matrix ``M(Delta)`` (a row of
    :func:`~grdsa.perturb.scaling_matrices`) times its quadratic form.  One
    probe row with a ``(d, d)`` scaling gives a ``(d, d)`` estimate, ``n``
    rows with ``(n, d, d)`` give ``(n, d, d)``.
    Each estimate is symmetric because its scaling matrix is.
    """
    quads = _quads(values, delta, k1, k2)
    return scalers * (quads[:, None, None] if quads.ndim else quads)


def hessian_mean(
    values: np.ndarray,
    directions: np.ndarray,
    delta: float,
    k1: int,
    k2: int | None,
    spec: PerturbationSpec,
) -> np.ndarray:
    """Mean of the one-draw Hessian estimates of a probe matrix, in one block plus ``O(d**2)``.

    The mean of ``M(Delta_i) q_i`` is ``M`` applied to the quadratic-form
    weighted outer-product mean, so no ``(n, d, d)`` stack is built.  That
    sum ``D^T (D * q)`` is taken over blocks of ``max(1, BLOCK_FLOATS // d)``
    consecutive rows, in row order: the first block's product is assigned
    and each later one's added, so beyond its inputs the function holds one
    block of weighted directions, not a second ``(n, d)`` array.  A batch of
    one block is one matmul.  The product rounds asymmetrically, so the
    mean is returned as its symmetric part ``(H + H^T) / 2``: exactly
    symmetric, as each draw's estimate is.
    """
    quads = _quads(values, delta, k1, k2)
    n, d = directions.shape
    rows = max(1, BLOCK_FLOATS // d)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        # repeated, then scaled: directions * quads[:, None] would allocate a hidden buffer
        weighted = np.repeat(quads[block], d).reshape(-1, d)
        weighted *= directions[block]
        if start == 0:
            outer_mean = directions[block].T @ weighted
        else:
            outer_mean += directions[block].T @ weighted
        del weighted  # spent before the next block is built
    outer_mean /= n
    mean = apply_scaling(spec, outer_mean, quads.mean())
    return 0.5 * (mean + mean.T)


def batch_gradient(
    oracle: BudgetedOracle,
    theta: np.ndarray,
    directions: np.ndarray,
    delta: float,
    k: int,
    spec: PerturbationSpec,
) -> np.ndarray:
    """Mean of the order-``k`` one-draw gradient estimates along ``(n, d)`` directions.

    Consumes ``n * (k + 1)`` measurements, streamed by :func:`probe`.
    """
    theta, directions = _check_inputs(theta, directions)
    values = probe(oracle, theta, directions, delta, k + 1)
    return gradient_mean(values, directions, delta, k, spec)


def batch_hessian(
    oracle: BudgetedOracle,
    theta: np.ndarray,
    directions: np.ndarray,
    delta: float,
    k1: int,
    k2: int | None,
    spec: PerturbationSpec,
) -> np.ndarray:
    """Mean of the order-``(k1, k2)`` one-draw Hessian estimates along ``(n, d)`` directions.

    Consumes ``n * (k1 + k2 + 1)`` measurements, streamed by :func:`probe`
    (``k2`` None means ``k1``); the mean is :func:`hessian_mean`, in one
    block plus ``O(d**2)`` memory beyond the directions and values.
    """
    theta, directions = _check_inputs(theta, directions)
    values = probe(oracle, theta, directions, delta, hess_weights(k1, k2).size)
    return hessian_mean(values, directions, delta, k1, k2, spec)


def _check_mode(mode: str) -> None:
    if mode not in ("residual", "mean_bias"):
        raise ValueError(f"mode must be one of residual, mean_bias, got {mode!r}")


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
    returns the norm of (mean estimate - true gradient).  For symmetric
    direction laws the odd moments vanish, so the bias of the mean decays
    like ``delta**(2*ceil(k/2))``: one order faster than the residual for
    odd ``k``, none for even ``k`` (k = 1 and k = 2 share order 2).  That
    norm also carries the Monte Carlo error of the directions' mean, which
    floors it at a finite sample size.  Common random numbers across
    ``delta`` come from passing the same ``directions`` array.
    """
    _check_mode(mode)
    if objective.gradient is None:
        raise ValueError("objective must provide an analytic gradient")
    theta, directions = _check_inputs(theta, directions)
    values = probe(BudgetedOracle(objective), theta, directions, delta, k + 1)

    grad = np.asarray(objective.gradient(theta), dtype=float)
    if mode == "residual":
        scaled = gradient_unbias_factor(spec) * directions
        estimates = gradient_samples(values, scaled, delta, k)
        leading = scaled * (directions @ grad)[:, None]
        return float(np.linalg.norm(estimates - leading, axis=1).mean())
    return float(np.linalg.norm(gradient_mean(values, directions, delta, k, spec) - grad))


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
    _check_mode(mode)
    if objective.hessian is None:
        raise ValueError("objective must provide an analytic Hessian")
    theta, directions = _check_inputs(theta, directions)
    n_shifts = hess_weights(k1, k2).size
    values = probe(BudgetedOracle(objective), theta, directions, delta, n_shifts)

    hess = np.asarray(objective.hessian(theta), dtype=float)
    if mode == "residual":
        # |M(Delta) q - M(Delta) q*|_F = |q - q*| |M(Delta)|_F
        lead_quads = np.einsum("ni,ij,nj->n", directions, hess, directions)
        gaps = np.abs(_quads(values, delta, k1, k2) - lead_quads)
        return float((gaps * scaling_norms(spec, directions)).mean())
    mean = hessian_mean(values, directions, delta, k1, k2, spec)
    return float(np.linalg.norm(mean - hess))


def fit_loglog_slope(deltas: np.ndarray, deviations: np.ndarray) -> float:
    """Least-squares slope of log(deviation) against log(delta), over two or
    more distinct radii; deltas and deviations must be positive and finite."""
    deltas = np.asarray(deltas, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if deltas.size != deviations.size or deltas.size < 2:
        raise ValueError("need at least two (delta, deviation) pairs")
    for name, values in (("deltas", deltas), ("deviations", deviations)):
        if not np.all((values > 0) & (values < np.inf)):
            raise ValueError(f"{name} must be positive and finite, got {values.tolist()}")
    if deltas.min() == deltas.max():
        raise ValueError(f"need at least two distinct deltas, got {deltas.tolist()}")
    return float(np.polyfit(np.log(deltas), np.log(deviations), 1)[0])
