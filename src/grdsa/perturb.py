"""Perturbation-direction families and their moment-matched scaling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAUSSIAN = "gaussian"
UNIFORM = "uniform"


@dataclass(frozen=True)
class PerturbationSpec:
    """Distribution of one coordinate of the direction vector.

    Components are drawn i.i.d., zero-mean and symmetric: standard normal, or
    uniform on ``[-eta, eta]``.  ``mu2`` and ``mu4`` are the second and
    fourth moments used to unbias the gradient and Hessian estimators; the
    strict inequality ``mu4 > mu2**2`` (true for both families) keeps the
    diagonal scaling well defined.  ``paper_literal_scaling`` selects the
    unhalved Hessian scaling instead of the moment-matched one (see
    :func:`_form`).
    """

    family: str
    eta: float = 1.0
    paper_literal_scaling: bool = False

    def __post_init__(self) -> None:
        if self.family not in (GAUSSIAN, UNIFORM):
            raise ValueError(f"unknown perturbation family {self.family!r}")
        if self.family == UNIFORM and not self.eta > 0:
            raise ValueError(f"uniform half-width eta must be > 0, got {self.eta}")
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")

    @property
    def mu2(self) -> float:
        if self.family == GAUSSIAN:
            return 1.0
        return self.eta**2 / 3.0

    @property
    def mu4(self) -> float:
        if self.family == GAUSSIAN:
            return 3.0
        return self.eta**4 / 5.0

    def sample(self, rng: np.random.Generator, shape: int | tuple[int, ...]) -> np.ndarray:
        """Draw direction components of the given shape from ``rng``."""
        if self.family == GAUSSIAN:
            return rng.standard_normal(shape)
        return rng.uniform(-self.eta, self.eta, shape)


def gaussian() -> PerturbationSpec:
    return PerturbationSpec(GAUSSIAN)


def uniform(eta: float = 1.0) -> PerturbationSpec:
    return PerturbationSpec(UNIFORM, eta)


def gradient_unbias_factor(spec: PerturbationSpec) -> float:
    """Factor ``1/mu2`` that makes ``E[Delta Delta^T] * factor = I``."""
    return 1.0 / spec.mu2


def _form(spec: PerturbationSpec) -> tuple[float, float, float]:
    """``(off, shift, diag)``: ``M(Delta)`` is ``Delta_i Delta_j / off`` off the
    diagonal and ``(Delta_i**2 - shift) / diag`` on it.

    The moment-matched form (``2 mu2**2, mu2, mu4 - mu2**2``) satisfies
    ``E[M(Delta) (Delta^T H Delta)] = H`` for any symmetric ``H``; for the
    standard Gaussian it is ``(Delta Delta^T - I) / 2``.  With
    ``spec.paper_literal_scaling`` it is the unhalved ``Delta Delta^T - I``,
    whose expectation on a quadratic is twice the true Hessian, which the
    switch exists to demonstrate.
    """
    if spec.paper_literal_scaling:
        return 1.0, 1.0, 1.0
    mu2 = spec.mu2
    return 2.0 * mu2**2, mu2, spec.mu4 - mu2**2


def apply_scaling(
    spec: PerturbationSpec, outer_mean: np.ndarray, weight_mean: float | np.ndarray
) -> np.ndarray:
    """``sum_i w_i M(Delta_i) / n`` from ``outer_mean = sum_i w_i Delta_i Delta_i^T / n``
    ``(..., d, d)`` and ``weight_mean = sum_i w_i / n`` ``(...)``, over any
    leading axes; one draw with ``w = 1`` gives ``M(Delta)`` itself.

    The result is written over the float array ``outer_mean`` and returned,
    so a stack of scaling matrices costs one stack, not two.
    """
    off, shift, diag = _form(spec)
    idx = np.arange(outer_mean.shape[-1])
    weight = np.asarray(weight_mean)[..., None]
    on_diagonal = (outer_mean[..., idx, idx] - shift * weight) / diag
    outer_mean /= off
    outer_mean[..., idx, idx] = on_diagonal
    return outer_mean


def scaling_norms(spec: PerturbationSpec, directions: np.ndarray) -> np.ndarray:
    """``|M(Delta)|_F`` per ``(..., d)`` direction in ``O(d)``: the entries off the
    diagonal square-sum to ``(sum Delta_i**2)**2 - sum Delta_i**4`` over
    ``off**2``, those on it to ``sum (Delta_i**2 - shift)**2`` over ``diag**2``.
    """
    off, shift, diag = _form(spec)
    squares = directions**2
    cross = squares.sum(axis=-1) ** 2 - (squares**2).sum(axis=-1)
    return np.sqrt(cross / off**2 + ((squares - shift) ** 2).sum(axis=-1) / diag**2)


def scaling_matrices(spec: PerturbationSpec, directions: np.ndarray) -> np.ndarray:
    """The matrices ``M(Delta)`` multiplying the second-difference quadratic
    form, one per row of the ``(n, d)`` directions."""
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2:
        raise ValueError(f"directions must be 2-D, got shape {directions.shape}")
    n, d = directions.shape
    outer = np.empty((n, d, d))
    for j in range(d):
        # per column: numpy buffers the broadcast operand of each call, so
        # one call over the whole stack would buffer up to 8192 of its
        # entries, and one over a column buffers at most that column.  A
        # Newton block builds its stack before its offsets, so this buffer
        # and apply_scaling's diagonal temporaries never sit beside them
        np.multiply(directions, directions[:, j, None], out=outer[:, :, j])
    return apply_scaling(spec, outer, 1.0)
