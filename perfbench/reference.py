"""Fixed reference kernels that cancel the drift of a shared machine's speed.

On a shared 2-core machine the CPU speed seen by one process drifts by up
to ~1.7x over tens of seconds (process time moves with wall time, so it is
not preemption).  A median over runs cannot absorb a slow phase that lasts
the whole measurement.  The benchmark therefore times one of these kernels
right before every run it times and reports the run's time in reference
seconds: ``measured * REFERENCE_S / kernel_time``, the time the run would
take on a machine where the kernel takes exactly ``REFERENCE_S``.

The kernels use only numpy and the standard library, never grdsa, so no
change to the package moves them.  Each mimics the instruction mix of the
workloads it calibrates: ``python`` the per-iteration mix of the Newton
runs (exact fractions, tiny arrays, small eigen-solves), ``array`` the
large vectorized batches of the CRZON runs.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

#: nominal kernel time; reference seconds are close to this machine's seconds
REFERENCE_S = 0.01


def _python_kernel() -> float:
    rng = np.random.default_rng(0)
    eye = np.eye(8)
    acc = 0.0
    for _ in range(130):
        w = sum((Fraction((-1) ** j, j) for j in range(1, 9)), Fraction(0))
        weights = np.array([float(w) / j for j in range(1, 6)])
        x = rng.standard_normal(8)
        vals, vecs = np.linalg.eigh(np.outer(x, x) + eye)
        acc += float(weights @ x[:5]) + float(vecs[0] @ x / vals[-1])
        acc += float(np.clip(x, -1.0, 1.0).sum())
    return acc


def _array_kernel() -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((700, 50))
    acc = float((x[:, :, None] * x[:, None, :]).mean(axis=0).sum())
    points = np.repeat(x, 3, axis=0)
    acc += float(np.sum(points**2 - 10.0 * np.cos(2.0 * np.pi * points), axis=-1).sum())
    z = rng.normal(0.0, 0.001, size=(points.shape[0], 51))
    acc += float(np.einsum("ij,ij->i", points, z[:, :50]).sum())
    return acc


KERNELS = {"python": _python_kernel, "array": _array_kernel}


def kernel_seconds(kind: str) -> float:
    """Wall time of one run of the ``kind`` kernel."""
    kernel = KERNELS[kind]
    start = perf_counter()
    kernel()
    return perf_counter() - start
