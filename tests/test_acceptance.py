"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Every test records a ``[PASS]``/``[FAIL]`` line through the ``verdict``
fixture; pytest echoes the collected lines in a terminal summary section,
so the suite output doubles as a checklist.  Tolerances sit next to the
assertions they guard.
"""

from __future__ import annotations

import time
from fractions import Fraction as F

import numpy as np

from grdsa.cubic import CubicConfig, run_crzon, solve_cubic_subproblem
from grdsa.estimators import (
    batch_hessian,
    fit_loglog_slope,
    gradient_deviation,
    hessian_deviation,
)
from grdsa.harness import run_table
from grdsa.newton import NewtonConfig, Schedules, run_newton, validate_schedules
from grdsa.oracle import (
    BudgetedOracle,
    LinearGaussianNoise,
    exp_sin,
    quadratic,
    quartic,
    saddle_quartic,
)
from grdsa.perturb import PerturbationSpec, gaussian
from grdsa.stencils import hess_stencil, verify_identities


def test_01_stencil_certification(verdict):
    """All combinatorial stencil identities hold exactly up to order 12."""
    t0 = time.perf_counter()
    report = verify_identities(12)
    elapsed = time.perf_counter() - t0
    n_pass = sum(c.passed for c in report)
    ok = n_pass == len(report) == 181 and elapsed < 5.0
    assert verdict(
        1,
        "exact stencil certification",
        ok,
        f"{n_pass}/{len(report)} identities exact in {elapsed:.2f}s (want 181, < 5s)",
    )


def test_02_second_derivative_weight_tables(verdict):
    """Composed second-derivative weights match the reference tables."""
    expected = {
        (1, 1): (F(1), F(-2), F(1)),
        (2, 2): (F(9, 4), F(-6), F(11, 2), F(-2), F(1, 4)),
        (3, 3): (F(121, 36), F(-11), F(29, 2), F(-92, 9), F(17, 4), F(-1), F(1, 9)),
    }
    mismatches = [
        orders
        for orders, weights in expected.items()
        if hess_stencil(*orders).weights != weights
    ]
    ok = not mismatches
    assert verdict(
        2,
        "second-derivative weight tables",
        ok,
        "orders (1,1), (2,2), (3,3) all exact"
        if ok
        else f"mismatch at {mismatches}",
    )


def test_03_scaled_hessian_is_unbiased(verdict):
    """Monte Carlo mean of single-draw Hessian estimates recovers the truth.

    Noiseless quadratic with curvature diag(2, 4); one million Gaussian
    draws put every entry of the corrected estimate within 4 standard
    errors of the true matrix, and the uncorrected scaling lands on twice
    the truth.
    """
    a = np.diag([2.0, 4.0])
    theta = np.array([0.5, -0.5])
    spec = gaussian()
    t0 = time.perf_counter()
    est, samples = batch_hessian(
        BudgetedOracle(quadratic(a)), theta, 1e-3, 1, 1_000_000, spec,
        np.random.default_rng(2024), return_samples=True,
    )
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    dev_corrected = float(np.max(np.abs(est.value - a) / se))

    est2, samples2 = batch_hessian(
        BudgetedOracle(quadratic(a)), theta, 1e-3, 1, 1_000_000,
        PerturbationSpec("gaussian", paper_literal_scaling=True),
        np.random.default_rng(2024), return_samples=True,
    )
    se2 = samples2.std(axis=0, ddof=1) / np.sqrt(len(samples2))
    dev_literal = float(np.max(np.abs(est2.value - 2.0 * a) / se2))
    elapsed = time.perf_counter() - t0

    ok = dev_corrected <= 4.0 and dev_literal <= 4.0 and elapsed < 30.0
    assert verdict(
        3,
        "scaled Hessian estimates are unbiased",
        ok,
        f"max deviation {dev_corrected:.2f} SE (corrected -> H), "
        f"{dev_literal:.2f} SE (uncorrected -> 2H), {elapsed:.1f}s "
        f"(want <= 4 SE, < 30s)",
    )


def test_04_bias_decays_at_stencil_order(verdict):
    """Log-log slope of the truncation residual reaches the stencil order.

    Common random directions across delta in {0.4, 0.2, 0.1, 0.05}; the
    quartic probes orders 1 and 2, where it has nonzero higher derivatives,
    and the entire function probes order 3.  Mixed orders (1, 3) stay at
    the smaller order.
    """
    deltas = np.array([0.4, 0.2, 0.1, 0.05])
    spec = gaussian()
    n = 100_000
    t0 = time.perf_counter()
    dirs_quartic = spec.sample(np.random.default_rng(2024), (n, 2))
    dirs_smooth = spec.sample(np.random.default_rng(2025), (n, 2))
    cases = {
        1: (quartic(2), np.array([0.9, -1.1]), dirs_quartic),
        2: (quartic(2), np.array([0.9, -1.1]), dirs_quartic),
        3: (exp_sin(), np.array([0.3, 0.4]), dirs_smooth),
    }
    slopes: dict[str, float] = {}
    for k, (obj, theta, dirs) in cases.items():
        gdev = [gradient_deviation(obj, theta, d, k, spec, dirs) for d in deltas]
        hdev = [hessian_deviation(obj, theta, d, k, k, spec, dirs) for d in deltas]
        slopes[f"grad k={k}"] = fit_loglog_slope(deltas, gdev)
        slopes[f"hess k={k}"] = fit_loglog_slope(deltas, hdev)
    obj, theta, dirs = cases[1]
    mixed = [hessian_deviation(obj, theta, d, 1, 3, spec, dirs) for d in deltas]
    slopes["hess (1,3)"] = fit_loglog_slope(deltas, mixed)
    elapsed = time.perf_counter() - t0

    ok = all(
        slopes[f"{kind} k={k}"] >= k - 0.3
        for k in (1, 2, 3)
        for kind in ("grad", "hess")
    )
    ok = ok and slopes["hess (1,3)"] <= 1.5 and elapsed < 120.0
    shown = ", ".join(f"{name} {value:.2f}" for name, value in slopes.items())
    assert verdict(
        4,
        "bias decays at the stencil order",
        ok,
        f"{shown}, {elapsed:.1f}s (want slope >= k - 0.3, mixed <= 1.5, < 2min)",
    )


def test_05_variance_grows_as_delta_shrinks(verdict):
    """Halving delta multiplies single-draw Hessian variance by about 16.

    Additive noise of scale 0.001 dominates the estimator, whose weights
    carry a 1/delta**2 factor, so total variance scales like 1/delta**4;
    sampling noise keeps the measured ratio inside [8, 32].
    """
    obj = quadratic(np.diag([2.0, 4.0]))
    noise = LinearGaussianNoise(0.001)
    theta = np.array([1.0, 1.0])

    def total_variance(delta: float, seed: int) -> float:
        oracle = BudgetedOracle(obj, noise, rng=np.random.default_rng(seed))
        _, samples = batch_hessian(
            oracle, theta, delta, 1, 4000, gaussian(),
            np.random.default_rng(seed + 1), return_samples=True,
        )
        return float(samples.var(axis=0, ddof=1).sum())

    ratio = total_variance(0.005, 2024) / total_variance(0.01, 2025)
    ok = 8.0 <= ratio <= 32.0
    assert verdict(
        5,
        "variance grows as delta shrinks",
        ok,
        f"var(delta=0.005) / var(delta=0.01) = {ratio:.2f} (want in [8, 32])",
    )


def test_06_rastrigin_benchmark_ordering(verdict):
    """Second-order methods should beat first-order ones on Rastrigin.

    Ten seeds per cell at budget 5000 in dimensions 5 and 10.  The claim
    under test: G2SF-9 achieves a smaller mean normalized squared error
    than both G2SF-3 and GSF-5 in each dimension, and its d=5 mean falls
    in [0.03, 0.45].
    """
    t0 = time.perf_counter()
    result = run_table(
        {
            "objective": "rastrigin",
            "methods": ["GSF-5", "G2SF-3", "G2SF-9"],
            "dims": [5, 10],
            "budgets": [5000],
            "seeds": 10,
        }
    )
    elapsed = time.perf_counter() - t0
    means = {(c.method, c.dim): c.mean_error for c in result.cells}
    orderings = all(
        means[("G2SF-9", d)] < means[("G2SF-3", d)]
        and means[("G2SF-9", d)] < means[("GSF-5", d)]
        for d in (5, 10)
    )
    in_band = 0.03 <= means[("G2SF-9", 5)] <= 0.45
    n_ok = sum(r.status == "ok" for r in result.rows)
    ok = orderings and in_band and n_ok == 60 and elapsed < 300.0
    shown = "; ".join(
        f"d={d}: " + " ".join(f"{m}={means[(m, d)]:.3f}" for m in ("GSF-5", "G2SF-3", "G2SF-9"))
        for d in (5, 10)
    )
    assert verdict(
        6,
        "Rastrigin benchmark ordering",
        ok,
        f"{shown}, {elapsed:.0f}s (want G2SF-9 smallest per dim, d=5 in [0.03, 0.45])",
    )


def test_07_cubic_subproblem_global_optimality(verdict):
    """Closed-form cubic solutions beat a dense grid on 100 random models."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    axis = np.linspace(-3.0, 3.0, 401)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    px, py = gx.ravel(), gy.ravel()
    xx, xy, yy = px * px, px * py, py * py
    cube = (xx + yy) ** 1.5

    worst_gap = -np.inf
    worst_stat = 0.0
    for _ in range(100):
        g = rng.uniform(-2.0, 2.0, 2)
        h = rng.uniform(-2.0, 2.0, (2, 2))
        h = 0.5 * (h + h.T)
        alpha = float(rng.uniform(1.0, 3.0))
        sol = solve_cubic_subproblem(g, h, alpha, tol=1e-10)
        grid_min = float(
            (
                px * g[0]
                + py * g[1]
                + 0.5 * (h[0, 0] * xx + 2.0 * h[0, 1] * xy + h[1, 1] * yy)
                + alpha / 6.0 * cube
            ).min()
        )
        worst_gap = max(worst_gap, sol.model_value - grid_min)
        worst_stat = max(worst_stat, sol.stationarity)
    elapsed = time.perf_counter() - t0

    ok = worst_gap <= 1e-3 and worst_stat <= 1e-8 and elapsed < 60.0
    assert verdict(
        7,
        "cubic subproblem global optimality",
        ok,
        f"worst gap to 401x401 grid {worst_gap:.2e}, worst stationarity "
        f"{worst_stat:.2e}, {elapsed:.1f}s (want <= 1e-3, <= 1e-8, < 1min)",
    )


def test_08_saddle_escape_vs_plain_newton(verdict):
    """Cubic-regularized runs leave the saddle that plain Newton sits on.

    Both start at (0.01, 0.01) next to the origin saddle with noise scale
    0.001 and first-order stencils.  A run counts as escaped when the true
    Hessian at the reported iterate has smallest eigenvalue >= -0.5.
    """
    obj = saddle_quartic()
    noise = LinearGaussianNoise(0.001)
    theta0 = np.array([0.01, 0.01])

    escapes = 0
    for seed in range(10):
        report = run_crzon(
            CubicConfig(
                objective=obj, k=1, n_steps=30, m=200, b=400, delta=0.1,
                noise=noise, seed=seed, theta0=theta0,
            )
        )
        if report.lambda_min_at_r >= -0.5:
            escapes += 1

    stuck = 0
    for seed in range(10):
        record = run_newton(
            NewtonConfig(objective=obj, budget=30, k=1, noise=noise, seed=seed, theta0=theta0)
        )
        lam = float(np.linalg.eigvalsh(obj.hessian(record.theta_final))[0])
        if lam < -0.5:
            stuck += 1

    ok = escapes >= 8 and stuck >= 5
    assert verdict(
        8,
        "saddle escape vs plain Newton",
        ok,
        f"cubic-regularized escapes {escapes}/10 (want >= 8), plain Newton "
        f"stuck {stuck}/10 (want >= 5)",
    )


def test_09_evaluation_accounting(verdict):
    """Evaluation counters match the closed-form per-step costs exactly."""
    quad = quadratic(np.diag([2.0, 4.0]))
    rec1 = run_newton(NewtonConfig(objective=quad, budget=99, k=1, seed=0))
    rec2 = run_newton(NewtonConfig(objective=quad, budget=100, k=2, seed=0))
    newton_ok = (
        rec1.iterations == 33
        and rec1.evals_used == 3 * rec1.iterations == 99
        and rec2.iterations == 20
        and rec2.evals_used == 5 * rec2.iterations == 100
    )

    big = run_crzon(
        CubicConfig(
            objective=saddle_quartic(), k=1, n_steps=30, m=200, b=400,
            delta=0.1, seed=0, theta0=np.array([0.01, 0.01]),
        )
    )
    small = run_crzon(
        CubicConfig(objective=saddle_quartic(), k=2, n_steps=3, m=7, b=5, delta=0.1, seed=0)
    )
    crzon_ok = (
        big.evals_used == 30 * (200 * 2 + 400 * 3) == 48000
        and small.evals_used == 3 * (7 * 3 + 5 * 5) == 138
    )

    ok = newton_ok and crzon_ok
    assert verdict(
        9,
        "evaluation accounting",
        ok,
        f"newton 2k+1 per step ({rec1.evals_used}=33*3, {rec2.evals_used}=20*5), "
        f"outer steps m(k+1)+b(2k+1) ({big.evals_used}=48000, {small.evals_used}=138)",
    )


def test_10_default_schedule_diagnostics(verdict):
    """Default schedules trip exactly one warning, with a stable id."""
    findings = validate_schedules(Schedules())
    failed = [f for f in findings if not f.ok]
    expected_message = (
        "sum (b(n)/delta(n)^2)^2 diverges (2(beta - 2 gamma) = 0.45 <= 1)"
    )
    ok = (
        len(failed) == 1
        and failed[0].check == "b_delta_square_summable"
        and failed[0].severity == "warning"
        and failed[0].message == expected_message
    )
    assert verdict(
        10,
        "default schedule diagnostics",
        ok,
        f"{len(failed)} failing check(s): {[f.check for f in failed]} "
        f"(want exactly b_delta_square_summable as a warning)",
    )
