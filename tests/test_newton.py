"""Schedules, projection, eigenvalue clamping, and the two-timescale loop."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grdsa.newton as newton_mod
from grdsa.estimators import NonFiniteEvaluation
from grdsa.newton import (
    _BLOCK,
    INIT_RANGE,
    Box,
    NewtonConfig,
    NewtonState,
    Schedules,
    clamped_newton_direction,
    gradient_step,
    iteration_cost,
    newton_step,
    run_first_order,
    run_newton,
    theta_operator,
    validate_schedules,
)
from grdsa.oracle import (
    BudgetedOracle,
    BudgetTooSmall,
    LinearGaussianNoise,
    exp_sin,
    quadratic,
    rastrigin,
)
from grdsa.perturb import gaussian, uniform

QUAD = quadratic(np.diag([2.0, 4.0]))


class TestSchedules:
    def test_formulas(self):
        s = Schedules()
        assert s.a(1) == pytest.approx(0.9 / 21.0**0.9)
        assert s.b(1) == pytest.approx(0.9 / 11.0**0.56)
        assert s.delta(1) == pytest.approx(0.9)
        assert s.delta(64) == pytest.approx(0.9 / 64.0**0.16667)

    def test_monotone_decreasing(self):
        s = Schedules()
        ns = np.arange(1, 200)
        for seq in (s.a, s.b, s.delta):
            vals = np.array([seq(int(n)) for n in ns])
            assert np.all(np.diff(vals) < 0)


class TestValidateSchedules:
    def test_default_has_exactly_one_failed_warning(self):
        findings = validate_schedules(Schedules())
        assert [f.check for f in findings] == [
            "positive_parameters",
            "a_sum_diverges",
            "b_sum_diverges",
            "timescale_separation",
            "a_delta_square_summable",
            "b_delta_square_summable",
        ]
        failed = [f for f in findings if not f.ok]
        assert len(failed) == 1
        assert failed[0].check == "b_delta_square_summable"
        assert failed[0].severity == "warning"
        assert failed[0].message == (
            "sum (b(n)/delta(n)^2)^2 diverges (2(beta - 2 gamma) = 0.45 <= 1)"
        )

    def test_structural_failure_short_circuits(self):
        findings = validate_schedules(Schedules(a0=0.0))
        assert len(findings) == 1
        assert findings[0].check == "positive_parameters"
        assert findings[0].severity == "error"
        assert not findings[0].ok

    def test_negative_offset_is_structural(self):
        findings = validate_schedules(Schedules(big_a=-1.0))
        assert len(findings) == 1 and not findings[0].ok

    def test_slow_iterate_step_flagged(self):
        findings = {f.check: f for f in validate_schedules(Schedules(alpha=1.2))}
        assert not findings["a_sum_diverges"].ok
        assert findings["timescale_separation"].ok

    def test_timescale_inversion_flagged(self):
        findings = {f.check: f for f in validate_schedules(Schedules(beta=0.95))}
        assert not findings["timescale_separation"].ok
        # beta this large also fixes the averaging square-summability
        assert findings["b_delta_square_summable"].ok

    def test_large_gamma_breaks_gradient_condition(self):
        findings = {f.check: f for f in validate_schedules(Schedules(gamma=0.4))}
        assert not findings["a_delta_square_summable"].ok
        assert not findings["b_delta_square_summable"].ok


class TestBox:
    def test_clip(self):
        box = Box(-1.0, 2.0)
        out = box.clip(np.array([-3.0, 0.5, 7.0]))
        assert np.array_equal(out, [-1.0, 0.5, 2.0])

    def test_idempotent(self):
        box = Box()
        x = np.array([-10.0, 0.0, 10.0])
        assert np.array_equal(box.clip(box.clip(x)), box.clip(x))

    def test_defaults(self):
        box = Box()
        assert (box.lower, box.upper) == (-5.12, 5.12)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box(1.0, 1.0)
        with pytest.raises(ValueError):
            Box(2.0, -2.0)


class TestThetaOperator:
    def test_positive_definite_passthrough(self):
        h = np.diag([2.0, 4.0])
        assert np.allclose(theta_operator(h), h)

    def test_clamps_negative_eigenvalue(self):
        out = theta_operator(np.diag([-1.0, 3.0]))
        assert np.allclose(out, np.diag([0.1, 3.0]))

    def test_zero_matrix_lifted_to_floor(self):
        assert np.allclose(theta_operator(np.zeros((3, 3))), 0.1 * np.eye(3))

    def test_symmetrizes_input(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = theta_operator(h)
        assert np.allclose(out, out.T)
        # eigenvalues of the symmetric part are +-1/2; both end >= 0.1
        assert np.linalg.eigvalsh(out)[0] >= 0.1 - 1e-12

    def test_inverse_norm_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = rng.normal(size=(4, 4))
            inv = np.linalg.inv(theta_operator(h, eps_pd=0.25))
            assert np.linalg.norm(inv, 2) <= 1.0 / 0.25 + 1e-9

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            theta_operator(np.eye(2), eps_pd=0.0)
        with pytest.raises(ValueError):
            clamped_newton_direction(np.eye(2), np.ones(2), eps_pd=-1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_spectrum_floor(self, seed: int):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(3, 3)) * rng.uniform(0.1, 10)
        out = theta_operator(h, eps_pd=0.1)
        assert np.linalg.eigvalsh(out)[0] >= 0.1 - 1e-10


class TestClampedNewtonDirection:
    def test_matches_explicit_solve(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = rng.normal(size=(4, 4))
            g = rng.normal(size=4)
            direct = np.linalg.solve(theta_operator(h), g)
            assert np.allclose(clamped_newton_direction(h, g), direct, atol=1e-10)

    def test_identity_average_reduces_to_gradient(self):
        g = np.array([0.4, -0.9])
        assert np.allclose(clamped_newton_direction(np.eye(2), g), g)

    def test_negative_curvature_amplifies(self):
        # eigenvalue -1 is clamped to 0.1, so that component is divided by 0.1
        g = np.array([1.0, 0.0])
        out = clamped_newton_direction(np.diag([-1.0, 5.0]), g)
        assert out[0] == pytest.approx(10.0)


class TestIterationCost:
    def test_values(self):
        assert iteration_cost(1) == 3
        assert iteration_cost(4) == 9
        assert iteration_cost(1, reuse=False) == 5
        assert iteration_cost(2, reuse=False) == 8


@pytest.fixture
def patched(monkeypatch):
    """Replace both reductions with deterministic stubs; record measurements."""
    htilde = np.array([[5.0, 1.0], [0.0, 2.0]])  # deliberately asymmetric
    g0 = np.array([0.6, -0.3])
    calls = {"probes": []}
    real_measure = newton_mod.measure

    def spy_measure(oracle, points):
        values = real_measure(oracle, points)
        calls["probes"].append((len(points), values))
        return values

    def fake_hessian(values, scalers, delta, k1, k2):
        calls["hess_delta"] = delta
        return htilde.copy()

    def fake_gradient(values, directions, delta, k, spec):
        calls["grad_values"] = values
        calls["grad_delta"] = delta
        return g0.copy()

    monkeypatch.setattr(newton_mod, "measure", spy_measure)
    monkeypatch.setattr(newton_mod, "hessian_samples", fake_hessian)
    monkeypatch.setattr(newton_mod, "gradient_samples", fake_gradient)
    return htilde, g0, calls


class TestNewtonStep:
    def test_average_update_and_move(self, patched):
        htilde, g0, calls = patched
        cfg = NewtonConfig(objective=QUAD, budget=100, k=1, seed=0)
        theta0 = np.array([1.0, 1.0])
        state = NewtonState(theta=theta0.copy(), hbar=np.eye(2), n=1)
        out = newton_step(state, BudgetedOracle(QUAD), cfg, np.random.default_rng(0))

        s = cfg.schedules
        sym = 0.5 * (htilde + htilde.T)
        hbar1 = np.eye(2) + s.b(1) * (sym - np.eye(2))
        assert np.allclose(out.hbar, hbar1, atol=1e-12)
        expected = cfg.box.clip(theta0 - s.a(1) * clamped_newton_direction(hbar1, g0))
        assert np.allclose(out.theta, expected, atol=1e-12)
        assert out.n == 2
        assert calls["hess_delta"] == pytest.approx(s.delta(1))

    def test_two_steps_compound_the_average(self, patched):
        htilde, _, _ = patched
        cfg = NewtonConfig(objective=QUAD, budget=100, k=1, seed=0)
        state = NewtonState(theta=np.zeros(2), hbar=np.eye(2), n=1)
        rng = np.random.default_rng(0)
        state = newton_step(state, BudgetedOracle(QUAD), cfg, rng)
        state = newton_step(state, BudgetedOracle(QUAD), cfg, rng)
        s = cfg.schedules
        sym = 0.5 * (htilde + htilde.T)
        hbar1 = np.eye(2) + s.b(1) * (sym - np.eye(2))
        hbar2 = hbar1 + s.b(2) * (sym - hbar1)
        assert np.allclose(state.hbar, hbar2, atol=1e-12)
        assert state.n == 3

    def test_reuse_passes_gradient_shift_prefix(self, patched):
        # one probe of 2k+1 shifts; the gradient reads its values
        _, _, calls = patched
        cfg = NewtonConfig(objective=QUAD, budget=100, k=2, seed=0, reuse=True)
        state = NewtonState(theta=np.zeros(2), hbar=np.eye(2), n=1)
        oracle = BudgetedOracle(QUAD)
        newton_step(state, oracle, cfg, np.random.default_rng(0))
        assert [n for n, _ in calls["probes"]] == [5]
        assert np.array_equal(calls["grad_values"], calls["probes"][0][1])
        assert oracle.evals_used == 5

    def test_no_reuse_passes_nothing(self, patched):
        # the gradient reads a second, fresh probe of k+1 shifts
        _, _, calls = patched
        cfg = NewtonConfig(objective=QUAD, budget=100, k=2, seed=0, reuse=False)
        state = NewtonState(theta=np.zeros(2), hbar=np.eye(2), n=1)
        oracle = BudgetedOracle(QUAD)
        newton_step(state, oracle, cfg, np.random.default_rng(0))
        assert [n for n, _ in calls["probes"]] == [5, 3]
        assert np.array_equal(calls["grad_values"], calls["probes"][1][1])
        assert oracle.evals_used == 8


class TestGradientStep:
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_probe_and_clipped_gradient_move(self, patched, k):
        _, g0, calls = patched
        cfg = NewtonConfig(objective=QUAD, budget=100, k=k, seed=0, box=Box(0.5, 2.0))
        theta0 = np.array([1.0, 1.99])
        hbar = np.array([[3.0, 0.5], [0.5, 1.0]])
        state = NewtonState(theta=theta0.copy(), hbar=hbar, n=1)
        oracle = BudgetedOracle(QUAD)
        out = gradient_step(state, oracle, cfg, np.random.default_rng(0))

        assert [n for n, _ in calls["probes"]] == [k + 1]
        assert np.array_equal(calls["grad_values"], calls["probes"][0][1])
        assert calls["grad_delta"] == cfg.schedules.delta(1)
        expected = cfg.box.clip(theta0 - cfg.schedules.a(1) * g0)
        assert np.array_equal(out.theta, expected)
        assert expected[1] == 2.0  # the clip is exercised
        assert out.hbar is hbar
        assert np.array_equal(hbar, [[3.0, 0.5], [0.5, 1.0]])
        assert out.n == 2
        assert oracle.evals_used == k + 1
        assert "hess_delta" not in calls


class TestDriverIsTheStepLoop:
    """``run_newton`` / ``run_first_order`` draw their inputs a block at a
    time; a hand loop of the one-draw steps must give the same bits."""

    @pytest.mark.parametrize("iterations", [5, _BLOCK, _BLOCK + 7])
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    @pytest.mark.parametrize("spec", [gaussian(), uniform(1.0)], ids=["gaussian", "uniform"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize(
        "hessian,reuse", [(True, True), (True, False), (False, True)],
        ids=["newton-reuse", "newton-fresh", "gradient"],
    )
    def test_same_trajectory_bits(self, hessian, reuse, k, spec, sigma, iterations):
        cost = iteration_cost(k, reuse) if hessian else k + 1
        cfg = NewtonConfig(
            objective=rastrigin(3),
            budget=iterations * cost + cost - 1,
            k=k,
            noise=LinearGaussianNoise(sigma),
            perturbation=spec,
            reuse=reuse,
            seed=7,
        )
        rec = (run_newton if hessian else run_first_order)(cfg)

        init_rng, perturb_rng, noise_rng = newton_mod._spawn_streams(cfg.seed, 3)
        theta0 = init_rng.uniform(INIT_RANGE[0], INIT_RANGE[1], 3)
        oracle = BudgetedOracle(cfg.objective, cfg.noise, cfg.budget, noise_rng)
        state = NewtonState(theta=theta0.copy(), hbar=np.eye(3), n=1)
        snapshots = [theta0.copy()]
        step = newton_step if hessian else gradient_step
        while oracle.remaining >= cost:
            state = step(state, oracle, cfg, perturb_rng)
            snapshots.append(state.theta.copy())

        assert rec.iterations == state.n - 1 == iterations
        assert rec.evals_used == oracle.evals_used == iterations * cost
        assert rec.trajectory.tobytes() == np.asarray(snapshots).tobytes()
        assert rec.theta_final.tobytes() == state.theta.tobytes()


class TestNonFiniteMidBlock:
    def test_raises_at_the_failing_call(self, monkeypatch):
        # the objective turns NaN on one call in the middle of the second block
        bad_call = _BLOCK + _BLOCK // 2
        seen = {"calls": 0}

        def value(x):
            seen["calls"] += 1
            out = QUAD.value(x)
            return out * np.nan if seen["calls"] == bad_call else out

        oracles = []

        class RecordingOracle(BudgetedOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                oracles.append(self)

        monkeypatch.setattr(newton_mod, "BudgetedOracle", RecordingOracle)
        objective = replace(QUAD, value=value)
        with pytest.raises(NonFiniteEvaluation):
            run_newton(NewtonConfig(objective=objective, budget=3000, k=1, seed=0))
        assert seen["calls"] == bad_call
        assert oracles[0].evals_used == bad_call * iteration_cost(1)


class TestRunNewton:
    def test_budget_accounting_with_reuse(self):
        rec = run_newton(NewtonConfig(objective=QUAD, budget=100, k=1, seed=0))
        assert rec.iterations == 33
        assert rec.evals_used == 99
        rec = run_newton(NewtonConfig(objective=QUAD, budget=100, k=2, seed=0))
        assert rec.iterations == 20
        assert rec.evals_used == 100

    def test_budget_accounting_without_reuse(self):
        rec = run_newton(
            NewtonConfig(objective=QUAD, budget=16, k=1, seed=0, reuse=False)
        )
        assert rec.iterations == 3
        assert rec.evals_used == 15

    def test_converges_on_quadratic(self):
        errors = [
            run_newton(
                NewtonConfig(objective=QUAD, budget=3000, k=1, seed=seed)
            ).final_parameter_error
            for seed in range(10)
        ]
        assert all(err < 1e-2 for err in errors)

    def test_deterministic_given_seed(self):
        cfg = NewtonConfig(objective=QUAD, budget=300, k=1, seed=5)
        a, b = run_newton(cfg), run_newton(cfg)
        assert np.array_equal(a.theta_final, b.theta_final)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert a.evals_used == b.evals_used

    def test_seed_changes_initial_point(self):
        a = run_newton(NewtonConfig(objective=QUAD, budget=9, k=1, seed=0))
        b = run_newton(NewtonConfig(objective=QUAD, budget=9, k=1, seed=1))
        assert not np.array_equal(a.theta_init, b.theta_init)

    def test_default_initialization_range(self):
        for seed in range(5):
            rec = run_newton(NewtonConfig(objective=QUAD, budget=9, k=1, seed=seed))
            assert np.all(rec.theta_init >= INIT_RANGE[0])
            assert np.all(rec.theta_init <= INIT_RANGE[1])

    def test_theta0_override(self):
        start = np.array([1.5, -2.5])
        rec = run_newton(
            NewtonConfig(objective=QUAD, budget=30, k=1, seed=0, theta0=start)
        )
        assert np.array_equal(rec.theta_init, start)
        assert np.array_equal(rec.trajectory[0], start)

    def test_theta0_shape_validated(self):
        with pytest.raises(ValueError):
            run_newton(
                NewtonConfig(objective=QUAD, budget=30, k=1, theta0=np.ones(3))
            )

    def test_record_stride(self):
        # budget 23 at cost 3 gives 7 iterations; stride 3 keeps the start,
        # iterations 3 and 6, and the unaligned tail
        rec = run_newton(
            NewtonConfig(objective=QUAD, budget=23, k=1, seed=0, record_stride=3)
        )
        assert rec.iterations == 7
        assert rec.evals_used == 21
        assert rec.trajectory.shape == (4, 2)
        assert np.array_equal(rec.trajectory[-1], rec.theta_final)

    def test_invalid_arguments(self):
        with pytest.raises(BudgetTooSmall):
            run_newton(NewtonConfig(objective=QUAD, budget=2, k=1))
        with pytest.raises(ValueError):
            run_newton(NewtonConfig(objective=QUAD, budget=30, k=0))
        with pytest.raises(ValueError, match="record_stride"):
            run_newton(NewtonConfig(objective=QUAD, budget=30, k=1, record_stride=0))
        with pytest.raises(ValueError, match="record_stride"):
            run_first_order(NewtonConfig(objective=QUAD, budget=30, k=1, record_stride=0))
        with pytest.raises(ValueError, match="eps_pd"):
            run_newton(NewtonConfig(objective=QUAD, budget=30, k=1, eps_pd=0.0))

    def test_error_none_without_known_optimum(self):
        rec = run_newton(NewtonConfig(objective=exp_sin(), budget=9, k=1, seed=0))
        assert rec.final_parameter_error is None
        assert rec.algorithm == "newton"

    def test_box_respected(self):
        box = Box(-0.5, 0.5)
        rec = run_newton(
            NewtonConfig(objective=QUAD, budget=60, k=1, seed=0, box=box)
        )
        assert np.all(rec.trajectory[1:] >= -0.5)
        assert np.all(rec.trajectory[1:] <= 0.5)


class TestRunFirstOrder:
    def test_budget_accounting(self):
        rec = run_first_order(NewtonConfig(objective=QUAD, budget=10, k=1, seed=0))
        assert rec.algorithm == "gradient_only"
        assert rec.iterations == 5
        assert rec.evals_used == 10

    def test_converges_on_quadratic(self):
        errors = [
            run_first_order(
                NewtonConfig(objective=QUAD, budget=3000, k=1, seed=seed)
            ).final_parameter_error
            for seed in range(10)
        ]
        assert all(err < 1e-2 for err in errors)

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmall):
            run_first_order(NewtonConfig(objective=QUAD, budget=1, k=1))

    def test_same_seed_same_start_as_newton(self):
        a = run_newton(NewtonConfig(objective=QUAD, budget=9, k=1, seed=3))
        b = run_first_order(NewtonConfig(objective=QUAD, budget=9, k=1, seed=3))
        assert np.array_equal(a.theta_init, b.theta_init)
