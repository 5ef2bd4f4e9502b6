"""Schedules, projection, eigenvalue clamping, and the two-timescale loop."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

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
    _draw,
    _lifted_solve,
    clamped_newton_direction,
    iteration_cost,
    newton_step,
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
    quartic,
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

    @pytest.mark.parametrize(
        "name,value",
        [
            ("a0", 0.0), ("alpha", -0.5), ("b0", float("nan")), ("beta", 0.0),
            ("delta0", -1.0), ("gamma", 0.0), ("big_a", -1.0), ("big_b", float("nan")),
        ],
    )
    def test_bad_value_raises_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            Schedules(**{name: value})

    def test_zero_offsets_allowed(self):
        assert Schedules(big_a=0.0, big_b=0.0).a(1) == 0.9

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

    def test_every_finding_is_a_warning(self):
        for s in (Schedules(), Schedules(alpha=1.2, beta=1.5, gamma=0.9)):
            assert {f.severity for f in validate_schedules(s)} == {"warning"}

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


def _eigh_solve(sym, g, eps_pd):
    """The solve through the public ``np.linalg.eigh``."""
    w, v = np.linalg.eigh(sym)
    return v @ ((v.T @ g) / np.maximum(w, eps_pd))


class TestLiftedSolve:
    @pytest.mark.parametrize("d", range(1, 13))
    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
    def test_matches_public_eigh_bitwise(self, d, scale):
        rng = np.random.default_rng(d)
        for _ in range(5):
            h = rng.normal(size=(d, d)) * scale
            sym = 0.5 * (h + h.T)
            g = rng.normal(size=d)
            for eps_pd in (0.1, 1e-3 * scale):
                got = _lifted_solve(sym, g, eps_pd)
                assert got.tobytes() == _eigh_solve(sym, g, eps_pd).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_degenerate_matrices_bitwise(self, d):
        g = np.random.default_rng(0).normal(size=d)
        for sym in (np.zeros((d, d)), np.eye(d), np.ones((d, d)), 1e-300 * np.eye(d)):
            assert _lifted_solve(sym, g, 0.1).tobytes() == _eigh_solve(sym, g, 0.1).tobytes()

    def test_lapack_failure_raises(self, monkeypatch):
        # a failed LAPACK call comes back filled with NaN
        def failed(sym, signature):
            d = sym.shape[-1]
            return np.full(d, np.nan), np.full((d, d), np.nan)

        monkeypatch.setattr(newton_mod, "eigh_lo", failed)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _lifted_solve(np.eye(3), np.ones(3), 0.1)
        with pytest.raises(np.linalg.LinAlgError):
            clamped_newton_direction(np.eye(3), np.ones(3))

    def test_infinite_matrix_raises(self):
        # eigh returns NaN eigenvalues here; the solve refuses them
        h = np.array([[np.inf, 1.0], [1.0, 2.0]])
        assert np.isnan(np.linalg.eigh(h)[0]).all()
        with pytest.raises(np.linalg.LinAlgError):
            clamped_newton_direction(h, np.ones(2))


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

    def fake_gradient(values, directions, delta, k):
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
    """``newton_step`` on a gradient-only config."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_probe_and_clipped_gradient_move(self, patched, k):
        _, g0, calls = patched
        cfg = NewtonConfig(
            objective=QUAD, budget=100, k=k, seed=0, box=Box(0.5, 2.0),
            algorithm="gradient_only",
        )
        theta0 = np.array([1.0, 1.99])
        hbar = np.array([[3.0, 0.5], [0.5, 1.0]])
        state = NewtonState(theta=theta0.copy(), hbar=hbar, n=1)
        oracle = BudgetedOracle(QUAD)
        out = newton_step(state, oracle, cfg, np.random.default_rng(0))

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

    def test_budget_of_one_gradient_iteration_suffices(self):
        # priced at k+1 = 2, not the Newton 2k+1 = 3
        cfg = NewtonConfig(objective=QUAD, budget=2, k=1, algorithm="gradient_only")
        oracle = BudgetedOracle(QUAD, budget=2)
        state = NewtonState(theta=np.ones(2), hbar=np.eye(2), n=1)
        out = newton_step(state, oracle, cfg, np.random.default_rng(0))
        assert oracle.evals_used == 2
        assert out.n == 2


class TestDraw:
    @pytest.mark.parametrize("k", [1, 3])
    def test_gradient_only_draw_has_no_hessian_inputs(self, k):
        cfg = NewtonConfig(objective=QUAD, budget=100, k=k, algorithm="gradient_only")
        draws = _draw(cfg, np.random.default_rng(0), 1, 4, 2)
        assert draws.scalers is None
        assert draws.offsets.shape == (4, k + 1, 2)
        assert draws.b == []
        newton = _draw(replace(cfg, algorithm="newton"), np.random.default_rng(0), 1, 4, 2)
        assert newton.scalers.shape == (4, 2, 2)
        assert newton.offsets.shape == (4, 2 * k + 1, 2)
        # the same direction stream, so the gradient shifts agree
        assert newton.offsets[:, : k + 1].tobytes() == draws.offsets.tobytes()


def _run_settings(test):
    """Parametrize ``test`` over the run settings the driver is checked on."""
    grid = [
        pytest.mark.parametrize(
            "hessian,reuse", [(True, True), (True, False), (False, True)],
            ids=["newton-reuse", "newton-fresh", "gradient"],
        ),
        pytest.mark.parametrize("k", [1, 2, 4]),
        pytest.mark.parametrize("spec", [gaussian(), uniform(1.0)], ids=["gaussian", "uniform"]),
        pytest.mark.parametrize("sigma", [0.0, 0.01]),
        pytest.mark.parametrize("iterations", [5, _BLOCK, _BLOCK + 7]),
    ]
    for mark in grid:
        test = mark(test)
    return test


class TestDriverIsTheStepLoop:
    """``run_newton`` runs either algorithm as a flat loop over inputs drawn
    a block at a time; a hand loop of the one-draw steps must give the same
    bits."""

    @_run_settings
    def test_same_trajectory_bits(self, hessian, reuse, k, spec, sigma, iterations):
        self.check(rastrigin(3), hessian, reuse, k, spec, sigma, iterations)

    @_run_settings
    def test_same_trajectory_bits_on_quartic(self, hessian, reuse, k, spec, sigma, iterations):
        # an objective whose value is written the plain way
        self.check(quartic(3), hessian, reuse, k, spec, sigma, iterations)

    @staticmethod
    def check(objective, hessian, reuse, k, spec, sigma, iterations):
        cost = iteration_cost(k, reuse) if hessian else k + 1
        cfg = NewtonConfig(
            objective=objective,
            budget=iterations * cost + cost - 1,
            k=k,
            noise=LinearGaussianNoise(sigma),
            perturbation=spec,
            reuse=reuse,
            seed=7,
            algorithm="newton" if hessian else "gradient_only",
        )
        rec = run_newton(cfg)

        init_rng, perturb_rng, noise_rng = newton_mod._spawn_streams(cfg.seed, 3)
        theta0 = init_rng.uniform(INIT_RANGE[0], INIT_RANGE[1], 3)
        oracle = BudgetedOracle(cfg.objective, cfg.noise, cfg.budget, noise_rng)
        state = NewtonState(theta=theta0.copy(), hbar=np.eye(3), n=1)
        snapshots = [theta0.copy()]
        while oracle.remaining >= cost:
            state = newton_step(state, oracle, cfg, perturb_rng)
            snapshots.append(state.theta.copy())

        assert rec.iterations == state.n - 1 == iterations
        assert rec.evals_used == oracle.evals_used == iterations * cost
        assert rec.trajectory.tobytes() == np.asarray(snapshots).tobytes()
        assert rec.theta_final.tobytes() == state.theta.tobytes()


class TestNonFiniteMidBlock:
    @pytest.mark.parametrize(
        "hessian,reuse,calls_per_iteration",
        [(True, True, 1), (True, False, 2), (False, True, 1)],
        ids=["newton-reuse", "newton-fresh", "gradient"],
    )
    def test_raises_at_the_failing_call(self, monkeypatch, hessian, reuse, calls_per_iteration):
        # the objective turns NaN on the last call of an iteration in the
        # middle of the second block: without reuse, the gradient's own probe
        iteration = _BLOCK + _BLOCK // 2
        bad_call = iteration * calls_per_iteration
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
        cfg = NewtonConfig(
            objective=objective, budget=3000, k=1, reuse=reuse, seed=0,
            algorithm="newton" if hessian else "gradient_only",
        )
        with pytest.raises(NonFiniteEvaluation):
            run_newton(cfg)
        assert seen["calls"] == bad_call
        cost = iteration_cost(1, reuse) if hessian else 2
        assert oracles[0].evals_used == iteration * cost


class TestNewtonConfig:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("k", 0), ("record_stride", 0), ("eps_pd", 0.0), ("eps_pd", -1.0), ("eps_pd", np.nan),
            ("algorithm", "gradient-only"),
        ],
    )
    def test_invalid_values_raise_when_built(self, name, value):
        # before any run, so gradient-only configs are checked the same way
        with pytest.raises(ValueError, match=f"^{name} must be"):
            NewtonConfig(objective=QUAD, budget=30, **{name: value})

    def test_budget_is_checked_against_its_algorithm_when_built(self):
        # one Newton iteration at k = 1 costs 3 evaluations, a gradient-only one 2
        with pytest.raises(BudgetTooSmall, match=r"^budget 2 .* \(3 evaluations\)$"):
            NewtonConfig(objective=QUAD, budget=2)
        cfg = NewtonConfig(objective=QUAD, budget=2, algorithm="gradient_only")
        assert cfg.budget == 2
        with pytest.raises(FrozenInstanceError):
            cfg.budget = 1  # a built config stays checked


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
            NewtonConfig(
                objective=QUAD, budget=30, k=1, record_stride=0, algorithm="gradient_only"
            )
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


def run_gradient_only(**kwargs):
    return run_newton(NewtonConfig(objective=QUAD, k=1, algorithm="gradient_only", **kwargs))


class TestGradientOnlyRun:
    def test_budget_accounting(self):
        rec = run_gradient_only(budget=10, seed=0)
        assert rec.algorithm == "gradient_only"
        assert rec.iterations == 5
        assert rec.evals_used == 10

    def test_converges_on_quadratic(self):
        errors = [
            run_gradient_only(budget=3000, seed=seed).final_parameter_error
            for seed in range(10)
        ]
        assert all(err < 1e-2 for err in errors)

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmall):
            run_gradient_only(budget=1)

    def test_same_seed_same_start_as_newton(self):
        a = run_newton(NewtonConfig(objective=QUAD, budget=9, k=1, seed=3))
        b = run_gradient_only(budget=9, seed=3)
        assert np.array_equal(a.theta_init, b.theta_init)
