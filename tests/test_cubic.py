"""Cubic model solver: closed forms, certificates, sizing, and the outer loop."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import grdsa.newton as newton_mod
from grdsa.cubic import (
    ALPHA_FLOOR,
    CubicConfig,
    _batched_estimates,
    crzon_step,
    cubic_model_value,
    from_epsilon,
    run_crzon,
    solve_cubic_subproblem,
)
from grdsa.estimators import (
    NonFiniteEvaluation,
    batch_hessian,
    gradient_mean,
    gradient_samples,
    hessian_mean,
    probe,
)
from grdsa.oracle import (
    BudgetedOracle,
    BudgetTooSmall,
    LinearGaussianNoise,
    Objective,
    quadratic,
    quartic,
    rastrigin,
    saddle_quartic,
)
from grdsa.perturb import gaussian, gradient_unbias_factor, uniform
from grdsa.stencils import OrderError

A = np.array([[2.0, 0.5], [0.5, 4.0]])
B = np.array([0.3, -0.2])


class TestModelValue:
    def test_hand_computed(self):
        g = np.array([1.0, 0.0])
        s = np.array([-2.0, 0.0])
        val = cubic_model_value(g, np.eye(2), 3.0, s)
        assert val == pytest.approx(-2.0 + 2.0 + 0.5 * 8.0)

    def test_zero_step(self):
        assert cubic_model_value(np.ones(3), np.eye(3), 1.0, np.zeros(3)) == 0.0


class TestSolveCubicSubproblem:
    def test_golden_ratio_radius(self):
        # g = e1, H = I, alpha = 2: the radius solves r^2 + r = 1
        sol = solve_cubic_subproblem(np.array([1.0, 0.0]), np.eye(2), 2.0, tol=1e-12)
        gold = (math.sqrt(5.0) - 1.0) / 2.0
        assert sol.radius == pytest.approx(gold, abs=1e-12)
        assert np.allclose(sol.step, [-gold, 0.0], atol=1e-12)
        assert not sol.hard_case

    def test_identity_hessian_closed_form(self):
        # with H = I the secular equation is scalar:
        # (alpha/2) r^2 + r = |g|
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = rng.normal(size=4)
            alpha = float(rng.uniform(0.5, 4.0))
            gnorm = float(np.linalg.norm(g))
            expected = (-1.0 + math.sqrt(1.0 + 2.0 * alpha * gnorm)) / alpha
            sol = solve_cubic_subproblem(g, np.eye(4), alpha, tol=1e-12)
            assert sol.radius == pytest.approx(expected, abs=1e-9)
            assert np.allclose(sol.step, -g / gnorm * expected, atol=1e-8)

    @pytest.mark.parametrize(
        "g,alpha,step",
        [([1.0, 0.0], 2.0, [-1.0, 0.0]), ([3.0, -4.0, 0.0], 0.1, [-6.0, 8.0, 0.0])],
    )
    def test_zero_hessian_closed_form(self, g, alpha, step):
        # with H = 0 the first bracket guess is the root itself, so phi(r_hi)
        # equals r_hi and the bracket is doubled once;
        # the step is -g sqrt(2 / (alpha |g|))
        g = np.array(g)
        sol = solve_cubic_subproblem(g, np.zeros((g.size, g.size)), alpha)
        assert np.allclose(sol.step, -g * math.sqrt(2.0 / (alpha * np.linalg.norm(g))),
                           rtol=1e-15, atol=0.0)
        assert np.array_equal(sol.step, step)
        assert not sol.hard_case

    def test_descent_against_gradient(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = rng.normal(size=3)
            h = rng.normal(size=(3, 3))
            h = 0.5 * (h + h.T)
            sol = solve_cubic_subproblem(g, h, 2.0)
            assert sol.model_value <= 0.0

    def test_hard_case(self):
        # g orthogonal to the bottom eigenvector: radius pinned at
        # -2 lambda_min / alpha with an explicit bottom-direction component
        g = np.array([0.0, 1.0])
        h = np.diag([-2.0, 1.0])
        sol = solve_cubic_subproblem(g, h, 2.0)
        assert sol.hard_case
        assert sol.radius == pytest.approx(2.0)
        assert sol.step[1] == pytest.approx(-1.0 / 3.0)
        assert abs(sol.step[0]) == pytest.approx(math.sqrt(4.0 - 1.0 / 9.0))
        assert sol.stationarity <= 1e-8

    def test_hard_case_certificate(self):
        h = np.diag([-2.0, 1.0])
        sol = solve_cubic_subproblem(np.array([0.0, 1.0]), h, 2.0)
        shifted = h + 0.5 * 2.0 * sol.radius * np.eye(2)
        assert np.linalg.eigvalsh(shifted)[0] >= -1e-12

    def test_zero_gradient_convex(self):
        sol = solve_cubic_subproblem(np.zeros(3), np.diag([1.0, 2.0, 3.0]), 1.5)
        assert sol.radius == 0.0
        assert np.array_equal(sol.step, np.zeros(3))
        assert sol.model_value == 0.0

    def test_zero_gradient_negative_curvature(self):
        # the model still descends along the bottom eigenvector
        sol = solve_cubic_subproblem(np.zeros(2), np.diag([-3.0, 1.0]), 3.0)
        assert sol.hard_case
        assert sol.radius == pytest.approx(2.0)
        assert sol.model_value == pytest.approx(-2.0)
        assert abs(sol.step[0]) == pytest.approx(2.0)

    def test_zero_gradient_subnormal_negative_curvature(self):
        # -lambda_min / (alpha/2) underflows to 0, yet g = 0 with lambda_min < 0
        # is still the hard case: no secular iteration, and a +0.0 step
        sol = solve_cubic_subproblem(np.zeros(1), np.diag([-5.66e-321]), 11563.0)
        assert sol.hard_case and sol.iterations == 0
        assert sol.radius == 0.0 and not np.signbit(sol.step).any()

    def test_global_optimality_certificate(self):
        """H + (alpha/2) |s| I psd plus a tiny residual certifies globality."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            g = rng.normal(size=d) * rng.uniform(0.0, 3.0)
            h = rng.normal(size=(d, d))
            h = 0.5 * (h + h.T) * rng.uniform(0.2, 3.0)
            alpha = float(rng.uniform(0.2, 5.0))
            sol = solve_cubic_subproblem(g, h, alpha, tol=1e-10)
            shifted = h + 0.5 * alpha * sol.radius * np.eye(d)
            assert np.linalg.eigvalsh(shifted)[0] >= -1e-8
            assert sol.stationarity <= 1e-9 * max(1.0, float(np.linalg.norm(g)))

    def test_beats_random_probes(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=3)
        h = rng.normal(size=(3, 3))
        h = 0.5 * (h + h.T)
        alpha = 1.7
        sol = solve_cubic_subproblem(g, h, alpha)
        probes = rng.normal(size=(500, 3)) * rng.uniform(0.1, 3.0, size=(500, 1))
        for p in probes:
            assert sol.model_value <= cubic_model_value(g, h, alpha, p) + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_cubic_subproblem(np.ones(2), np.eye(2), 0.0)
        with pytest.raises(ValueError, match="alpha must be > 0 and finite, got inf"):
            solve_cubic_subproblem(np.ones(2), np.eye(2), np.inf)
        with pytest.raises(ValueError):
            solve_cubic_subproblem(np.ones(3), np.eye(2), 1.0)
        with pytest.raises(ValueError):
            solve_cubic_subproblem(np.array([np.nan, 0.0]), np.eye(2), 1.0)


class TestCubicConfig:
    def test_alpha_explicit_wins(self):
        cfg = CubicConfig(objective=saddle_quartic(), alpha=2.5)
        assert cfg.alpha_value() == 2.5

    def test_alpha_from_third_derivative_bound(self):
        assert CubicConfig(objective=saddle_quartic()).alpha_value() == pytest.approx(18.0)

    def test_alpha_floor_for_quadratics(self):
        cfg = CubicConfig(objective=quadratic(np.eye(2)))
        assert cfg.alpha_value() == ALPHA_FLOOR

    def test_alpha_missing_bound_rejected(self):
        with pytest.raises(ValueError):
            CubicConfig(objective=quartic(2)).alpha_value()

    def test_alpha_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            CubicConfig(objective=saddle_quartic(), alpha=-1.0).alpha_value()

    @pytest.mark.parametrize("name", ["delta", "alpha"])
    def test_infinite_value_rejected_when_built(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            CubicConfig(objective=saddle_quartic(), **{name: float("inf")})

    @pytest.mark.parametrize(
        "name,value",
        [("n_steps", 2.5), ("m", 10.5), ("b", 10.5), ("seed", 1.5), ("budget", 1e6),
         ("m", np.float64(10.0)),
         # bool subclasses int, but True is not a count
         ("m", True), ("b", True), ("n_steps", True), ("seed", True), ("budget", True),
         ("k", True), ("m", np.True_)],
    )
    def test_non_integer_count_rejected_when_built(self, name, value):
        # before any run: a float count would fail inside it
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            CubicConfig(objective=saddle_quartic(), **{name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = CubicConfig(
            objective=saddle_quartic(), n_steps=np.int64(2), m=np.int32(4), b=np.int64(4),
            seed=np.int64(1), budget=np.int64(10**6),
        )
        assert run_crzon(cfg).evals_used == 2 * cfg.step_cost()

    def test_step_cost(self):
        cfg = CubicConfig(objective=saddle_quartic(), k=1, m=200, b=400)
        assert cfg.step_cost() == 200 * 2 + 400 * 3
        reuse = CubicConfig(objective=saddle_quartic(), k=2, m=5, b=4, reuse=True)
        assert reuse.step_cost() == 4 * 5 + 1 * 3
        covered = CubicConfig(objective=saddle_quartic(), k=2, m=3, b=5, reuse=True)
        assert covered.step_cost() == 5 * 5


class TestFromEpsilon:
    @pytest.mark.parametrize(
        "name", ["n_prefactor", "m_prefactor", "b_prefactor", "delta_prefactor"]
    )
    def test_infinite_prefactor_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            from_epsilon(saddle_quartic(), 0.25, **{name: float("inf")})

    def test_exact_ceiling_laws(self):
        cfg = from_epsilon(saddle_quartic(), 0.25, k=1)
        assert cfg.n_steps == math.ceil(0.25**-1.5)
        assert cfg.m == 256
        assert cfg.b == 1024
        assert cfg.delta == pytest.approx(0.25)
        assert cfg.epsilon == 0.25

    def test_order_two_exponents(self):
        cfg = from_epsilon(saddle_quartic(), 0.25, k=2)
        assert cfg.m == 64
        assert cfg.b == 64
        assert cfg.delta == pytest.approx(0.5)

    def test_prefactors_scale(self):
        cfg = from_epsilon(saddle_quartic(), 0.25, k=1, m_prefactor=2.0)
        assert cfg.m == 512

    def test_epsilon_validated(self):
        for eps in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                from_epsilon(saddle_quartic(), eps)
        with pytest.raises(ValueError):
            from_epsilon(saddle_quartic(), 0.5, k=0)

    @pytest.mark.parametrize(
        "k,message", [(1.5, "k must be an integer"), (13, "exceeds the supported cap")]
    )
    def test_order_checked_before_sizing(self, k, message):
        # at this epsilon the sizes overflow, so only an early check names k
        with pytest.raises(OrderError, match=message):
            from_epsilon(saddle_quartic(), 1e-300, k=k)
        with pytest.raises(OrderError, match=message):
            CubicConfig(objective=saddle_quartic(), k=k)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"epsilon": 1e-300},
             "n_steps = 1.0 * epsilon**-1.5 overflows at epsilon = 1e-300 "
             "(Numerical result out of range)"),
            ({"epsilon": 0.5, "m_prefactor": 1e308},
             "m = 1e+308 * epsilon**-4 overflows at epsilon = 0.5 "
             "(cannot convert float infinity to integer)"),
            ({"epsilon": 1e-150, "k": 2},
             "m = 1.0 * epsilon**-3 overflows at epsilon = 1e-150 (Numerical result out of range)"),
        ],
    )
    def test_overflowing_size_is_named(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            from_epsilon(saddle_quartic(), **kwargs)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"epsilon": 1e-50},
             "m = 1.0 * epsilon**-4 = 1e+200 at epsilon = 1e-50 is too large: "
             "a (m, 2) batch of draws exceeds numpy's largest array"),
            ({"epsilon": 1e-50, "m_prefactor": 1e-200},
             "b = 1.0 * epsilon**-5 = 1e+250 at epsilon = 1e-50 is too large: "
             "a (b, 2) batch of draws exceeds numpy's largest array"),
        ],
    )
    def test_batch_beyond_numpys_largest_array_is_named(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            from_epsilon(saddle_quartic(), **kwargs)
        assert str(raised.value) == message

    @pytest.mark.parametrize("name", ["m", "b"])
    def test_batch_size_limit_is_numpys(self, name):
        # numpy's largest float64 array: 8 bytes a float, counted in intp
        largest = np.iinfo(np.intp).max // 8 // 2
        CubicConfig(objective=saddle_quartic(), **{name: largest})
        with pytest.raises(ValueError, match="array is too big"):
            gaussian().sample(np.random.default_rng(0), (largest + 1, 2))
        with pytest.raises(ValueError) as raised:
            CubicConfig(objective=saddle_quartic(), **{name: largest + 1})
        assert str(raised.value) == (
            f"{name} = {largest + 1} is too large: "
            f"a ({name}, 2) batch of draws exceeds numpy's largest array"
        )

    def test_kwargs_forwarded(self):
        cfg = from_epsilon(saddle_quartic(), 0.5, seed=9, reuse=True)
        assert cfg.seed == 9 and cfg.reuse


class TestCrzonStep:
    def test_moves_toward_quadratic_optimum(self):
        obj = quadratic(A, B)
        opt = np.linalg.solve(A, -B)
        cfg = CubicConfig(
            objective=obj, k=2, m=120, b=160, delta=0.05, alpha=1.0, seed=1
        )
        theta = np.array([2.0, 2.0])
        rng = np.random.default_rng(1)
        for _ in range(3):
            theta, sol = crzon_step(theta, BudgetedOracle(obj), cfg, rng)
            assert sol.stationarity <= 1e-6
        d0 = np.linalg.norm(np.array([2.0, 2.0]) - opt)
        assert np.linalg.norm(theta - opt) < d0 / 4.0

    @pytest.mark.parametrize("literal", [False, True], ids=["matched", "literal"])
    @pytest.mark.parametrize("spec", [gaussian(), uniform(1.5)], ids=["gaussian", "uniform"])
    def test_reuse_hessian_is_batch_hessian(self, spec, literal):
        # the reuse path averages its Hessian draws through the same call
        cfg = CubicConfig(
            objective=quartic(3), k=2, m=40, b=32, delta=0.1, alpha=2.0,
            perturbation=replace(spec, paper_literal_scaling=literal), reuse=True,
        )
        theta = np.array([0.5, -0.3, 0.8])
        hess, _ = _batched_estimates(
            theta, BudgetedOracle(cfg.objective), cfg, np.random.default_rng(3)
        )
        directions = cfg.perturbation.sample(np.random.default_rng(3), (cfg.b, theta.size))
        expected = batch_hessian(
            BudgetedOracle(cfg.objective), theta, directions, cfg.delta, cfg.k, cfg.k,
            cfg.perturbation,
        )
        assert np.array_equal(hess, expected)

    @pytest.mark.parametrize("spec", [gaussian(), uniform(0.7)], ids=["gaussian", "uniform"])
    @pytest.mark.parametrize("reuse", [True, False])
    @pytest.mark.parametrize("m", [16, 32, 128])
    def test_gradient_is_gradient_mean(self, spec, reuse, m):
        # the step's gradient is gradient_mean over its draws: bit for bit
        # when they come from one batch, to rounding when reuse mixes the
        # Hessian batch's rows with fresh ones
        cfg = CubicConfig(
            objective=rastrigin(4), k=2, m=m, b=32, delta=0.1, alpha=2.0,
            noise=LinearGaussianNoise(0.01), perturbation=spec, reuse=reuse,
        )
        theta = np.array([0.5, -0.3, 0.8, 0.1])
        hess, grad = _batched_estimates(theta, self._oracle(cfg), cfg, np.random.default_rng(3))
        k, delta, rng, oracle = cfg.k, cfg.delta, np.random.default_rng(3), self._oracle(cfg)
        dirs = spec.sample(rng, (cfg.b, theta.size))
        values = probe(oracle, theta, dirs, delta, 2 * k + 1)
        assert hess.tobytes() == hessian_mean(values, dirs, delta, k, k, spec).tobytes()
        shared = min(m, cfg.b) if reuse else 0
        batches = [(values[:shared], dirs[:shared])] if shared else []
        if m > shared:
            fresh = spec.sample(rng, (m - shared, theta.size))
            batches.append((probe(oracle, theta, fresh, delta, k + 1), fresh))
        if len(batches) == 1:
            want = gradient_mean(*batches[0], delta, k, spec)
            assert grad.tobytes() == want.tobytes()
        else:
            factor = gradient_unbias_factor(spec)
            samples = [gradient_samples(v, factor * d, delta, k) for v, d in batches]
            want = np.concatenate(samples).mean(axis=0)
            assert np.allclose(grad, want, rtol=1e-12, atol=0)

    @staticmethod
    def _oracle(cfg):
        return BudgetedOracle(cfg.objective, cfg.noise, None, np.random.default_rng(8))

    @pytest.mark.parametrize("reuse", [True, False])
    @pytest.mark.parametrize("m,b", [(1024, 1024), (4096, 1024), (8192, 8192)])
    def test_step_memory_is_a_few_direction_batches(self, m, b, reuse, peak_bytes):
        # no (b, d, d) scaling stack, no (b, 2k+1, d) point array, no
        # second (b, d) weight array and no (m, d) gradient draws: the probe
        # streams its points, the Hessian mean sums block by block and the
        # gradient mean is one product per batch, so a step holds one
        # (max(m, b), d) batch plus one probe block
        d = 50
        cfg = CubicConfig(
            objective=rastrigin(d), k=1, m=m, b=b, delta=0.1, alpha=2.0, reuse=reuse
        )
        oracle, rng = BudgetedOracle(cfg.objective), np.random.default_rng(0)
        peak = peak_bytes(lambda: crzon_step(np.full(d, 0.5), oracle, cfg, rng))
        # at (8192, 8192) the probe block is small beside the batch; with
        # reuse at (4096, 1024) the fresh (m - b, d) batch is the largest
        batches = 1.25 if (m, b) == (8192, 8192) or (m > b and reuse) else 2.0
        assert peak < batches * max(m, b) * d * 8


class TestRunCrzon:
    def test_budget_identity_without_reuse(self):
        cfg = CubicConfig(
            objective=quadratic(A, B), k=1, n_steps=3, m=7, b=5, delta=0.05,
            alpha=1.0, seed=0,
        )
        rep = run_crzon(cfg)
        assert rep.evals_used == 3 * (7 * 2 + 5 * 3)
        assert rep.iterations == 3

    def test_budget_identity_with_reuse(self):
        cfg = CubicConfig(
            objective=quadratic(A, B), k=2, n_steps=2, m=5, b=4, delta=0.05,
            alpha=1.0, seed=0, reuse=True,
        )
        assert run_crzon(cfg).evals_used == 2 * cfg.step_cost()
        cfg2 = CubicConfig(
            objective=quadratic(A, B), k=2, n_steps=2, m=3, b=5, delta=0.05,
            alpha=1.0, seed=0, reuse=True,
        )
        assert run_crzon(cfg2).evals_used == 2 * cfg2.step_cost()

    def test_single_step_report(self):
        cfg = CubicConfig(
            objective=quadratic(A, B), k=1, n_steps=1, m=4, b=4, delta=0.05,
            alpha=1.0, seed=3,
        )
        rep = run_crzon(cfg)
        assert rep.r_index == 1
        assert rep.iterations == 1
        assert np.array_equal(rep.theta_r, rep.theta_final)

    def test_budget_stops_midway(self):
        cfg = CubicConfig(
            objective=quadratic(A, B), k=1, n_steps=5, m=4, b=4, delta=0.05,
            alpha=1.0, seed=0, budget=2 * (4 * 2 + 4 * 3) + 5,
        )
        rep = run_crzon(cfg)
        assert rep.iterations == 2
        assert rep.evals_used == 2 * (4 * 2 + 4 * 3)
        assert 1 <= rep.r_index <= 2

    @staticmethod
    def trajectory(cfg, steps):
        """The bytes of each of a run's first ``steps`` iterates, by a
        ``crzon_step`` loop on the run's own streams and oracle, drawn as
        ``run_crzon`` draws them; and the evaluations they used."""
        init_rng, perturb_rng, noise_rng, _ = newton_mod._spawn_streams(cfg.seed, 4)
        theta = newton_mod._initial_theta(cfg.theta0, cfg.objective.dim, init_rng)
        oracle = BudgetedOracle(cfg.objective, cfg.noise, cfg.budget, noise_rng)
        rows = []
        for _ in range(steps):
            theta, _ = crzon_step(theta, oracle, cfg, perturb_rng)
            rows.append(theta.tobytes())
        return rows, oracle.evals_used

    @pytest.mark.parametrize("n_steps,budget,steps", [(5, 45, 2), (2, 200, 2), (3, None, 3)])
    def test_trajectory_is_one_row_per_step(self, n_steps, budget, steps):
        # a step costs 20, so the run takes n_steps, capped by what the budget buys
        cfg = CubicConfig(
            objective=quadratic(A, B), k=1, n_steps=n_steps, m=4, b=4, delta=0.05,
            alpha=1.0, seed=0, budget=budget,
        )
        rep = run_crzon(cfg)
        rows, evals = self.trajectory(cfg, steps)
        assert rep.iterations == steps
        assert rep.evals_used == evals == steps * cfg.step_cost()
        assert rep.theta_final.tobytes() == rows[-1]
        assert rep.theta_r.tobytes() == rows[rep.r_index - 1]

    # seeds 1, 7 and 0 draw R = 1, 2 and 4 of 4 steps: the first, one
    # between and the last
    @pytest.mark.parametrize("seed,r_index", [(1, 1), (7, 2), (0, 4)])
    def test_theta_r_is_that_step_of_the_loop(self, seed, r_index):
        cfg = CubicConfig(
            objective=quadratic(A, B), k=1, n_steps=4, m=4, b=4, delta=0.05,
            alpha=1.0, noise=LinearGaussianNoise(0.01), seed=seed,
        )
        rep = run_crzon(cfg)
        rows, evals = self.trajectory(cfg, 4)
        assert rep.r_index == r_index
        assert rep.theta_r.tobytes() == rows[r_index - 1]
        assert rep.theta_final.tobytes() == rows[-1]
        assert rep.evals_used == evals

    def test_budget_too_small_raises_before_consuming(self):
        with pytest.raises(BudgetTooSmall):
            CubicConfig(
                objective=quadratic(A, B), k=1, n_steps=2, m=4, b=4, delta=0.05,
                alpha=1.0, budget=10,
            )
        cfg = CubicConfig(objective=quadratic(A, B), m=4, b=4, alpha=1.0, budget=20)
        with pytest.raises(FrozenInstanceError):
            cfg.budget = 10  # a built config stays checked

    @pytest.mark.parametrize("reuse", [False, True])
    def test_nonfinite_objective_raises(self, reuse):
        obj = Objective(
            name="nan", dim=2, value=lambda x: np.full(np.shape(x)[:-1], np.nan)
        )
        cfg = CubicConfig(
            objective=obj, k=1, n_steps=2, m=4, b=4, delta=0.05, alpha=1.0,
            reuse=reuse,
        )
        with pytest.raises(NonFiniteEvaluation):
            run_crzon(cfg)

    def test_deterministic_given_seed(self):
        cfg = CubicConfig(
            objective=quadratic(A, B), k=1, n_steps=3, m=6, b=6, delta=0.05,
            alpha=1.0, seed=11,
        )
        a, b = run_crzon(cfg), run_crzon(cfg)
        assert np.array_equal(a.theta_final, b.theta_final)
        assert a.r_index == b.r_index
        assert np.array_equal(a.theta_r, b.theta_r)

    def test_theta0_and_parameter_validation(self):
        base = dict(objective=quadratic(A, B), m=4, b=4, delta=0.05, alpha=1.0)
        with pytest.raises(ValueError):
            run_crzon(CubicConfig(k=0, n_steps=1, **base))
        with pytest.raises(ValueError):
            run_crzon(CubicConfig(k=1, n_steps=0, **base))
        start = np.array([0.2, -0.4])
        rep = run_crzon(CubicConfig(k=1, n_steps=1, theta0=start, **base))
        assert np.array_equal(rep.theta_init, start)

    @pytest.mark.parametrize("reuse", [False, True])
    @pytest.mark.parametrize("name", ["m", "b"])
    def test_empty_batch_rejected(self, name, reuse):
        base = dict(objective=quadratic(A, B), m=4, b=4, delta=0.05, alpha=1.0, reuse=reuse)
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            run_crzon(CubicConfig(**{**base, name: 0}))

    def test_diagnostics_nan_without_derivatives(self):
        obj = Objective(
            name="valueonly", dim=2, value=lambda x: np.sum(np.asarray(x) ** 2, axis=-1)
        )
        cfg = CubicConfig(
            objective=obj, k=1, n_steps=1, m=4, b=4, delta=0.05, alpha=1.0, seed=0
        )
        rep = run_crzon(cfg)
        assert math.isnan(rep.grad_norm_at_r)
        assert math.isnan(rep.lambda_min_at_r)

    def test_escapes_saddle_noiselessly(self):
        # deterministic sanity run: starting beside the strict saddle, the
        # reported iterate reaches positive-curvature territory
        cfg = CubicConfig(
            objective=saddle_quartic(), k=1, n_steps=10, m=100, b=200,
            delta=0.1, seed=0, theta0=np.array([0.01, 0.01]),
        )
        rep = run_crzon(cfg)
        assert rep.lambda_min_at_r > -0.5
