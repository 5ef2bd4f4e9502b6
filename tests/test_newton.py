"""Schedules, projection, the eigenvalue-lifted solve, and the two-timescale loop."""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grdsa.newton as newton_mod
from grdsa.estimators import (
    BLOCK_FLOATS,
    NonFiniteEvaluation,
    gradient_samples,
    hessian_samples,
    probe,
    ray_offsets,
)
from grdsa.newton import (
    INIT_RANGE,
    Box,
    NewtonConfig,
    Schedules,
    _block_rows,
    _iterations,
    _lifted_solve,
    iteration_cost,
    run_newton,
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
from grdsa.perturb import gaussian, gradient_unbias_factor, scaling_matrices, uniform

QUAD = quadratic(np.diag([2.0, 4.0]))
#: the multi-block tests' dimension: a block of draws holds 32-57 Newton
#: iterations at k <= 4, and 130-248 gradient-only ones
DIM = 10


def _schedule(s, n):
    """``(a(n), b(n), delta(n))`` of ``s`` from the formulas of its docstring."""
    return (
        s.a0 / (n + s.big_a) ** s.alpha,
        s.b0 / (n + s.big_b) ** s.beta,
        s.delta0 / n**s.gamma,
    )


class TestSchedules:
    def test_formulas(self):
        s = Schedules()
        a, b, delta = s._over(range(1, 65))
        assert a[0] == pytest.approx(0.9 / 21.0**0.9)
        assert b[0] == pytest.approx(0.9 / 11.0**0.56)
        assert delta[0] == pytest.approx(0.9)
        assert delta[63] == pytest.approx(0.9 / 64.0**0.16667)

    def test_block_equals_the_formulas_bitwise(self):
        # the reference iteration reads _schedule, so this pins what runs
        custom = Schedules(a0=0.3, big_a=0.0, alpha=0.6, b0=2.5, beta=0.7, delta0=1e-3, gamma=0.4)
        for s, first in itertools.product((Schedules(), custom), (1, 65, 10_001)):
            ns = range(first, first + 64)
            rows = list(zip(*s._over(ns)))
            assert len(rows) == 64
            assert rows == [_schedule(s, n) for n in ns]

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

    @pytest.mark.parametrize(
        "name", ["a0", "big_a", "alpha", "b0", "big_b", "beta", "delta0", "gamma"]
    )
    def test_infinite_value_raises_naming_the_field(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            Schedules(**{name: float("inf")})

    def test_zero_offsets_allowed(self):
        assert Schedules(big_a=0.0, big_b=0.0)._over(range(1, 2))[0][0] == 0.9

    def test_monotone_decreasing(self):
        for seq in Schedules()._over(range(1, 200)):
            assert np.all(np.diff(seq) < 0)


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
    def test_defaults(self):
        box = Box()
        assert (box.lower, box.upper) == (-5.12, 5.12)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box(1.0, 1.0)
        with pytest.raises(ValueError):
            Box(2.0, -2.0)

    def test_infinite_bound_rejected(self):
        # the projected scheme's analysis needs a compact box, so a
        # half-line is a config error
        with pytest.raises(ValueError, match=r"^upper must be finite, got inf$"):
            Box(upper=float("inf"))
        with pytest.raises(ValueError, match=r"^lower must be finite, got -inf$"):
            Box(lower=-float("inf"))
        # finiteness is checked first: NaN fails every comparison, so the
        # order check would call the box empty
        with pytest.raises(ValueError, match=r"^upper must be finite, got nan$"):
            Box(upper=float("nan"))
        with pytest.raises(ValueError, match=r"^lower must be finite, got nan$"):
            Box(lower=float("nan"))


class TestProjection:
    """The iteration projects with one call of numpy's ``clip`` ufunc, in
    place into the step, as the reference does with max-then-min."""

    SPECIAL = [
        np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320,
        1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300,
    ]

    @pytest.mark.parametrize(
        "lower,upper",
        [(-5.12, 5.12), (-0.5, 0.5), (0.5, 2.0), (-2.0, -0.5), (1e-320, 1.0), (-1.0, -1e-320),
         (5e-324, 1e-320), (-1e300, 1e300)],
    )
    def test_equals_max_then_min_for_nonzero_bounds(self, lower, upper):
        bounds = [lower, upper]
        # each bound, its neighbours and its mirror image
        near = [np.nextafter(v, away) for v in bounds for away in (-np.inf, np.inf)]
        x = np.array(self.SPECIAL + bounds + near + [-lower, -upper, 2 * lower, 2 * upper])
        expected = np.minimum(np.maximum(x, lower), upper)
        step = x.copy()
        projected = newton_mod._clip(step, np.array(lower), np.array(upper), step)
        assert projected is step
        assert projected.tobytes() == expected.tobytes()

    def test_a_zero_bound_keeps_the_sign_of_a_zero(self):
        # recorded as it is: with a zero bound, clip keeps the -0.0 that
        # max-then-min turns into the bound's +0.0; every other bit agrees
        x = np.array([-0.0, 0.0, -1e-320, -1.0, 0.5, 2.0, np.nan])
        projected = newton_mod._clip(x, np.array(0.0), np.array(1.0))
        expected = np.minimum(np.maximum(x, 0.0), 1.0)
        assert np.signbit(projected[0]) and not np.signbit(expected[0])
        assert projected[1:].tobytes() == expected[1:].tobytes()


def _lifted(sym, eps_pd=0.1):
    """``sym`` with its eigenvalues lifted to ``eps_pd``."""
    w, v = np.linalg.eigh(sym)
    return (v * np.maximum(w, eps_pd)) @ v.T


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

    def test_well_conditioned_passthrough(self):
        h = np.array([[2.0, 0.5], [0.5, 4.0]])
        g = np.array([0.4, -0.9])
        assert np.allclose(_lifted_solve(h, g, 0.1), np.linalg.solve(h, g))
        # an identity average reduces to the gradient
        assert np.allclose(_lifted_solve(np.eye(2), g, 0.1), g)

    def test_lifts_eigenvalues_below_the_floor(self):
        # eigenvalue -1 is lifted to 0.1, so that component is divided by 0.1
        g = np.array([1.0, 1.0])
        assert np.allclose(_lifted_solve(np.diag([-1.0, 3.0]), g, 0.1), [10.0, 1.0 / 3.0])
        g = np.array([0.3, -0.2, 0.5])
        assert np.allclose(_lifted_solve(np.zeros((3, 3)), g, 0.1), g / 0.1)

    def test_step_bounded_by_the_floor(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = rng.normal(size=(4, 4))
            g = rng.normal(size=4)
            out = _lifted_solve(0.5 * (h + h.T), g, 0.25)
            assert np.linalg.norm(out) <= np.linalg.norm(g) / 0.25 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_the_explicit_lift(self, seed: int):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(3, 3)) * rng.uniform(0.1, 10)
        sym = 0.5 * (h + h.T)
        g = rng.normal(size=3)
        lifted = _lifted(sym)
        assert np.linalg.eigvalsh(lifted)[0] >= 0.1 - 1e-10
        out = _lifted_solve(sym, g, 0.1)
        assert np.allclose(lifted @ out, g, atol=1e-9)
        assert np.allclose(out, np.linalg.solve(lifted, g), atol=1e-10)
        # the lifted operator is positive definite, so -s descends along g
        assert g @ out > 0

    def test_lapack_failure_raises(self, monkeypatch):
        # a failed LAPACK call comes back filled with NaN
        def failed(sym, signature):
            d = sym.shape[-1]
            return np.full(d, np.nan), np.full((d, d), np.nan)

        monkeypatch.setattr(newton_mod, "eigh_lo", failed)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _lifted_solve(np.eye(3), np.ones(3), 0.1)

    def test_infinite_matrix_raises(self):
        # eigh returns NaN eigenvalues here; the solve refuses them
        h = np.array([[np.inf, 1.0], [1.0, 2.0]])
        assert np.isnan(np.linalg.eigh(h)[0]).all()
        with pytest.raises(np.linalg.LinAlgError):
            _lifted_solve(h, np.ones(2), 0.1)


class TestIterationCost:
    def test_values(self):
        assert iteration_cost(1) == 3
        assert iteration_cost(4) == 9
        assert iteration_cost(1, hessian=False) == 2
        assert iteration_cost(4, hessian=False) == 5

    def test_hessian_is_keyword_only(self):
        # keyword-only, so no positional flag is mistaken for hessian
        with pytest.raises(TypeError):
            iteration_cost(2, False)


class TestBlockRule:
    """``_iterations`` draws a block of ``_block_rows`` iterations at a time,
    as many as fit in ``BLOCK_FLOATS`` floats and at least one; the block
    size cannot change a run."""

    @pytest.mark.parametrize("hessian", [True, False], ids=["newton-reuse", "gradient"])
    @pytest.mark.parametrize("k,d", [(1, 10), (4, 10), (2, 100)])
    def test_blocks_fill_block_floats(self, monkeypatch, hessian, k, d):
        cost = iteration_cost(k, hessian=hessian)
        cfg = NewtonConfig(
            objective=rastrigin(d), budget=cost, k=k,
            algorithm="newton" if hessian else "gradient_only",
        )
        rows = _block_rows(cfg)
        # offsets and direction, the (d, d) scaling matrix, a(n), b(n), delta(n)
        floats = (cost + 1) * d + (d * d if hessian else 0) + 3
        assert rows == 1 or rows * floats <= BLOCK_FLOATS
        assert (rows + 1) * floats > BLOCK_FLOATS
        shapes = []

        def spy(directions, delta, shifts):
            shapes.append((len(shifts), *directions.shape))
            return ray_offsets(directions, delta, shifts)

        monkeypatch.setattr(newton_mod, "ray_offsets", spy)
        run_newton(replace(cfg, budget=(2 * rows + 1) * cost))
        assert shapes == [(cost, rows, d), (cost, rows, d), (cost, 1, d)]

    @pytest.mark.parametrize("hessian", [True, False], ids=["newton-reuse", "gradient"])
    def test_one_row_blocks_give_the_same_bits(self, monkeypatch, hessian):
        cfg = NewtonConfig(
            objective=rastrigin(DIM), budget=10**5, k=2,
            noise=LinearGaussianNoise(0.01), seed=5,
            algorithm="newton" if hessian else "gradient_only",
        )
        count = _block_rows(cfg) + 5

        def run():
            theta, oracle, rng = _run_start(cfg)
            steps = _iterations(theta, np.eye(DIM), oracle, cfg, rng, count)
            return [(t.tobytes(), h.tobytes()) for t, h in steps]

        blocked = run()
        monkeypatch.setattr(newton_mod, "BLOCK_FLOATS", 1)
        assert _block_rows(cfg) == 1
        assert run() == blocked


@pytest.fixture
def probes(monkeypatch):
    """Record every ``(points, values)`` probe the oracle evaluates."""
    calls = []
    real_evaluate = BudgetedOracle.evaluate_many

    def spy_evaluate(oracle, points):
        values = real_evaluate(oracle, points)
        calls.append((points, values))
        return values

    monkeypatch.setattr(BudgetedOracle, "evaluate_many", spy_evaluate)
    return calls


def _directions(cfg, count):
    """The first ``count`` directions a run of ``cfg`` draws."""
    perturb_rng = newton_mod._spawn_streams(cfg.seed, 3)[1]
    return cfg.perturbation.sample(perturb_rng, (count, cfg.objective.dim))


def _project(theta, box):
    return np.minimum(np.maximum(theta, box.lower), box.upper)


def _run_start(cfg):
    """A run's start, oracle and direction stream, drawn as ``run_newton``
    draws them."""
    init_rng, perturb_rng, noise_rng = newton_mod._spawn_streams(cfg.seed, 3)
    theta0 = init_rng.uniform(INIT_RANGE[0], INIT_RANGE[1], cfg.objective.dim)
    return theta0, BudgetedOracle(cfg.objective, cfg.noise, cfg.budget, noise_rng), perturb_rng


def _one_iteration(theta, hbar, oracle, cfg, rng):
    """Iteration 1 of ``cfg.algorithm`` by ``_iterations``; returns the new
    ``(theta, hbar)``."""
    ((theta, hbar),) = _iterations(theta, hbar, oracle, cfg, rng, 1)
    return theta, hbar


def _reference_step(theta, hbar, oracle, cfg, rng, n):
    """Iteration ``n`` of ``cfg.algorithm`` from ``(theta, hbar)``, built from
    the public estimators, the solve through ``np.linalg.eigh`` and an
    explicit projection; returns the new ``(theta, hbar)``."""
    k, spec = cfg.k, cfg.perturbation
    a, b, delta = _schedule(cfg.schedules, n)
    hessian = cfg.algorithm == "newton"
    direction = spec.sample(rng, (1, theta.size))
    values = probe(oracle, theta, direction, delta, 2 * k + 1 if hessian else k + 1)[0]
    grad_direction = gradient_unbias_factor(spec) * direction[0]
    if hessian:
        hess = hessian_samples(values, scaling_matrices(spec, direction)[0], delta, k, k)
        hbar = hbar + b * (hess - hbar)
        grad = gradient_samples(values, grad_direction, delta, k)
        step = _eigh_solve(hbar, grad, cfg.eps_pd)
    else:
        step = gradient_samples(values, grad_direction, delta, k)
    return _project(theta - a * step, cfg.box), hbar


class TestOneIteration:
    """``run_newton`` on a budget of one iteration from a set ``theta0``, read
    through the oracle calls it makes."""

    def test_average_update_and_move(self, probes):
        theta0 = np.array([1.0, 1.0])
        cfg = NewtonConfig(objective=QUAD, budget=3, k=1, seed=0, theta0=theta0)
        rec = run_newton(cfg)

        a1, b1, delta1 = _schedule(cfg.schedules, 1)
        direction = _directions(cfg, 1)
        [(points, values)] = probes
        # the probe steps delta(1) along the drawn direction
        offsets = ray_offsets(direction, delta1, range(3)).swapaxes(0, 1)
        assert np.allclose(points, theta0 + offsets[0])
        hess = hessian_samples(values, scaling_matrices(gaussian(), direction)[0], delta1, 1, 1)
        g0 = gradient_samples(values, direction[0], delta1, 1)
        hbar1 = np.eye(2) + b1 * (hess - np.eye(2))
        expected = _project(theta0 - a1 * _eigh_solve(hbar1, g0, cfg.eps_pd), cfg.box)
        assert np.allclose(rec.theta_final, expected, atol=1e-12)
        assert rec.iterations == 1

    @staticmethod
    def noisy_run(cfg):
        """One iteration from ``(0.5, -0.5)``, on a noisy oracle."""
        cost = iteration_cost(cfg.k)
        return run_newton(
            replace(cfg, budget=cost, noise=LinearGaussianNoise(0.1), theta0=np.array([0.5, -0.5]))
        )

    def test_reuse_passes_gradient_shift_prefix(self, probes):
        # one probe of 2k+1 shifts; the gradient reads its values
        cfg = NewtonConfig(objective=QUAD, k=2, seed=0)
        rec = self.noisy_run(cfg)
        assert [len(points) for points, _ in probes] == [5]
        assert rec.evals_used == 5
        a1, b1, delta1 = _schedule(cfg.schedules, 1)
        direction = _directions(cfg, 1)
        hess = hessian_samples(probes[0][1], scaling_matrices(gaussian(), direction)[0],
                               delta1, 2, 2)
        hbar1 = np.eye(2) + b1 * (hess - np.eye(2))
        g0 = gradient_samples(probes[0][1], direction[0], delta1, 2)
        expected = _project(rec.theta_init - a1 * _eigh_solve(hbar1, g0, cfg.eps_pd), cfg.box)
        assert np.allclose(rec.theta_final, expected, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_gradient_only_probe_and_clipped_move(self, probes, k):
        # a budget of k+1 buys one gradient-only iteration, not none at 2k+1
        theta0 = np.array([1.997, 1.99])
        cfg = NewtonConfig(
            objective=QUAD, budget=k + 1, k=k, seed=0, box=Box(0.5, 2.0), theta0=theta0,
            algorithm="gradient_only",
        )
        rec = run_newton(cfg)

        a1, _, delta1 = _schedule(cfg.schedules, 1)
        direction = _directions(cfg, 1)
        [(points, values)] = probes
        # one probe of k+1 shifts, delta(1) apart along the drawn direction
        offsets = ray_offsets(direction, delta1, range(k + 1)).swapaxes(0, 1)
        assert np.array_equal(points, theta0 + offsets[0])
        g0 = gradient_samples(values, direction[0], delta1, k)
        expected = _project(theta0 - a1 * g0, cfg.box)
        assert np.array_equal(rec.theta_final, expected)
        assert expected[0] == 2.0  # the projection is exercised
        assert rec.iterations == 1
        assert rec.evals_used == k + 1

    @pytest.mark.parametrize("k", [1, 3])
    def test_gradient_only_has_no_hessian_inputs(self, monkeypatch, probes, k):
        def no_scaling(*args):
            raise AssertionError("a gradient-only iteration formed scaling matrices")

        cfg = NewtonConfig(
            objective=QUAD, budget=k + 1, k=k, theta0=np.array([0.5, -0.5]),
            algorithm="gradient_only",
        )
        with monkeypatch.context() as patch:
            patch.setattr(newton_mod, "scaling_matrices", no_scaling)
            run_newton(cfg)
        run_newton(replace(cfg, budget=2 * k + 1, algorithm="newton"))
        (gradient_points, _), (newton_points, _) = probes
        assert gradient_points.shape == (k + 1, 2)
        assert newton_points.shape == (2 * k + 1, 2)
        # the same direction stream, so the gradient probe points agree
        assert newton_points[: k + 1].tobytes() == gradient_points.tobytes()


class TestOneCallPerIteration:
    @pytest.mark.parametrize("hessian", [True, False], ids=["newton-reuse", "gradient"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_iteration_is_one_call_of_its_cost(self, probes, hessian, k):
        # a noisy run over two blocks of draws
        cost = iteration_cost(k, hessian=hessian)
        cfg = NewtonConfig(
            objective=rastrigin(DIM), budget=cost, k=k,
            noise=LinearGaussianNoise(0.01), seed=3,
            algorithm="newton" if hessian else "gradient_only",
        )
        iterations = _block_rows(cfg) + 9
        rec = run_newton(replace(cfg, budget=iterations * cost))
        assert rec.iterations == iterations
        assert len(probes) == rec.iterations
        assert {points.shape for points, _ in probes} == {(cost, DIM)}


class TestIterationsAreThePublicUpdate:
    """``run_newton`` runs either algorithm as a flat loop over inputs drawn
    a block at a time; the update built from the public estimators one draw
    at a time must give the same bits: every iterate and every ``hbar``
    that ``_iterations`` yields, the run's last iterate, and the evaluations
    used."""

    @pytest.mark.parametrize(
        "objective", [rastrigin, quartic],
        # quartic: an objective whose value is written the plain way
        ids=["rastrigin", "quartic"],
    )
    @pytest.mark.parametrize("hessian", [True, False], ids=["newton-reuse", "gradient"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", [gaussian(), uniform(1.0)], ids=["gaussian", "uniform"])
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    @pytest.mark.parametrize("iterations", [5, 64, 71])
    def test_same_bits(self, objective, hessian, k, spec, sigma, iterations):
        # blocks of 32-57 Newton iterations at d = 10 and of 31-62
        # gradient-only ones at d = 43, so 64 and 71 iterations cross one
        cost = iteration_cost(k, hessian=hessian)
        cfg = NewtonConfig(
            objective=objective(DIM if hessian else 43),
            budget=iterations * cost + cost - 1,
            k=k,
            noise=LinearGaussianNoise(sigma),
            perturbation=spec,
            seed=7,
            algorithm="newton" if hessian else "gradient_only",
        )
        assert _block_rows(cfg) < 64
        self.assert_same_bits(cfg, iterations)

    @pytest.mark.parametrize(
        "box", [Box(-0.5, 0.5), Box(0.0, 1.0)], ids=["tight", "zero-bound"]
    )
    @pytest.mark.parametrize("hessian", [True, False], ids=["newton-reuse", "gradient"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_same_bits_where_the_box_clips(self, box, hessian, k):
        # runs start outside these boxes and keep leaving them, so the
        # iteration's clip meets the reference's max-then-min on the bounds
        iterations = 71
        cfg = NewtonConfig(
            objective=rastrigin(3),
            budget=iterations * iteration_cost(k, hessian=hessian),
            k=k,
            noise=LinearGaussianNoise(0.01),
            box=box,
            seed=7,
            algorithm="newton" if hessian else "gradient_only",
        )
        iterates = self.assert_same_bits(cfg, iterations)
        on_bound = (iterates == box.lower) | (iterates == box.upper)
        assert on_bound.mean() > 0.4

    @staticmethod
    def assert_same_bits(cfg, iterations):
        """Check a run of ``cfg`` against the reference; return the iterates
        ``_iterations`` yields."""
        rec = run_newton(cfg)
        cost = iteration_cost(cfg.k, hessian=cfg.algorithm == "newton")

        theta, oracle, rng = _run_start(cfg)
        ref_theta, ref_oracle, ref_rng = _run_start(cfg)
        ref_hbar = np.eye(cfg.objective.dim)
        iterates = []
        steps = _iterations(theta, np.eye(cfg.objective.dim), oracle, cfg, rng, iterations)
        for n, (theta, hbar) in enumerate(steps, 1):
            ref_theta, ref_hbar = _reference_step(ref_theta, ref_hbar, ref_oracle, cfg, ref_rng, n)
            assert theta.tobytes() == ref_theta.tobytes()
            assert hbar.tobytes() == ref_hbar.tobytes()
            iterates.append(theta)

        assert rec.iterations == len(iterates) == iterations
        assert rec.evals_used == oracle.evals_used == ref_oracle.evals_used == iterations * cost
        assert rec.theta_final.tobytes() == ref_theta.tobytes()
        return np.array(iterates)


class TestIterationsFromAnyState:
    """``_iterations`` from a start no run makes (an iterate near the box's
    edge, a symmetric average other than the identity) on streams seeded
    apart from any run's gives the bits of the update built from the public
    estimators."""

    THETA0 = np.array([2.4, -2.4, 0.3])
    HBAR0 = np.array([[3.0, 0.5, -0.25], [0.5, 0.5, 0.125], [-0.25, 0.125, 2.0]])

    @pytest.mark.parametrize("hessian", [True, False], ids=["newton-reuse", "gradient"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", [gaussian(), uniform(1.0)], ids=["gaussian", "uniform"])
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_same_bits(self, hessian, k, spec, sigma):
        cfg = NewtonConfig(
            objective=rastrigin(3),
            budget=100,
            k=k,
            noise=LinearGaussianNoise(sigma),
            perturbation=spec,
            algorithm="newton" if hessian else "gradient_only",
        )

        def start():
            oracle = BudgetedOracle(cfg.objective, cfg.noise, None, np.random.default_rng(1))
            return self.THETA0.copy(), self.HBAR0.copy(), oracle, cfg, np.random.default_rng(2)

        ref_theta, ref_hbar, ref_oracle, _, ref_rng = start()
        reference = []
        for n in range(1, 6):
            ref_theta, ref_hbar = _reference_step(ref_theta, ref_hbar, ref_oracle, cfg, ref_rng, n)
            reference.append((ref_theta.tobytes(), ref_hbar.tobytes()))

        *args, oracle, _, rng = start()
        steps = _iterations(*args, oracle, cfg, rng, 5)
        assert [(t.tobytes(), h.tobytes()) for t, h in steps] == reference
        cost = iteration_cost(k, hessian=hessian)
        assert oracle.evals_used == ref_oracle.evals_used == 5 * cost
        if not hessian:
            assert reference[-1][1] == self.HBAR0.tobytes()


class TestNonFiniteMidBlock:
    @pytest.mark.parametrize("hessian", [True, False], ids=["newton-reuse", "gradient"])
    def test_raises_at_the_failing_call(self, monkeypatch, hessian):
        # the objective turns NaN on the one call of an iteration in the
        # middle of the second block
        algorithm = "newton" if hessian else "gradient_only"
        cost = iteration_cost(1, hessian=hessian)
        rows = _block_rows(NewtonConfig(objective=QUAD, budget=cost, algorithm=algorithm))
        iteration = rows + rows // 2
        bad_call = iteration
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
            objective=objective, budget=2 * rows * cost, k=1, seed=0,
            algorithm=algorithm,
        )
        with pytest.raises(NonFiniteEvaluation):
            run_newton(cfg)
        assert seen["calls"] == bad_call
        assert oracles[0].evals_used == iteration * cost


class TestNonFiniteFromTheDot:
    """The iteration tests only the stencil dots it takes anyway; a value
    that is NaN or infinite still raises with the point it was measured at,
    and finite values whose dot overflows pass, as they pass the scan."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        # k = 2: Newton's one call holds the Hessian's 5 shifts, the
        # gradient reading the first 3; gradient-only's holds 3
        "hessian,positions", [(True, range(5)), (False, range(3))],
        ids=["newton-reuse", "gradient"],
    )
    def test_any_shift_raises_naming_its_point(self, bad, hessian, positions):
        cfg = NewtonConfig(
            objective=QUAD, budget=100, k=2,
            algorithm="newton" if hessian else "gradient_only",
        )
        for pos in positions:
            calls = []

            def value(x, pos=pos):
                calls.append(x.copy())
                out = QUAD.value(x)
                out[pos] = bad
                return out

            oracle, rng = BudgetedOracle(replace(QUAD, value=value)), np.random.default_rng(0)
            with pytest.raises(NonFiniteEvaluation) as raised:
                _one_iteration(np.array([0.5, -0.5]), np.eye(2), oracle, cfg, rng)
            assert len(calls) == 1  # nothing is measured after it
            assert str(raised.value) == (
                f"oracle returned a non-finite value ({bad}) at {calls[0][pos].tolist()}"
            )

    @pytest.mark.parametrize("hessian", [True, False], ids=["newton", "gradient"])
    def test_overflowing_dot_of_finite_values_passes(self, hessian):
        # alternating +-1e308 along the ray: every value is finite, every
        # stencil dot overflows.  The one ray both steps measure starts at
        # (0.5, -0.5) and goes delta(1) along rng(0)'s first direction, so a
        # point's shift is its distance from the start in those spacings
        start = np.array([0.5, -0.5])
        first = gaussian().sample(np.random.default_rng(0), (1, 2))
        spacing = _schedule(Schedules(), 1)[2] * np.linalg.norm(first)

        def value(x):
            shift = np.rint(np.linalg.norm(x - start, axis=-1) / spacing)
            return np.where(shift % 2 == 0, -1e308, 1e308)

        objective = replace(QUAD, value=value)
        cfg = NewtonConfig(
            objective=objective, budget=100, k=1,
            algorithm="newton" if hessian else "gradient_only",
        )

        def run(step, *n):
            state = start, np.eye(2), BudgetedOracle(objective)
            with np.errstate(over="ignore", invalid="ignore"):
                return step(*state, cfg, np.random.default_rng(0), *n)[0]

        reference = run(_reference_step, 1)  # probe's scan passes finite values
        if hessian:
            # the average overflows; eigh returns NaN eigenpairs for it, which
            # the iteration's solve refuses
            assert np.isnan(reference).all()
            with pytest.raises(np.linalg.LinAlgError):
                run(_one_iteration)
        else:
            assert run(_one_iteration).tobytes() == reference.tobytes()


class TestNewtonConfig:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("k", 0), ("seed", -1), ("eps_pd", 0.0), ("eps_pd", -1.0), ("eps_pd", np.nan),
            ("algorithm", "gradient-only"), ("eps_pd", np.inf), ("theta0", np.zeros(2)),
            ("budget", 100.5), ("budget", np.float64(100.0)), ("seed", 1.5),
            ("k", 2.0),
            # bool subclasses int, but True is not a count
            ("seed", True), ("budget", True), ("k", True), ("budget", "100"),
            ("k", np.True_), ("seed", np.True_),
        ],
    )
    def test_invalid_values_raise_when_built(self, name, value):
        # before any run, so gradient-only configs are checked the same way
        with pytest.raises(ValueError, match=f"^{name} must be"):
            NewtonConfig(**{"objective": QUAD, "budget": 30, name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = NewtonConfig(
            objective=QUAD, budget=np.int64(30), k=np.int64(1), seed=np.int32(2)
        )
        assert run_newton(cfg).evals_used == 30

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
        assert a.theta_final.tobytes() == b.theta_final.tobytes()
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

    def test_theta0_shape_validated(self):
        with pytest.raises(ValueError):
            run_newton(
                NewtonConfig(objective=QUAD, budget=30, k=1, theta0=np.ones(3))
            )

    def test_invalid_arguments(self):
        with pytest.raises(BudgetTooSmall):
            run_newton(NewtonConfig(objective=QUAD, budget=2, k=1))
        with pytest.raises(ValueError):
            run_newton(NewtonConfig(objective=QUAD, budget=30, k=0))
        with pytest.raises(ValueError, match="eps_pd"):
            run_newton(NewtonConfig(objective=QUAD, budget=30, k=1, eps_pd=0.0))

    def test_error_none_without_known_optimum(self):
        rec = run_newton(NewtonConfig(objective=exp_sin(), budget=9, k=1, seed=0))
        assert rec.final_parameter_error is None
        assert rec.algorithm == "newton"

    def test_run_holds_one_block_of_draws(self, peak_bytes):
        # one block of draws, BLOCK_FLOATS floats at most, beside the
        # iteration's own (d, d) arrays: the average its caller still holds,
        # the new one and the eigenvectors.  Every small-d case reads
        # 1.10-1.11 blocks beside those arrays, and d = 50 (two-iteration
        # blocks) reads 0.91; with the offsets formed before the scaling
        # stack and a broadcast (n, 1) radius they read 1.17-1.53, gradient-
        # only k = 1 at d = 3 the most
        cases = [
            ("gradient_only", 1, 3, 5000), ("gradient_only", 4, 5, 5000),
            ("gradient_only", 4, 10, 5000), ("newton", 1, 5, 5000),
            ("newton", 1, 10, 5000), ("newton", 4, 10, 5000), ("newton", 4, 50, 500),
        ]
        for algorithm, k, d, budget in cases:
            cfg = NewtonConfig(objective=rastrigin(d), budget=budget, k=k, algorithm=algorithm)
            run_newton(cfg)  # warm the caches and the interpreter a first run fills
            bound = (1.2 * BLOCK_FLOATS + 3 * d * d) * 8
            assert peak_bytes(lambda: run_newton(cfg)) <= bound, (algorithm, k, d)

    def test_box_respected(self):
        cfg = NewtonConfig(objective=QUAD, budget=60, k=1, seed=0, box=Box(-0.5, 0.5))
        theta, oracle, rng = _run_start(cfg)
        iterates = np.array([t for t, _ in _iterations(theta, np.eye(2), oracle, cfg, rng, 20)])
        assert np.all(iterates >= -0.5) and np.all(iterates <= 0.5)
        assert iterates[-1].tobytes() == run_newton(cfg).theta_final.tobytes()


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
