"""Batch estimators and their one-row calls: exactness, reuse, counting, deviations."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from grdsa.estimators import (
    BLOCK_FLOATS,
    NonFiniteEvaluation,
    batch_gradient,
    batch_hessian,
    fit_loglog_slope,
    gradient_deviation,
    gradient_samples,
    hessian_deviation,
    hessian_samples,
    measure,
    probe,
    ray_offsets,
)
from grdsa.oracle import (
    BudgetedOracle,
    BudgetExhausted,
    LinearGaussianNoise,
    Objective,
    quadratic,
    quartic,
    rastrigin,
)
from grdsa.perturb import (
    PerturbationSpec,
    gaussian,
    gradient_unbias_factor,
    scaling_matrices,
    scaling_matrix,
    uniform,
)
from grdsa.stencils import grad_weights, hess_weights

A = np.array([[2.0, 0.5], [0.5, 4.0]])
B = np.array([0.3, -0.2])
THETA = np.array([0.7, -1.3])
SPEC = gaussian()
LITERAL = PerturbationSpec("gaussian", paper_literal_scaling=True)


def fresh_oracle(objective=None, **kwargs):
    return BudgetedOracle(objective or quadratic(A, B), **kwargs)


def linear_objective(c):
    return quadratic(np.zeros((c.size, c.size)), c)


def hessian_draws(oracle, theta, dirs, delta, k, spec):
    """The one-draw Hessian estimates of order ``k`` along ``dirs``, from one probe."""
    values = probe(oracle, theta, dirs, delta, 2 * k + 1)
    return hessian_samples(values, scaling_matrices(spec, dirs), delta, k, k)


class TestEstimateGradient:
    def test_linear_objective_exact_per_draw(self):
        c = np.array([1.5, -2.0])
        obj = linear_objective(c)
        rng = np.random.default_rng(0)
        for k in (1, 2, 3, 4):
            d = SPEC.sample(rng, 2)
            orc = fresh_oracle(obj)
            est = batch_gradient(orc, THETA, d[None, :], 0.1, k, SPEC)
            assert np.allclose(est, d * (d @ c), atol=1e-12)
            assert orc.evals_used == k + 1

    def test_constant_objective_gives_zero(self):
        obj = Objective(
            name="const", dim=2, value=lambda x: np.full(np.shape(x)[:-1], 3.0)
        )
        d = SPEC.sample(np.random.default_rng(1), 2)
        est = batch_gradient(BudgetedOracle(obj), THETA, d[None, :], 0.2, 2, SPEC)
        assert np.array_equal(est, np.zeros(2))

    def test_quadratic_truncation_identity_k1(self):
        # a single order-1 draw carries the exact bias delta (d.A.d)/2 along d
        obj = quadratic(A, B)
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = SPEC.sample(rng, 2)
            delta = 0.07
            est = batch_gradient(fresh_oracle(), THETA, d[None, :], delta, 1, SPEC)
            slope = obj.gradient(THETA) @ d + delta * float(d @ A @ d) / 2.0
            assert np.allclose(est, d * slope, atol=1e-10)

    def test_quadratic_exact_for_k_at_least_two(self):
        obj = quadratic(A, B)
        rng = np.random.default_rng(3)
        g = obj.gradient(THETA)
        for k in (2, 3, 4):
            d = SPEC.sample(rng, 2)
            est = batch_gradient(fresh_oracle(), THETA, d[None, :], 0.07, k, SPEC)
            assert np.allclose(est, d * (g @ d), atol=1e-8)

    def test_uniform_family_unbiasing(self):
        # the 1/mu2 factor makes the mean estimate match the gradient even
        # though uniform directions have mu2 = 1/3
        c = np.array([1.0, -0.5])
        obj = linear_objective(c)
        spec = uniform(1.0)
        n = 200000
        dirs = spec.sample(np.random.default_rng(4), (n, 2))
        est = batch_gradient(BudgetedOracle(obj), THETA, dirs, 0.1, 1, spec)
        values = probe(BudgetedOracle(obj), THETA, dirs, 0.1, 2)
        samples = gradient_samples(values, gradient_unbias_factor(spec) * dirs, 0.1, 1)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(est - c) < 5 * se)

    def test_measurement_count(self):
        orc = fresh_oracle()
        batch_gradient(orc, THETA, np.array([[1.0, 0.0]]), 0.1, 3, SPEC)
        assert orc.evals_used == 4

    def test_shared_evaluations_cost_nothing(self):
        # the first k+1 columns of a Hessian probe give the standalone
        # gradient without a further measurement
        d = np.array([0.8, -0.6])
        orc = fresh_oracle()
        values = probe(orc, THETA, d[None, :], 0.1, 5)[0]
        reused = gradient_samples(values, gradient_unbias_factor(SPEC) * d, 0.1, 2)
        assert orc.evals_used == 5
        standalone = batch_gradient(fresh_oracle(), THETA, d[None, :], 0.1, 2, SPEC)
        assert np.array_equal(reused, standalone)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            batch_gradient(fresh_oracle(), np.ones((2, 2)), np.ones((1, 2)), 0.1, 1, SPEC)
        with pytest.raises(ValueError):
            batch_gradient(fresh_oracle(), THETA, np.ones((1, 3)), 0.1, 1, SPEC)
        with pytest.raises(ValueError):
            batch_gradient(fresh_oracle(), THETA, np.ones(2), 0.1, 1, SPEC)
        with pytest.raises(ValueError):
            batch_gradient(fresh_oracle(), THETA, np.ones((1, 2)), 0.0, 1, SPEC)

    def test_nonfinite_value_raises(self):
        obj = Objective(
            name="bad", dim=2, value=lambda x: np.full(np.shape(x)[:-1], np.nan)
        )
        with pytest.raises(NonFiniteEvaluation):
            batch_gradient(BudgetedOracle(obj), THETA, np.ones((1, 2)), 0.1, 1, SPEC)


class TestProbe:
    def test_values_along_the_ray(self):
        obj = quadratic(A, B)
        dirs = SPEC.sample(np.random.default_rng(3), (3, 2))
        orc = BudgetedOracle(obj)
        values = probe(orc, THETA, dirs, 0.1, 5)
        assert values.shape == (3, 5)
        assert orc.evals_used == 15
        for i in range(3):
            for s in range(5):
                expected = float(obj.value(THETA + 0.1 * s * dirs[i]))
                assert values[i, s] == pytest.approx(expected)

    def test_prefix_matches_shorter_probe(self):
        dirs = SPEC.sample(np.random.default_rng(4), (4, 2))
        long = probe(fresh_oracle(), THETA, dirs, 0.1, 5)
        short = probe(fresh_oracle(), THETA, dirs, 0.1, 3)
        assert np.array_equal(long[:, :3], short)

    def test_nonfinite_value_raises(self):
        obj = Objective(
            name="bad", dim=2, value=lambda x: np.full(np.shape(x)[:-1], np.inf)
        )
        with pytest.raises(NonFiniteEvaluation):
            probe(BudgetedOracle(obj), THETA, np.ones((2, 2)), 0.1, 3)

    def test_nonfinite_value_is_named_with_its_point(self):
        obj = Objective(
            name="bad", dim=2, value=lambda x: np.where(x[..., 1] > 1.0, np.nan, 0.0)
        )
        points = np.array([[0.0, 0.5], [0.25, 1.5], [0.0, 2.0]])
        with pytest.raises(
            NonFiniteEvaluation,
            match=r"^oracle returned a non-finite value \(nan\) at \[0\.25, 1\.5\]$",
        ):
            measure(BudgetedOracle(obj), points)


def block_rows(n_shifts, d):
    return max(1, BLOCK_FLOATS // (n_shifts * d))


class TestProbeBlocks:
    """A probe longer than one block of points streams it through the oracle."""

    # quadratic(A, B) has a full A and a nonzero b; its last one-row block
    # keeps the bits of the long call only if its value is row-stable
    @pytest.mark.parametrize(
        "objective", [rastrigin(5), quadratic(A, B)], ids=lambda obj: obj.name
    )
    @pytest.mark.parametrize("n_shifts", [2, 3])
    def test_equals_the_one_call_form(self, objective, n_shifts):
        d, delta = objective.dim, 0.1
        n = 2 * block_rows(n_shifts, d) + 1  # three blocks, the last one row
        theta = np.linspace(-0.8, 0.9, d)
        dirs = SPEC.sample(np.random.default_rng(5), (n, d))

        def oracle():
            noise = LinearGaussianNoise(0.01)
            return BudgetedOracle(objective, noise, rng=np.random.default_rng(6))

        streamed = oracle()
        values = probe(streamed, theta, dirs, delta, n_shifts)
        whole = oracle()
        points = theta + ray_offsets(dirs, delta, n_shifts)
        expected = whole.evaluate_many(points.reshape(n * n_shifts, d)).reshape(n, n_shifts)
        assert values.tobytes() == expected.tobytes()
        assert streamed.evals_used == whole.evals_used == n * n_shifts

    def test_budget_short_of_the_whole_probe_consumes_nothing(self):
        d, n_shifts = 5, 3
        n = 3 * block_rows(n_shifts, d)
        orc = BudgetedOracle(rastrigin(d), budget=n * n_shifts - 1)
        orc.evaluate_many(np.zeros((2, d)))
        dirs = SPEC.sample(np.random.default_rng(7), (n, d))
        with pytest.raises(BudgetExhausted, match=f"{n * n_shifts} evaluations requested"):
            probe(orc, np.zeros(d), dirs, 0.1, n_shifts)
        assert orc.evals_used == 2

    def test_nonfinite_value_in_a_later_block_raises(self):
        d, n_shifts = 5, 3
        rows = block_rows(n_shifts, d)
        calls = []

        def value(x):
            calls.append(len(x))
            out = rastrigin(d).value(x)
            if len(calls) == 2:
                out[-1] = np.nan
            return out

        orc = BudgetedOracle(Objective(name="nan-later", dim=d, value=value))
        dirs = SPEC.sample(np.random.default_rng(8), (3 * rows, d))
        with pytest.raises(NonFiniteEvaluation):
            probe(orc, np.zeros(d), dirs, 0.1, n_shifts)
        assert calls == [rows * n_shifts] * 2
        assert orc.evals_used == 2 * rows * n_shifts


class TestMeasure:
    def test_finite_values_pass_through(self):
        points = np.array([[0.1, 0.2], [0.3, -0.4]])
        values = measure(fresh_oracle(), points)
        assert np.array_equal(values, quadratic(A, B).value(points))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_nonfinite_value_at_any_position_raises(self, bad, n):
        for pos in range(n):
            values = np.zeros(n)
            values[pos] = bad
            obj = Objective(name="bad", dim=2, value=lambda x, v=values: v)
            with pytest.raises(NonFiniteEvaluation):
                measure(BudgetedOracle(obj), np.zeros((n, 2)))


def _previous_gradient_samples(values, directions, delta, k, spec):
    slopes = values[..., : k + 1] @ grad_weights(k) / delta
    return gradient_unbias_factor(spec) * directions * slopes[..., None]


def _previous_hessian_samples(values, scalers, delta, k1, k2):
    return scalers * (values @ hess_weights(k1, k2) / delta**2)[..., None, None]


class TestSampleReductions:
    """The one-draw reductions equal their earlier formulas bit for bit."""

    @pytest.mark.parametrize("spec", [gaussian(), uniform(0.7)])
    @pytest.mark.parametrize("n", [1, 6])
    def test_gradient_samples_bitwise(self, spec, n):
        rng = np.random.default_rng(n)
        factor = gradient_unbias_factor(spec)
        for k in (1, 2, 4):
            values = rng.normal(size=(n, 2 * k + 1))
            dirs = spec.sample(rng, (n, 3))
            got = gradient_samples(values, factor * dirs, 0.13, k)
            want = _previous_gradient_samples(values, dirs, 0.13, k, spec)
            assert got.shape == (n, 3)
            assert got.tobytes() == want.tobytes()
            row = gradient_samples(values[0], factor * dirs[0], 0.13, k)
            want = _previous_gradient_samples(values[0], dirs[0], 0.13, k, spec)
            assert row.shape == (3,)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [gaussian(), uniform(0.7)])
    @pytest.mark.parametrize("n", [1, 6])
    def test_hessian_samples_bitwise(self, spec, n):
        rng = np.random.default_rng(n)
        for k1, k2 in ((1, 1), (2, 2), (1, 3)):
            values = rng.normal(size=(n, k1 + k2 + 1))
            scalers = scaling_matrices(spec, spec.sample(rng, (n, 3)))
            got = hessian_samples(values, scalers, 0.13, k1, k2)
            want = _previous_hessian_samples(values, scalers, 0.13, k1, k2)
            assert got.shape == (n, 3, 3)
            assert got.tobytes() == want.tobytes()
            one = hessian_samples(values[0], scalers[0], 0.13, k1, k2)
            want = _previous_hessian_samples(values[0], scalers[0], 0.13, k1, k2)
            assert one.shape == (3, 3)
            assert one.tobytes() == want.tobytes()


class TestEstimateHessian:
    def test_quadratic_form_exact_per_draw(self):
        # on a quadratic the stencil recovers d.A.d exactly for every order
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            d = SPEC.sample(rng, 2)
            orc = fresh_oracle()
            est = batch_hessian(orc, THETA, d[None, :], 0.07, k, k, SPEC)
            expected = scaling_matrix(SPEC, d) * float(d @ A @ d)
            assert np.allclose(est, expected, atol=1e-9)
            assert orc.evals_used == 2 * k + 1

    def test_unequal_orders(self):
        d = np.array([1.1, 0.4])
        orc = fresh_oracle()
        batch_hessian(orc, THETA, d[None, :], 0.05, 1, 3, SPEC)
        assert orc.evals_used == 5

    def test_literal_scaling_variant(self):
        d = np.array([0.9, -0.7])
        est = batch_hessian(fresh_oracle(), THETA, d[None, :], 0.05, 1, 1, LITERAL)
        expected = (np.outer(d, d) - np.eye(2)) * float(d @ A @ d)
        assert np.allclose(est, expected, atol=1e-9)

    def test_symmetric_output(self):
        d = SPEC.sample(np.random.default_rng(6), 2)
        est = batch_hessian(fresh_oracle(), THETA, d[None, :], 0.1, 2, 2, SPEC)
        assert np.array_equal(est, est.T)

    def test_measurement_count(self):
        orc = fresh_oracle()
        batch_hessian(orc, THETA, np.ones((1, 2)), 0.1, 3, None, SPEC)
        assert orc.evals_used == 7


class TestBatchEstimators:
    def test_one_row_call_is_the_probe_row_reduction(self):
        d = SPEC.sample(np.random.default_rng(5), (1, 2))
        est = batch_gradient(fresh_oracle(), THETA, d, 0.05, 2, SPEC)
        values = probe(fresh_oracle(), THETA, d, 0.05, 3)[0]
        row = gradient_samples(values, gradient_unbias_factor(SPEC) * d[0], 0.05, 2)
        assert np.array_equal(est, row)

    def test_gradient_mean_of_samples(self):
        dirs = SPEC.sample(np.random.default_rng(6), (32, 2))
        orc = fresh_oracle()
        est = batch_gradient(orc, THETA, dirs, 0.05, 1, SPEC)
        values = probe(fresh_oracle(), THETA, dirs, 0.05, 2)
        samples = gradient_samples(values, gradient_unbias_factor(SPEC) * dirs, 0.05, 1)
        assert samples.shape == (32, 2)
        assert np.allclose(est, samples.mean(axis=0))
        assert orc.evals_used == 32 * 2

    def test_hessian_paths_agree(self):
        # the memory-light mean path and the per-sample path are the same
        # estimator up to summation order
        dirs = SPEC.sample(np.random.default_rng(9), (64, 2))
        orc = fresh_oracle()
        plain = batch_hessian(orc, THETA, dirs, 0.05, 1, 1, SPEC)
        samples = hessian_draws(fresh_oracle(), THETA, dirs, 0.05, 1, SPEC)
        assert np.allclose(plain, samples.mean(axis=0), atol=1e-12)
        assert orc.evals_used == 64 * 3

    def test_hessian_literal_paths_agree(self):
        dirs = LITERAL.sample(np.random.default_rng(10), (48, 2))
        plain = batch_hessian(fresh_oracle(), THETA, dirs, 0.05, 1, 1, LITERAL)
        samples = hessian_draws(fresh_oracle(), THETA, dirs, 0.05, 1, LITERAL)
        assert np.allclose(plain, samples.mean(axis=0), atol=1e-12)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            batch_gradient(fresh_oracle(), THETA, np.empty((0, 2)), 0.1, 1, SPEC)
        with pytest.raises(ValueError):
            batch_hessian(fresh_oracle(), THETA, np.empty((0, 2)), 0.1, 1, 1, SPEC)

    def test_budget_failure_consumes_nothing(self):
        orc = fresh_oracle(budget=5)
        dirs = SPEC.sample(np.random.default_rng(1), (4, 2))
        with pytest.raises(BudgetExhausted):
            batch_gradient(orc, THETA, dirs, 0.1, 1, SPEC)
        assert orc.evals_used == 0

    def test_mc_mean_approaches_hessian(self):
        dirs = SPEC.sample(np.random.default_rng(12), (200000, 2))
        est = batch_hessian(fresh_oracle(), THETA, dirs, 1e-3, 1, 1, SPEC)
        samples = hessian_draws(fresh_oracle(), THETA, dirs, 1e-3, 1, SPEC)
        se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
        assert np.all(np.abs(est - A) < 5 * se)


@pytest.fixture(scope="module")
def directions():
    return SPEC.sample(np.random.default_rng(11), (20000, 2))


class TestDeviations:
    DELTAS = np.array([0.4, 0.2, 0.1, 0.05])

    def test_gradient_residual_slope_k1(self, directions):
        obj = quartic(2)
        theta = np.array([0.9, -1.1])
        devs = [
            gradient_deviation(obj, theta, d, 1, SPEC, directions) for d in self.DELTAS
        ]
        slope = fit_loglog_slope(self.DELTAS, np.array(devs))
        assert 0.85 < slope < 1.3

    def test_gradient_mean_bias_gains_an_order(self, directions):
        # odd-order stencils with symmetric directions: the mean bias decays
        # one order faster than the per-draw residual
        obj = quartic(2)
        theta = np.array([0.9, -1.1])
        devs = [
            gradient_deviation(obj, theta, d, 1, SPEC, directions, mode="mean_bias")
            for d in self.DELTAS
        ]
        slope = fit_loglog_slope(self.DELTAS, np.array(devs))
        assert slope > 1.6

    def test_hessian_residual_slope_k1(self, directions):
        obj = quartic(2)
        theta = np.array([0.9, -1.1])
        devs = [
            hessian_deviation(obj, theta, d, 1, None, SPEC, directions)
            for d in self.DELTAS
        ]
        slope = fit_loglog_slope(self.DELTAS, np.array(devs))
        assert 0.85 < slope < 1.3

    def test_hessian_mean_bias_gains_an_order(self, directions):
        obj = quartic(2)
        theta = np.array([0.9, -1.1])
        devs = [
            hessian_deviation(obj, theta, d, 1, None, SPEC, directions, mode="mean_bias")
            for d in self.DELTAS
        ]
        slope = fit_loglog_slope(self.DELTAS, np.array(devs))
        assert slope > 1.6

    def test_unequal_orders_limited_by_minimum(self, directions):
        obj = quartic(2)
        theta = np.array([0.9, -1.1])
        devs = [
            hessian_deviation(obj, theta, d, 1, 3, SPEC, directions)
            for d in self.DELTAS
        ]
        slope = fit_loglog_slope(self.DELTAS, np.array(devs))
        assert slope < 1.5

    @pytest.mark.parametrize("literal", [False, True], ids=["matched", "literal"])
    @pytest.mark.parametrize("spec", [gaussian(), uniform(1.5)], ids=["gaussian", "uniform"])
    def test_hessian_deviation_matches_stacked_reference(self, spec, literal):
        # the sweep builds no M(Delta) per draw; the reference stacks them
        spec = replace(spec, paper_literal_scaling=literal)
        obj = quartic(3)
        theta = np.array([0.9, -1.1, 0.4])
        dirs = spec.sample(np.random.default_rng(21), (500, 3))
        k1, k2, delta = 2, 1, 0.3
        values = probe(BudgetedOracle(obj), theta, dirs, delta, hess_weights(k1, k2).size)
        scalers = scaling_matrices(spec, dirs)
        estimates = hessian_samples(values, scalers, delta, k1, k2)
        hess = obj.hessian(theta)
        leading = scalers * np.einsum("ni,ij,nj->n", dirs, hess, dirs)[:, None, None]
        expected = [
            np.linalg.norm(estimates - leading, axis=(1, 2)).mean(),
            np.linalg.norm(estimates.mean(axis=0) - hess),
        ]
        got = [
            hessian_deviation(obj, theta, delta, k1, k2, spec, dirs, mode)
            for mode in ("residual", "mean_bias")
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_gradient_slope_k2(self, directions):
        obj = quartic(2)
        theta = np.array([0.9, -1.1])
        devs = [
            gradient_deviation(obj, theta, d, 2, SPEC, directions) for d in self.DELTAS
        ]
        slope = fit_loglog_slope(self.DELTAS, np.array(devs))
        assert 1.7 < slope < 2.4

    def test_missing_derivative_rejected(self):
        obj = Objective(name="plain", dim=2, value=lambda x: np.sum(x, axis=-1))
        dirs = SPEC.sample(np.random.default_rng(0), (10, 2))
        with pytest.raises(ValueError):
            gradient_deviation(obj, THETA, 0.1, 1, SPEC, dirs)
        with pytest.raises(ValueError):
            hessian_deviation(obj, THETA, 0.1, 1, None, SPEC, dirs)

    def test_unknown_mode_rejected(self):
        obj = quartic(2)
        dirs = SPEC.sample(np.random.default_rng(0), (10, 2))
        with pytest.raises(ValueError):
            gradient_deviation(obj, THETA, 0.1, 1, SPEC, dirs, mode="median")
        with pytest.raises(ValueError):
            hessian_deviation(obj, THETA, 0.1, 1, None, SPEC, dirs, mode="median")


class TestFitSlope:
    def test_recovers_exact_power_law(self):
        deltas = np.array([0.4, 0.2, 0.1, 0.05])
        devs = 2.5 * deltas**3
        assert fit_loglog_slope(deltas, devs) == pytest.approx(3.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([0.1]), np.array([1.0]))

    def test_rejects_nonpositive_deviations(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([0.2, 0.1]), np.array([1.0, 0.0]))

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.array([0.2, 0.1]), np.array([1.0]))
