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
    gradient_mean,
    gradient_samples,
    gradient_slopes,
    hessian_deviation,
    hessian_mean,
    hessian_samples,
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
    apply_scaling,
    gaussian,
    gradient_unbias_factor,
    scaling_matrices,
    uniform,
)
from grdsa.stencils import grad_stencil, grad_weights, hess_stencil, hess_weights

A = np.array([[2.0, 0.5], [0.5, 4.0]])
B = np.array([0.3, -0.2])
THETA = np.array([0.7, -1.3])
SPEC = gaussian()
LITERAL = PerturbationSpec("gaussian", paper_literal_scaling=True)


def fresh_oracle(objective=None, **kwargs):
    return BudgetedOracle(objective or quadratic(A, B), **kwargs)


def unreachable(x):
    """An objective value for calls that must raise before they measure."""
    raise AssertionError("the objective was evaluated")


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

    @pytest.mark.parametrize(
        "theta, dirs, delta, message",
        [
            (THETA, np.ones((2, 2)), np.inf, "delta must be finite, got inf"),
            ([0.7, np.inf], np.ones((2, 2)), 0.1, "theta must be finite, got [0.7, inf]"),
            (THETA, [[1.0, 1.0], [np.nan, -np.inf]], 0.1,
             "directions must be finite, got row 1: [nan, -inf]"),
        ],
        ids=["delta", "theta", "directions"],
    )
    def test_nonfinite_input_is_named(self, theta, dirs, delta, message):
        # raised before any measurement, not blamed on the oracle's values
        orc = fresh_oracle()
        with pytest.raises(ValueError) as raised:
            batch_gradient(orc, theta, dirs, delta, 1, SPEC)
        assert str(raised.value) == message
        assert orc.evals_used == 0
        with pytest.raises(ValueError) as raised:
            gradient_deviation(quadratic(A, B), theta, delta, 1, SPEC, dirs)
        assert str(raised.value) == message


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
        # one ray through (0, 0.5), (0.25, 1.5) and (0.5, 2.5): the last two are NaN
        theta, direction = np.array([0.0, 0.5]), np.array([[0.25, 1.0]])
        with pytest.raises(
            NonFiniteEvaluation,
            match=r"^oracle returned a non-finite value \(nan\) at \[0\.25, 1\.5\]$",
        ):
            probe(BudgetedOracle(obj), theta, direction, 1.0, 3)

    @pytest.mark.parametrize(
        "theta, delta, message",
        [
            (THETA, -0.1, "delta must be > 0, got -0.1"),
            (THETA, 0.0, "delta must be > 0, got 0.0"),
            (THETA, np.nan, "delta must be > 0, got nan"),
            (THETA, np.inf, "delta must be finite, got inf"),
            (np.array([0.7, np.inf]), 0.1, "theta must be finite, got [0.7, inf]"),
            (np.array([np.nan, 0.0]), 0.1, "theta must be finite, got [nan, 0.0]"),
        ],
    )
    def test_bad_delta_or_theta_raises_before_measuring(self, theta, delta, message):
        # checked by probe itself, so a caller that skips the batch
        # estimators' checks (cubic, the demos) gets them too
        orc = fresh_oracle(replace(rastrigin(2), value=unreachable))
        with pytest.raises(ValueError) as raised:
            probe(orc, theta, np.ones((2, 2)), delta, 3)
        assert str(raised.value) == message
        assert orc.evals_used == 0

    @pytest.mark.parametrize("n_shifts", [0, -1, 2.0, True])
    def test_n_shifts_below_one_raises(self, n_shifts):
        orc = fresh_oracle()
        with pytest.raises(ValueError) as raised:
            probe(orc, THETA, np.ones((2, 2)), 0.1, n_shifts)
        assert str(raised.value) == f"n_shifts must be an integer >= 1, got {n_shifts!r}"
        assert orc.evals_used == 0


def block_rows(n_shifts, d):
    return max(1, BLOCK_FLOATS // (n_shifts * d))


class TestProbeBlocks:
    """A probe longer than one block of points streams it through the oracle."""

    @staticmethod
    def assert_equals_the_one_call_form(objective, n_shifts, spec):
        d, delta = objective.dim, 0.1
        n = 2 * block_rows(n_shifts, d) + 1  # three blocks, the last one row
        theta = np.linspace(-0.8, 0.9, d)
        dirs = spec.sample(np.random.default_rng(5), (n, d))

        def oracle():
            noise = LinearGaussianNoise(0.01)
            return BudgetedOracle(objective, noise, rng=np.random.default_rng(6))

        streamed = oracle()
        values = probe(streamed, theta, dirs, delta, n_shifts)
        whole = oracle()
        points = theta + ray_offsets(dirs, delta, range(n_shifts)).swapaxes(0, 1)
        expected = whole.evaluate_many(points.reshape(n * n_shifts, d)).reshape(n, n_shifts)
        assert values.tobytes() == expected.tobytes()
        assert streamed.evals_used == whole.evals_used == n * n_shifts

    # quadratic(A, B) has a full A and a nonzero b; its last one-row block
    # keeps the bits of the long call only if its value is row-stable.  The
    # probe reads theta through the oracle's ray form; the reference is one
    # flat call on the points laid out ray by ray, theta in column 0.
    @pytest.mark.parametrize(
        "objective", [rastrigin(5), quadratic(A, B)], ids=lambda obj: obj.name
    )
    @pytest.mark.parametrize("n_shifts", [1, 2, 3, 9])
    def test_equals_the_one_call_form(self, objective, n_shifts):
        self.assert_equals_the_one_call_form(objective, n_shifts, SPEC)

    @pytest.mark.parametrize(
        "objective,n_shifts,spec",
        [
            # the shape of a CRZON Hessian probe at k = 1
            pytest.param(rastrigin(50), 3, SPEC, id="crzon-shape"),
            pytest.param(rastrigin(5), 3, uniform(0.7), id="uniform"),
        ],
    )
    def test_equals_the_one_call_form_for(self, objective, n_shifts, spec):
        self.assert_equals_the_one_call_form(objective, n_shifts, spec)

    def test_theta_draws_its_own_noise_on_every_ray(self):
        # a constant objective: every value is the constant plus its point's noise
        d, n, n_shifts = 3, 40, 3
        const = Objective(name="const", dim=d, value=lambda x: np.full(np.shape(x)[:-1], 2.0))
        orc = BudgetedOracle(const, LinearGaussianNoise(0.1), rng=np.random.default_rng(3))
        dirs = SPEC.sample(np.random.default_rng(4), (n, d))
        values = probe(orc, np.full(d, 0.5), dirs, 0.1, n_shifts)
        assert len(np.unique(values[:, 0])) == n
        assert len(np.unique(values)) == n * n_shifts
        assert orc.evals_used == n * n_shifts

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
        d, n_shifts, delta = 5, 3, 0.1
        rows = block_rows(n_shifts, d)
        dirs = SPEC.sample(np.random.default_rng(8), (3 * rows, d))
        # the second block's last point: the top shift of its last ray
        bad = (delta * (n_shifts - 1)) * dirs[2 * rows - 1]
        calls = []

        def value(x):
            calls.append(np.shape(x))
            return np.where(np.all(x == bad, axis=-1), np.nan, rastrigin(d).value(x))

        orc = BudgetedOracle(Objective(name="nan-later", dim=d, value=value))
        with pytest.raises(NonFiniteEvaluation, match=r"\(nan\)"):
            probe(orc, np.zeros(d), dirs, delta, n_shifts)
        # per block, theta once and the off-center points once; nothing after
        assert calls == [(d,), (rows * (n_shifts - 1), d)] * 2
        assert orc.evals_used == 2 * rows * n_shifts


class TestProbeMemory:
    """A block holds only its ``n_shifts - 1`` off-center points per direction,
    so a probe's peak beyond its values is the objective's temporaries for
    those points: about three times ``(n_shifts - 1) / n_shifts`` of a block."""

    @pytest.mark.parametrize("sigma", [0.0, 0.001])
    @pytest.mark.parametrize("n_shifts", [2, 3, 9])
    def test_peak_beyond_the_values(self, n_shifts, sigma, peak_bytes):
        d, n = 50, 1024
        dirs = SPEC.sample(np.random.default_rng(0), (n, d))
        orc = BudgetedOracle(rastrigin(d), LinearGaussianNoise(sigma), rng=np.random.default_rng(1))
        peak = peak_bytes(lambda: probe(orc, np.full(d, 0.3), dirs, 0.1, n_shifts))
        beyond = peak - n * n_shifts * 8
        assert beyond <= (3 * (n_shifts - 1) / n_shifts + 0.2) * BLOCK_FLOATS * 8


class TestMeasure:
    """The finiteness scan of :func:`probe`, at every (row, shift) position:
    each point's value is a function of the point, ``theta`` included."""

    def test_finite_values_pass_through(self):
        points = np.array([[0.1, 0.2], [0.3, -0.4]])
        values = [probe(fresh_oracle(), p, np.ones((1, 2)), 0.1, 1)[0, 0] for p in points]
        assert np.array_equal(values, quadratic(A, B).value(points))
        dirs = SPEC.sample(np.random.default_rng(2), (4, 2))
        values = probe(fresh_oracle(), THETA, dirs, 0.1, 3)
        points = THETA + ray_offsets(dirs, 0.1, range(3)).swapaxes(0, 1)
        assert np.array_equal(values, quadratic(A, B).value(points))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_nonfinite_value_at_any_position_raises(self, bad, n):
        theta = np.array([0.2, -0.1])
        dirs = SPEC.sample(np.random.default_rng(n), (n, 2))
        for n_shifts in (1, 3):
            points = theta + ray_offsets(dirs, 0.1, range(n_shifts)).swapaxes(0, 1)
            for row in range(n):
                for s in range(n_shifts):
                    target = points[row, s]
                    obj = Objective(
                        name="bad", dim=2,
                        value=lambda x, t=target: np.where(np.all(x == t, axis=-1), bad, 0.0),
                    )
                    # theta is column 0 of every row, so the first row names it
                    named = points[0, 0] if s == 0 else target
                    with pytest.raises(NonFiniteEvaluation) as raised:
                        probe(BudgetedOracle(obj), theta, dirs, 0.1, n_shifts)
                    assert str(raised.value).endswith(f"({bad}) at {named.tolist()}")


class TestUnbufferedProducts:
    """Products formed without numpy's hidden broadcast buffers keep the bits
    of the broadcast forms, signed zeros included."""

    @pytest.mark.parametrize("per_row", [True, False], ids=["radii", "one-radius"])
    def test_ray_offsets(self, per_row):
        n, d, k = 9, 4, 2
        rng = np.random.default_rng(4)
        dirs = SPEC.sample(rng, (n, d))
        dirs[0, 1], dirs[2, 3] = 0.0, -0.0
        # a Python float, or an (n, 1) column of per-row radii
        delta = rng.uniform(0.1, 1.0, (n, 1)) if per_row else 0.3
        # every shift of a probe, its off-center ones, and Newton's no-reuse call
        no_reuse = [*range(2 * k + 1), *range(k + 1)]
        for shifts in (range(2 * k + 1), range(1, 2 * k + 1), no_reuse):
            # the broadcast form: each (delta*s) rounded, then times its direction
            steps = np.reshape(np.asarray(shifts, dtype=float), (-1, 1, 1)) * delta
            expected = steps * dirs
            offsets = ray_offsets(dirs, delta, shifts)
            assert offsets.shape == (len(shifts), n, d)
            assert np.array_equal(offsets.view(np.int64), expected.view(np.int64))
        # the shift-0 row holds -0.0 wherever a direction is negative
        assert np.signbit(expected[0]).any()
        # a 1-D radius would broadcast across the columns when n == d
        with pytest.raises(ValueError, match=r"delta must be a scalar or an \(n, 1\) column"):
            ray_offsets(dirs, np.full(n, 0.3), range(3))

    @pytest.mark.parametrize("d", [1, 3, 5, 10])
    @pytest.mark.parametrize("rows", ["1", "d", "170", "682"])
    def test_ray_offsets_radius_column(self, peak_bytes, rows, d):
        # Newton's per-row radii: the products of the broadcast form, formed
        # in place, with nothing beyond the output but numpy's per-call
        # objects (0.5 KB, 1.5 KB when n*d = 1); the broadcast form buffered
        # min(n*d, 8192) floats per call, 23 KB at n = 682, d = 3
        n = d if rows == "d" else int(rows)
        rng = np.random.default_rng(n * 11 + d)
        dirs = SPEC.sample(rng, (n, d))
        dirs[0, 0] = -0.0
        delta = np.frombuffer(rng.uniform(0.1, 1.0, n).tobytes())[:, None]
        # a probe's shifts, its off-center ones, and Newton's no-reuse call
        for shifts in ([0, 1, 2], [1, 2, 3, 4], [0, 1, 2, 0, 1]):
            offsets = ray_offsets(dirs, delta, shifts)
            expected = np.stack([np.multiply(delta * s, dirs) for s in shifts])
            assert np.array_equal(offsets.view(np.int64), expected.view(np.int64)), shifts
            extra = peak_bytes(lambda: ray_offsets(dirs, delta, shifts)) - offsets.nbytes
            assert extra <= 2048, shifts

    @pytest.mark.parametrize("spec", [gaussian(), uniform(0.7), LITERAL])
    def test_hessian_mean(self, spec):
        n, d, delta, k = 40, 3, 0.1, 2
        dirs = spec.sample(np.random.default_rng(9), (n, d))
        dirs[0, 1] = 0.0
        values = probe(BudgetedOracle(quartic(d)), np.full(d, 0.4), dirs, delta, 2 * k + 1)
        quads = values @ hess_weights(k, k) / delta**2
        outer_mean = dirs.T @ (dirs * quads[:, None]) / n
        mean = apply_scaling(spec, outer_mean, quads.mean())
        expected = 0.5 * (mean + mean.T)
        got = hessian_mean(values, dirs, delta, k, k, spec)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestHessianMeanBlocks:
    """``hessian_mean`` sums ``D^T (D * q)`` over blocks of ``BLOCK_FLOATS // d``
    rows, in row order, and holds one block of weighted directions at a time."""

    @staticmethod
    def _probe(spec, n, d, k):
        dirs = spec.sample(np.random.default_rng(11), (n, d))
        values = probe(BudgetedOracle(rastrigin(d)), np.full(d, 0.3), dirs, 0.1, 2 * k + 1)
        return values, dirs

    @pytest.mark.parametrize("spec", [gaussian(), uniform(0.7), LITERAL])
    def test_equals_the_block_by_block_sum(self, spec):
        n_blocks, d, delta, k = 4, 20, 0.1, 1
        rows = BLOCK_FLOATS // d
        n = (n_blocks - 1) * rows + 7  # the last block partial
        values, dirs = self._probe(spec, n, d, k)
        quads = values @ hess_weights(k, k) / delta**2
        blocks = [slice(start, start + rows) for start in range(0, n, rows)]
        assert len(blocks) == n_blocks
        outer = dirs[blocks[0]].T @ (dirs[blocks[0]] * quads[blocks[0], None])
        for block in blocks[1:]:
            outer += dirs[block].T @ (dirs[block] * quads[block, None])
        outer /= n
        mean = apply_scaling(spec, outer, quads.mean())
        expected = 0.5 * (mean + mean.T)
        got = hessian_mean(values, dirs, delta, k, k, spec)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_memory_is_one_block_beyond_the_inputs(self, peak_bytes):
        # the quadratic forms, one block of weighted directions and a few
        # (d, d) matrices, not a second (n, d) array (1.6 MB here)
        n, d = 4096, 50
        values, dirs = self._probe(gaussian(), n, d, 1)
        peak = peak_bytes(lambda: hessian_mean(values, dirs, 0.1, 1, 1, gaussian()))
        block = (BLOCK_FLOATS // d) * d * 8
        assert peak < n * 8 + block + 4 * d * d * 8


class TestGradientMean:
    """``gradient_mean`` is ``factor * D^T s / n``: the mean of the one-draw
    gradient estimates, without forming them."""

    @pytest.mark.parametrize("spec", [gaussian(), uniform(0.7)])
    def test_mean_of_the_samples(self, spec):
        n, d, k = 300, 3, 2
        dirs = spec.sample(np.random.default_rng(12), (n, d))
        values = probe(BudgetedOracle(quartic(d)), np.full(d, 0.4), dirs, 0.1, k + 1)
        samples = gradient_samples(values, gradient_unbias_factor(spec) * dirs, 0.1, k)
        got = gradient_mean(values, dirs, 0.1, k, spec)
        assert np.allclose(got, samples.mean(axis=0), rtol=1e-12, atol=0)

    def test_memory_is_o_n_plus_d_beyond_the_inputs(self, peak_bytes):
        # the slopes and a few (d,) vectors, not an (n, d) array of draws
        # (1.6 MB here)
        n, d = 4096, 50
        dirs = gaussian().sample(np.random.default_rng(13), (n, d))
        values = probe(BudgetedOracle(rastrigin(d)), np.full(d, 0.3), dirs, 0.1, 2)
        peak = peak_bytes(lambda: gradient_mean(values, dirs, 0.1, 1, gaussian()))
        assert peak < 3 * n * 8 + 4 * d * 8


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
            expected = scaling_matrices(SPEC, d[None])[0] * float(d @ A @ d)
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

    def test_unknown_mode_is_checked_before_measuring(self):
        obj = replace(quartic(2), value=unreachable)
        dirs = SPEC.sample(np.random.default_rng(0), (10, 2))
        message = r"^mode must be one of residual, mean_bias, got 'typo'$"
        with pytest.raises(ValueError, match=message):
            gradient_deviation(obj, THETA, 0.1, 1, SPEC, dirs, mode="typo")
        with pytest.raises(ValueError, match=message):
            hessian_deviation(obj, THETA, 0.1, 1, None, SPEC, dirs, mode="typo")


class TestRastriginMean:
    """For Gaussian directions on 1-D Rastrigin, Stein's lemma gives the
    order-k gradient estimator's mean exactly:
    ``2 theta + 20 pi sin(2 pi theta) R_k(delta)``, where
    ``R_k(delta) = sum_s w_s s exp(-2 pi**2 delta**2 s**2)`` is the share of
    the ripple's gradient that the mean keeps."""

    SPEC = gaussian()
    THETA, DELTA, N = 0.3, 0.31, 200_000

    def closed_form(self, k):
        ripple = sum(
            float(w) * s * np.exp(-2 * np.pi**2 * self.DELTA**2 * s**2)
            for s, w in enumerate(grad_stencil(k).weights)
        )
        return 2 * self.THETA + 20 * np.pi * np.sin(2 * np.pi * self.THETA) * ripple

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_sampled_mean_matches(self, k):
        dirs = self.SPEC.sample(np.random.default_rng(1), (self.N, 1))
        theta = np.array([self.THETA])
        values = probe(BudgetedOracle(rastrigin(1)), theta, dirs, self.DELTA, k + 1)
        factor = gradient_unbias_factor(self.SPEC)
        draws = factor * dirs[:, 0] * gradient_slopes(values, self.DELTA, k)
        se = draws.std(ddof=1) / np.sqrt(self.N)
        assert abs(draws.mean() - self.closed_form(k)) < 4 * se
        # the gate tells the orders apart
        for other in {1, 2, 4} - {k}:
            assert abs(draws.mean() - self.closed_form(other)) > 20 * se

    def hessian_closed_form(self, k):
        """Stein's second-order identity: ``2 + 40 pi**2 cos(2 pi theta) H_k(delta)``,
        with ``H_k(delta) = sum_s w_s (s**2 / 2) exp(-2 pi**2 delta**2 s**2)``."""
        ripple = sum(
            float(w) * s**2 / 2 * np.exp(-2 * np.pi**2 * self.DELTA**2 * s**2)
            for s, w in enumerate(hess_stencil(k, k).weights)
        )
        return 2 + 40 * np.pi**2 * np.cos(2 * np.pi * self.THETA) * ripple

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_sampled_hessian_mean_matches(self, k):
        dirs = self.SPEC.sample(np.random.default_rng(1), (self.N, 1))
        theta = np.array([self.THETA])
        values = probe(BudgetedOracle(rastrigin(1)), theta, dirs, self.DELTA, 2 * k + 1)
        scalers = scaling_matrices(self.SPEC, dirs)
        draws = hessian_samples(values, scalers, self.DELTA, k, k)[:, 0, 0]
        se = draws.std(ddof=1) / np.sqrt(self.N)
        assert abs(draws.mean() - self.hessian_closed_form(k)) < 4 * se
        for other in {1, 2, 4} - {k}:
            assert abs(draws.mean() - self.hessian_closed_form(other)) > 10 * se


class TestUniformRastriginMean(TestRastriginMean):
    """The same means for directions uniform on ``[-eta, eta]`` (the ``R``
    methods), from the law's odd and even halves.  With ``a_s = 2 pi delta s``,
    the gradient estimator's mean is
    ``2 theta + 10 sin(2 pi theta) / (mu2 delta) sum_s w_s S(a_s)``, where
    ``S(a) = E[Delta sin(a Delta)] = (sin a eta - a eta cos a eta) / (eta a**2)``,
    and the Hessian estimator's is
    ``2 - 10 cos(2 pi theta) / ((mu4 - mu2**2) delta**2) sum_s w_s (C2(a_s) - mu2 C0(a_s))``,
    where ``C0(a) = E[cos(a Delta)] = sin(a eta) / (a eta)`` and
    ``C2(a) = E[Delta**2 cos(a Delta)]``.  The tests, draws and gates are
    the Gaussian case's."""

    SPEC = uniform(1.0)

    def moments(self, s):
        """``S``, ``C0`` and ``C2`` at ``a = 2 pi delta s``."""
        eta, a = self.SPEC.eta, 2 * np.pi * self.DELTA * s
        if a == 0:
            return 0.0, 1.0, self.SPEC.mu2
        sin, cos = np.sin(a * eta), np.cos(a * eta)
        return (
            (sin - a * eta * cos) / (eta * a**2),
            sin / (a * eta),
            (eta**2 * sin / a + 2 * eta * cos / a**2 - 2 * sin / a**3) / eta,
        )

    def closed_form(self, k):
        ripple = sum(float(w) * self.moments(s)[0] for s, w in enumerate(grad_stencil(k).weights))
        scale = 10 * np.sin(2 * np.pi * self.THETA) / (self.SPEC.mu2 * self.DELTA)
        return 2 * self.THETA + scale * ripple

    def hessian_closed_form(self, k):
        mu2 = self.SPEC.mu2
        ripple = 0.0
        for s, w in enumerate(hess_stencil(k, k).weights):
            _, c0, c2 = self.moments(s)
            ripple += float(w) * (c2 - mu2 * c0)
        scale = 10 * np.cos(2 * np.pi * self.THETA) / ((self.SPEC.mu4 - mu2**2) * self.DELTA**2)
        return 2 - scale * ripple


class TestNoiseGain:
    """Under ``LinearGaussianNoise`` the noise at a point ``x`` has variance
    ``sigma**2 (|x|**2 + 1)``, so a slope along one fixed direction has
    variance ``sigma**2 sum_s w_s**2 (|theta + delta s Delta|**2 + 1) / delta**2``,
    and the Hessian's quadratic form the same sum over ``delta**4``."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_sampled_slope_variance_matches(self, k):
        sigma, delta, n = 0.5, 0.2, 20_000
        direction = np.array([0.4, -1.1])
        zero = Objective(name="zero", dim=2, value=lambda x: np.zeros(np.shape(x)[:-1]))
        orc = fresh_oracle(zero, noise=LinearGaussianNoise(sigma), rng=np.random.default_rng(2))
        values = probe(orc, THETA, np.tile(direction, (n, 1)), delta, k + 1)
        slopes = gradient_slopes(values, delta, k)
        points = THETA + delta * np.arange(k + 1)[:, None] * direction
        scales = np.sum(points**2, axis=1) + 1
        variance = sigma**2 * np.sum(grad_weights(k) ** 2 * scales) / delta**2
        assert abs(slopes.var(ddof=1) - variance) < 4 * variance * np.sqrt(2 / n)
        # the noise scale is each point's, not theta's
        at_theta = sigma**2 * np.sum(grad_weights(k) ** 2) * (THETA @ THETA + 1) / delta**2
        assert abs(slopes.var(ddof=1) - at_theta) > 8 * variance * np.sqrt(2 / n)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_sampled_quadratic_form_variance_matches(self, k):
        # the Hessian's quadratic form reads theta, shift 0, through the
        # oracle's ray form: its noise is still drawn on every ray
        sigma, delta, n = 0.5, 0.2, 20_000
        direction = np.array([0.4, -1.1])
        zero = Objective(name="zero", dim=2, value=lambda x: np.zeros(np.shape(x)[:-1]))
        orc = fresh_oracle(zero, noise=LinearGaussianNoise(sigma), rng=np.random.default_rng(2))
        weights = hess_weights(k, k)
        values = probe(orc, THETA, np.tile(direction, (n, 1)), delta, weights.size)
        quads = values @ weights / delta**2
        points = THETA + delta * np.arange(weights.size)[:, None] * direction
        scales = np.sum(points**2, axis=1) + 1
        variance = sigma**2 * np.sum(weights**2 * scales) / delta**4
        assert abs(quads.var(ddof=1) - variance) < 4 * variance * np.sqrt(2 / n)
        at_theta = sigma**2 * np.sum(weights**2) * (THETA @ THETA + 1) / delta**4
        assert abs(quads.var(ddof=1) - at_theta) > 8 * variance * np.sqrt(2 / n)


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

    @pytest.mark.parametrize("bad", [0.0, -0.2, np.inf, np.nan])
    def test_rejects_a_delta_that_is_not_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match=r"deltas must be positive and finite, got \[0\.2, "):
            fit_loglog_slope(np.array([0.2, bad]), np.array([1.0, 2.0]))

    def test_rejects_a_single_distinct_delta(self):
        with pytest.raises(ValueError, match=r"at least two distinct deltas, got \[0\.1, 0\.1\]"):
            fit_loglog_slope(np.array([0.1, 0.1]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_a_deviation_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match=r"deviations must be positive and finite, got \[1\.0, "):
            fit_loglog_slope(np.array([0.2, 0.1]), np.array([1.0, bad]))
