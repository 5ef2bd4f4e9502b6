"""Objectives, measurement noise, budget accounting, and the error metric."""

from __future__ import annotations

import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from grdsa import estimators, newton, oracle
from grdsa.cubic import CubicConfig, run_crzon
from grdsa.newton import NewtonConfig, run_newton
from grdsa.oracle import (
    BLOCK_FLOATS,
    BudgetedOracle,
    BudgetExhausted,
    LinearGaussianNoise,
    Objective,
    exp_sin,
    parameter_error,
    quadratic,
    quartic,
    rastrigin,
    saddle_quartic,
)


PACKAGE = Path(oracle.__file__).parent


def _block_literals(path: Path) -> list[int]:
    """Lines of ``path`` that write the block size as a literal: ``8192``
    or ``2**13``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 8192:
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and [getattr(n, "value", None) for n in (node.left, node.right)] == [2, 13]
        ):
            lines.append(node.lineno)
    return lines


def test_block_size_is_written_once():
    # every batched loop reads oracle.BLOCK_FLOATS; estimators and newton
    # see it under their own names, where tests patch it
    found = {p.name: _block_literals(p) for p in sorted(PACKAGE.glob("*.py"))}
    source = (PACKAGE / "oracle.py").read_text().splitlines()
    (line,) = found.pop("oracle.py")
    assert source[line - 1] == "BLOCK_FLOATS = 2**13"
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert estimators.BLOCK_FLOATS is newton.BLOCK_FLOATS is BLOCK_FLOATS == 8192


def central_gradient(objective, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        grad[i] = (objective.value(theta + e) - objective.value(theta - e)) / (2 * h)
    return grad


class TestRastrigin:
    def test_global_minimum(self):
        for d in (1, 2, 5):
            obj = rastrigin(d)
            assert obj.value(np.zeros(d)) == pytest.approx(0.0)
            assert np.array_equal(obj.optimum, np.zeros(d))

    def test_value_at_integer_points(self):
        # cos(2 pi x) = 1 there, so the value reduces to |x|^2
        obj = rastrigin(1)
        assert obj.value(np.array([1.0])) == pytest.approx(1.0)
        obj = rastrigin(3)
        assert obj.value(np.array([1.0, -2.0, 0.0])) == pytest.approx(5.0)

    def test_batch_evaluation(self):
        obj = rastrigin(2)
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        vals = obj.value(pts)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(0.0)
        assert vals[1] == pytest.approx(2.0)

    def test_gradient_matches_central_differences(self):
        obj = rastrigin(3)
        theta = np.array([0.3, -1.1, 2.4])
        assert np.allclose(obj.gradient(theta), central_gradient(obj, theta), atol=1e-4)

    def test_hessian_diagonal(self):
        obj = rastrigin(2)
        h = obj.hessian(np.array([0.0, 0.5]))
        assert h[0, 1] == 0.0
        assert h[0, 0] == pytest.approx(2.0 + 40.0 * np.pi**2)
        assert h[1, 1] == pytest.approx(2.0 - 40.0 * np.pi**2)

    def test_third_derivative_bound(self):
        assert rastrigin(4).lipschitz_hessian == pytest.approx(80.0 * np.pi**3)

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            rastrigin(0)


@pytest.mark.parametrize(
    "objective, np_sum_form",
    [
        (
            rastrigin,
            lambda x, d: 10.0 * d + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=-1),
        ),
        (quartic, lambda x, d: np.sum(x**4, axis=-1)),
    ],
)
def test_values_equal_the_np_sum_form_bitwise(objective, np_sum_form):
    rng = np.random.default_rng(0)
    for d in (1, 2, 5, 10, 257):
        obj = objective(d)
        for x in (rng.uniform(-5.12, 5.12, d), rng.uniform(-5.12, 5.12, (7, d))):
            value = np.asarray(obj.value(x))
            expected = np.asarray(np_sum_form(x, d))
            assert value.shape == x.shape[:-1]
            assert value.tobytes() == expected.tobytes()


class TestQuadratic:
    def test_value_gradient_hessian(self):
        a = np.array([[2.0, 0.5], [0.5, 4.0]])
        b = np.array([1.0, -1.0])
        obj = quadratic(a, b)
        theta = np.array([0.7, -0.2])
        assert obj.value(theta) == pytest.approx(0.5 * theta @ a @ theta + b @ theta)
        assert np.allclose(obj.gradient(theta), a @ theta + b)
        assert np.allclose(obj.hessian(theta), a)

    def test_optimum_solves_linear_system(self):
        a = np.diag([2.0, 4.0])
        b = np.array([1.0, -2.0])
        obj = quadratic(a, b)
        assert np.allclose(obj.optimum, [-0.5, 0.5])
        assert np.allclose(obj.gradient(obj.optimum), 0.0, atol=1e-12)

    def test_no_linear_term_defaults_to_origin(self):
        obj = quadratic(np.diag([1.0, 3.0]))
        assert np.array_equal(obj.optimum, np.zeros(2))

    def test_singular_matrix_has_no_optimum(self):
        obj = quadratic(np.zeros((2, 2)), np.array([1.0, 0.0]))
        assert obj.optimum is None

    def test_zero_third_derivative(self):
        assert quadratic(np.eye(2)).lipschitz_hessian == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic(np.ones((2, 3)))
        with pytest.raises(ValueError):
            quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            quadratic(np.eye(2), np.ones(3))

    def test_non_finite_coefficients_named(self):
        # NaN is not read as an asymmetry
        with pytest.raises(ValueError, match=r"^A must be finite, got \[\[nan, 0.0\]"):
            quadratic(np.diag([np.nan, 1.0]))
        with pytest.raises(ValueError, match=r"^A must be finite"):
            quadratic(np.diag([np.inf, 1.0]))
        with pytest.raises(ValueError, match=r"^b must be finite, got \[1.0, -inf\]$"):
            quadratic(np.eye(2), np.array([1.0, -np.inf]))


class TestQuadraticBlocks:
    """``value`` forms its ``(rows, d, d)`` products a block of about 2^13
    floats at a time, not for the whole batch at once."""

    @pytest.mark.parametrize("d", [50, 200])
    def test_rows_across_blocks_keep_their_bits(self, d):
        # a block holds three rows at d = 50 and one at d = 200
        objective = _full_quadratic(d)
        points = np.random.default_rng(d).normal(size=(10, d))
        values = objective.value(points)
        for i in range(10):
            assert values[i].tobytes() == objective.value(points[i]).tobytes()

    @pytest.mark.parametrize("d,n", [(50, 163), (200, 40)])
    def test_memory_is_a_block_of_products(self, d, n, peak_bytes):
        # all n rows at once peaked at 6.6 MB (d = 50) and 25.7 MB (d = 200)
        objective = quadratic(np.eye(d))
        points = np.ones((n, d))
        block = max(BLOCK_FLOATS, d * d) * 8
        assert peak_bytes(lambda: objective.value(points)) < 3 * block + 2 * points.nbytes


class TestQuartic:
    def test_derivatives(self):
        obj = quartic(2)
        theta = np.array([0.5, -1.5])
        assert obj.value(theta) == pytest.approx(0.5**4 + 1.5**4)
        assert np.allclose(obj.gradient(theta), 4.0 * theta**3)
        assert np.allclose(obj.hessian(theta), np.diag(12.0 * theta**2))

    def test_no_third_derivative_bound(self):
        assert quartic(2).lipschitz_hessian is None


class TestSaddleQuartic:
    def test_origin_is_strict_saddle(self):
        obj = saddle_quartic()
        origin = np.zeros(2)
        assert obj.value(origin) == 0.0
        assert np.allclose(obj.gradient(origin), 0.0)
        eigs = np.linalg.eigvalsh(obj.hessian(origin))
        assert eigs[0] == pytest.approx(-2.0)
        assert eigs[1] == pytest.approx(2.0)

    def test_global_minimum(self):
        obj = saddle_quartic()
        assert np.allclose(obj.optimum, [0.0, np.sqrt(2.0)])
        assert obj.value(obj.optimum) == pytest.approx(-1.0)
        assert np.allclose(obj.gradient(obj.optimum), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(obj.hessian(obj.optimum))[0] == pytest.approx(2.0)

    def test_gradient_matches_central_differences(self):
        obj = saddle_quartic()
        theta = np.array([0.4, -0.9])
        assert np.allclose(obj.gradient(theta), central_gradient(obj, theta), atol=1e-5)


class TestExpSin:
    def test_derivatives(self):
        obj = exp_sin()
        theta = np.array([0.3, 0.4])
        assert obj.value(theta) == pytest.approx(np.exp(0.3) + np.sin(0.4))
        assert np.allclose(obj.gradient(theta), [np.exp(0.3), np.cos(0.4)])
        assert np.allclose(obj.hessian(theta), np.diag([np.exp(0.3), -np.sin(0.4)]))

    def test_no_optimum(self):
        assert exp_sin().optimum is None


class TestLinearGaussianNoise:
    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            LinearGaussianNoise(-0.1)

    def test_zero_sigma_is_silent(self):
        noise = LinearGaussianNoise(0.0)
        out = noise.sample(np.random.default_rng(0), np.ones((4, 2)))
        assert np.array_equal(out, np.zeros(4))

    def test_mean_and_state_dependent_variance(self):
        # var = sigma^2 (|theta|^2 + 1)
        sigma, theta = 0.5, np.array([1.0, -2.0])
        noise = LinearGaussianNoise(sigma)
        smp = noise.sample(np.random.default_rng(0), np.tile(theta, (200000, 1)))
        target = sigma**2 * (theta @ theta + 1.0)
        assert abs(smp.mean()) < 5 * np.sqrt(target / smp.size)
        assert smp.var() == pytest.approx(target, rel=0.05)

    def test_independent_across_rows(self):
        noise = LinearGaussianNoise(1.0)
        smp = noise.sample(np.random.default_rng(1), np.zeros((3, 2)))
        assert len(np.unique(smp)) == 3


def _full_quadratic(d: int):
    """A quadratic with a full symmetric ``A`` and a nonzero ``b``."""
    rng = np.random.default_rng(d)
    m = rng.normal(size=(d, d))
    return quadratic(m + m.T, rng.normal(size=d))


@pytest.mark.parametrize(
    "objective",
    [
        rastrigin(1), rastrigin(5), rastrigin(50), quartic(3), saddle_quartic(), exp_sin(),
        _full_quadratic(2), _full_quadratic(5),
    ],
    ids=lambda obj: f"{obj.name}-{obj.dim}",
)
def test_batch_rows_equal_one_row_calls(objective):
    # batched evaluation may share work across rows, and a probe may split
    # its points into blocks, only if every row keeps the bits of its own call
    rng = np.random.default_rng(11)
    for n in range(1, 41):
        points = 3.0 * rng.normal(size=(n, objective.dim))
        values = objective.value(points)
        for i in range(n):
            assert values[i].tobytes() == objective.value(points[i : i + 1])[0].tobytes()


class TestBudgetedOracle:
    def test_counts_every_scalar_evaluation(self):
        orc = BudgetedOracle(quadratic(np.eye(2)))
        orc.evaluate_many(np.zeros((1, 2)))
        assert orc.evals_used == 1
        orc.evaluate_many(np.zeros((4, 2)))
        assert orc.evals_used == 5
        # no budget: any request is served and counted
        orc.evaluate_many(np.zeros((1000, 2)))
        assert orc.evals_used == 1005

    def test_budget_is_all_or_nothing(self):
        orc = BudgetedOracle(quadratic(np.eye(2)), budget=5)
        orc.evaluate_many(np.zeros((3, 2)))
        with pytest.raises(BudgetExhausted):
            orc.evaluate_many(np.zeros((3, 2)))
        # the failed request consumed nothing
        assert orc.evals_used == 3
        orc.evaluate_many(np.zeros((2, 2)))
        assert orc.evals_used == 5
        with pytest.raises(BudgetExhausted):
            orc.evaluate_many(np.zeros((1, 2)))
        assert orc.evals_used == 5

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BudgetedOracle(quadratic(np.eye(2)), budget=-1)

    @pytest.mark.parametrize(
        "budget", [float("nan"), 2.5, True, "5"], ids=["nan", "fraction", "bool", "str"]
    )
    def test_budget_must_be_a_nonnegative_integer(self, budget):
        # NaN would never run out, 2.5 would leave 0.5 remaining, True would
        # count as 1 and "5" would fail inside a comparison
        with pytest.raises(ValueError) as raised:
            BudgetedOracle(quadratic(np.eye(2)), budget=budget)
        assert str(raised.value) == f"budget must be an integer, got {budget!r}"

    def test_numpy_integer_budget_accepted(self):
        orc = BudgetedOracle(quadratic(np.eye(2)), budget=np.int64(2))
        orc.evaluate_many(np.zeros((2, 2)))
        with pytest.raises(BudgetExhausted, match="0 of 2 remaining"):
            orc.evaluate_many(np.zeros((1, 2)))

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            BudgetedOracle(quadratic(np.eye(2)), noise=LinearGaussianNoise(0.1))

    def test_shape_validated(self):
        orc = BudgetedOracle(quadratic(np.eye(2)))
        with pytest.raises(ValueError):
            orc.evaluate_many(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            orc.evaluate_many(np.zeros(2))

    @pytest.mark.parametrize(
        "center_shape,points_shape",
        [
            ((3,), (1, 4, 2)), ((1, 2), (1, 4, 2)), ((), (1, 4, 2)),
            ((2,), (4, 2)), ((2,), (1, 4, 3)),
        ],
    )
    def test_ray_form_shape_validated(self, center_shape, points_shape):
        orc = BudgetedOracle(quadratic(np.eye(2)))
        with pytest.raises(
            ValueError,
            match=rf"^expected center \(2,\) and points \(s, n, 2\), "
            rf"got {re.escape(str(center_shape))} and {re.escape(str(points_shape))}$",
        ):
            orc.evaluate_many(np.zeros(points_shape), center=np.zeros(center_shape))
        assert orc.evals_used == 0

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    @pytest.mark.parametrize("n_off", [0, 1, 4])
    def test_ray_form_is_the_flat_call_ray_by_ray(self, sigma, n_off):
        obj, rays = rastrigin(3), 5
        rng = np.random.default_rng(4)
        center, off = rng.normal(size=3), rng.normal(size=(n_off, rays, 3))
        # the same points ray by ray, center first
        flat = np.concatenate(
            [np.broadcast_to(center, (rays, 1, 3)), off.transpose(1, 0, 2)], axis=1
        )
        a = BudgetedOracle(obj, LinearGaussianNoise(sigma), rng=np.random.default_rng(7))
        b = BudgetedOracle(obj, LinearGaussianNoise(sigma), rng=np.random.default_rng(7))
        got = a.evaluate_many(off, center=center)
        expected = b.evaluate_many(flat.reshape(-1, 3))
        assert got.shape == (rays * (n_off + 1),)
        assert got.tobytes() == expected.tobytes()
        assert a.evals_used == b.evals_used == rays * (n_off + 1)

    def test_ray_form_budget_is_all_or_nothing(self):
        orc = BudgetedOracle(quadratic(np.eye(2)), budget=11)
        with pytest.raises(BudgetExhausted, match="^12 evaluations requested"):
            orc.evaluate_many(np.zeros((2, 4, 2)), center=np.zeros(2))
        assert orc.evals_used == 0
        orc.evaluate_many(np.zeros((1, 4, 2)), center=np.zeros(2))
        assert orc.evals_used == 8

    def test_noiseless_values_are_exact(self):
        obj = rastrigin(2)
        orc = BudgetedOracle(obj)
        pts = np.random.default_rng(2).normal(size=(6, 2))
        assert np.allclose(orc.evaluate_many(pts), obj.value(pts))

    def test_noisy_values_reproducible_by_seed(self):
        obj = quadratic(np.eye(2))
        pts = np.ones((5, 2))
        a = BudgetedOracle(obj, LinearGaussianNoise(0.3), rng=np.random.default_rng(7))
        b = BudgetedOracle(obj, LinearGaussianNoise(0.3), rng=np.random.default_rng(7))
        assert np.array_equal(a.evaluate_many(pts), b.evaluate_many(pts))

    def test_zero_sigma_noise_object_adds_nothing(self):
        obj = quadratic(np.eye(2))
        orc = BudgetedOracle(obj, LinearGaussianNoise(0.0))
        assert orc.evaluate_many(np.array([[1.0, 1.0]]))[0] == pytest.approx(1.0)


class TestParameterError:
    def test_definition(self):
        # squared distance ratio, not a norm ratio
        err = parameter_error(np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.zeros(2))
        assert err == pytest.approx(0.25)

    def test_zero_at_optimum(self):
        assert parameter_error(np.ones(2), np.full(2, 3.0), np.ones(2)) == 0.0

    def test_start_at_optimum_rejected(self):
        with pytest.raises(ValueError):
            parameter_error(np.ones(2), np.zeros(2), np.zeros(2))

    def test_can_exceed_one(self):
        err = parameter_error(np.array([4.0]), np.array([2.0]), np.zeros(1))
        assert err == pytest.approx(4.0)


def test_runs_hand_objectives_contiguous_arrays():
    # a ufunc buffers a strided input behind the caller's back, so every
    # point array a run measures, theta's own (d,) call included, is contiguous
    base = rastrigin(3)
    shapes = []

    def value(x):
        assert x.flags.c_contiguous, x.strides
        shapes.append(x.shape)
        return base.value(x)

    objective = replace(base, value=value)
    noise = LinearGaussianNoise(0.01)
    for algorithm in ("newton", "gradient_only"):
        run_newton(NewtonConfig(
            objective=objective, budget=400, k=2, noise=noise, algorithm=algorithm
        ))
    for reuse in (True, False):
        run_crzon(CubicConfig(
            objective=objective, k=2, n_steps=2, m=40, b=16, noise=noise, reuse=reuse
        ))
    assert (3,) in shapes and len(shapes) > 100


def test_custom_objective_contract():
    obj = Objective(name="toy", dim=1, value=lambda x: np.sum(x, axis=-1))
    assert obj.gradient is None and obj.hessian is None and obj.optimum is None
    assert obj.value(np.array([[1.0], [2.0]])).shape == (2,)
