"""Direction families: moments, sampling, and the unbiasing scaling matrix."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from grdsa import harness
from grdsa.cubic import CubicConfig, _batched_estimates
from grdsa.estimators import batch_hessian, hessian_deviation, hessian_samples, probe
from grdsa.newton import NewtonConfig, _block_rows, _iterations
from grdsa.oracle import BudgetedOracle, quartic
from grdsa.perturb import (
    GAUSSIAN,
    UNIFORM,
    PerturbationSpec,
    _form,
    apply_scaling,
    gaussian,
    gradient_unbias_factor,
    scaling_matrices,
    scaling_norms,
    uniform,
)


def block_rows(d, k=1):
    """Iterations per block of draws of a Newton run in ``d`` dimensions."""
    return _block_rows(NewtonConfig(objective=quartic(d), k=k))


#: a d = 5 Newton run at k = 9 draws 64 iterations a block
ROWS = block_rows(5, k=9)


class TestSpec:
    def test_gaussian_moments(self):
        spec = gaussian()
        assert spec.family == GAUSSIAN
        assert spec.mu2 == 1.0
        assert spec.mu4 == 3.0

    def test_uniform_moments(self):
        spec = uniform(2.0)
        assert spec.family == UNIFORM
        assert spec.mu2 == pytest.approx(4.0 / 3.0)
        assert spec.mu4 == pytest.approx(16.0 / 5.0)

    def test_unit_variance_uniform(self):
        # eta = sqrt(3) gives mu2 = 1, matching the Gaussian's scale
        spec = uniform(np.sqrt(3.0))
        assert spec.mu2 == pytest.approx(1.0)

    def test_fourth_moment_strictly_above_squared_second(self):
        for spec in (gaussian(), uniform(0.5), uniform(1.0), uniform(3.0)):
            assert spec.mu4 > spec.mu2**2

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec("cauchy")

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            uniform(0.0)
        with pytest.raises(ValueError):
            uniform(-1.0)

    @pytest.mark.parametrize("family", [GAUSSIAN, UNIFORM])
    def test_infinite_eta_rejected(self, family):
        with pytest.raises(ValueError, match=r"^eta must be finite, got inf$"):
            PerturbationSpec(family, eta=float("inf"))

    @pytest.mark.parametrize("eta", [1e100, 1e-200, 1e-100])
    def test_eta_whose_moments_are_not_floats_rejected(self, eta):
        # mu4 = eta**4 / 5 overflows at 1e100; mu2**2 underflows to 0 at 1e-100
        # and mu2 itself at 1e-200, and the scaling divides by both
        message = "^" + re.escape(f"uniform half-width eta = {eta} is out of range: ")
        with pytest.raises(ValueError, match=message):
            uniform(eta)
        for edge in (1e-80, 1e77):
            _, shift, diag = _form(uniform(edge))
            assert 0 < shift and 0 < diag < math.inf

    def test_sample_shapes(self):
        rng = np.random.default_rng(0)
        assert gaussian().sample(rng, 5).shape == (5,)
        assert uniform(1.0).sample(rng, (3, 4)).shape == (3, 4)

    @pytest.mark.parametrize("spec", [gaussian(), uniform(0.7)], ids=["gaussian", "uniform"])
    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, 2 * ROWS + 5])
    def test_block_draw_equals_successive_draws(self, spec, n):
        # the Newton driver draws a block of directions at once; a run must
        # not depend on the block size
        d = 5
        block = spec.sample(np.random.default_rng(11), (n, d))
        rng = np.random.default_rng(11)
        rows = np.array([spec.sample(rng, d) for _ in range(n)])
        assert block.tobytes() == rows.tobytes()

    def test_uniform_support(self):
        x = uniform(0.7).sample(np.random.default_rng(1), 10000)
        assert np.all(np.abs(x) <= 0.7)

    def test_sampled_moments_match(self):
        n = 400000
        for spec in (gaussian(), uniform(2.0)):
            x = spec.sample(np.random.default_rng(3), n)
            for q, target in ((2, spec.mu2), (4, spec.mu4)):
                powers = x**q
                se = powers.std(ddof=1) / np.sqrt(n)
                assert abs(powers.mean() - target) < 5 * se
            assert abs(x.mean()) < 5 * np.sqrt(spec.mu2 / n)


class TestUnbiasFactor:
    def test_values(self):
        assert gradient_unbias_factor(gaussian()) == 1.0
        assert gradient_unbias_factor(uniform(1.0)) == pytest.approx(3.0)
        assert gradient_unbias_factor(uniform(np.sqrt(3.0))) == pytest.approx(1.0)


def one_scaling(spec, direction):
    """``M(Delta)`` of one direction: the one-row call of ``scaling_matrices``."""
    return scaling_matrices(spec, np.asarray(direction)[None])[0]


class TestScalingMatrix:
    def test_gaussian_closed_form(self):
        direction = np.array([0.3, -1.2, 2.0])
        m = one_scaling(gaussian(), direction)
        expected = 0.5 * (np.outer(direction, direction) - np.eye(3))
        assert np.allclose(m, expected, atol=1e-15)

    def test_uniform_entries(self):
        spec = uniform(1.5)
        direction = np.array([0.4, -0.9])
        m = one_scaling(spec, direction)
        mu2, mu4 = spec.mu2, spec.mu4
        assert m[0, 1] == pytest.approx(direction[0] * direction[1] / (2 * mu2**2))
        assert m[1, 0] == m[0, 1]
        assert m[0, 0] == pytest.approx((direction[0] ** 2 - mu2) / (mu4 - mu2**2))

    def test_literal_variant(self):
        direction = np.array([1.0, 2.0])
        m = one_scaling(PerturbationSpec("gaussian", paper_literal_scaling=True), direction)
        assert np.allclose(m, np.outer(direction, direction) - np.eye(2))

    def test_symmetric(self):
        direction = np.random.default_rng(5).normal(size=6)
        m = one_scaling(gaussian(), direction)
        assert np.allclose(m, m.T)

    @pytest.mark.parametrize(
        "spec",
        [gaussian(), uniform(0.7), PerturbationSpec(GAUSSIAN, paper_literal_scaling=True)],
        ids=["gaussian", "uniform", "literal"],
    )
    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
    def test_bitwise_symmetric(self, spec, scale):
        # the Newton iteration never symmetrizes its Hessian average, which needs
        # every M(Delta) and every M applied to a symmetric mean exactly symmetric
        rng = np.random.default_rng(11)
        for d in range(1, 13):
            dirs = scale * spec.sample(rng, (8, d))
            stack = scaling_matrices(spec, dirs)
            assert np.array_equal(stack, stack.transpose(0, 2, 1))
            single = one_scaling(spec, dirs[0])
            assert np.array_equal(single, single.T)
            half = scale**2 * rng.normal(size=(d, d))
            applied = apply_scaling(spec, half + half.T, 1.0)
            assert np.array_equal(applied, applied.T)

    @pytest.mark.parametrize(
        "spec",
        [gaussian(), uniform(0.7), PerturbationSpec(GAUSSIAN, paper_literal_scaling=True)],
        ids=["gaussian", "uniform", "literal"],
    )
    def test_stack_equals_the_broadcast_form(self, spec):
        # formed in place and scaled in place: the bits of the broadcast
        # product scaled out of place, signed zeros included; one matrix or
        # three (thinner than d) and a Newton block
        d = 7
        for n in (1, 3, block_rows(d)):
            dirs = spec.sample(np.random.default_rng(3), (n, d))
            dirs[0, 2], dirs[-1, 4] = 0.0, -0.0
            off, shift, diag = _form(spec)
            outer = dirs[:, :, None] * dirs[:, None, :]
            expected = outer / off
            idx = np.arange(d)
            expected[:, idx, idx] = (outer[:, idx, idx] - shift) / diag
            assert np.signbit(expected[expected == 0]).any()
            stack = scaling_matrices(spec, dirs)
            assert np.array_equal(stack.view(np.int64), expected.view(np.int64)), n

    @pytest.mark.parametrize("n,d", [(1, 100), (2, 50), (3, 7), (14, 20), (102, 7), (64, 50)])
    def test_allocates_little_beyond_its_output(self, peak_bytes, n, d):
        # beyond the stack: the buffer numpy gives the broadcast operand of
        # one product call, at most one column and at most np.getbufsize()
        # floats, the diagonal's (n, d) temporaries, and 8 KB of numpy's own
        # per-call allocations
        dirs = gaussian().sample(np.random.default_rng(2), (n, d))
        stack = n * d * d
        buffer = min(n * d, np.getbufsize())
        peak = peak_bytes(lambda: scaling_matrices(gaussian(), dirs))
        assert peak <= (stack + buffer + 3 * n * d + 1024) * 8

    def test_apply_scaling_writes_over_its_input(self):
        outer = np.outer([1.0, -2.0], [1.0, -2.0])
        assert apply_scaling(gaussian(), outer, 1.0) is outer
        assert np.array_equal(outer, [[0.0, -1.0], [-1.0, 1.5]])

    def test_batch_matches_single(self):
        spec = uniform(1.1)
        dirs = spec.sample(np.random.default_rng(7), (10, 3))
        batch = scaling_matrices(spec, dirs)
        for i in range(10):
            assert np.array_equal(batch[i], one_scaling(spec, dirs[i]))
        spec = replace(spec, paper_literal_scaling=True)
        literal = scaling_matrices(spec, dirs)
        for i in range(10):
            assert np.array_equal(literal[i], one_scaling(spec, dirs[i]))

    def test_batch_rejects_vector_input(self):
        with pytest.raises(ValueError):
            scaling_matrices(gaussian(), np.ones(3))

    @pytest.mark.parametrize("spec", [gaussian(), uniform(1.5)])
    def test_unbiases_quadratic_form(self, spec):
        """E[M(Delta) Delta^T H Delta] = H for symmetric H, both families."""
        h = np.array([[2.0, -0.7, 0.3], [-0.7, 1.5, 0.9], [0.3, 0.9, -0.5]])
        n = 400000
        dirs = spec.sample(np.random.default_rng(11), (n, 3))
        quads = np.einsum("ni,ij,nj->n", dirs, h, dirs)
        prods = scaling_matrices(spec, dirs) * quads[:, None, None]
        mean = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - h) < 5 * se)

    def test_literal_doubles_quadratic_expectation(self):
        # the unhalved scaling recovers 2H + (trace term cancels) on average
        h = np.diag([2.0, 4.0])
        n = 200000
        dirs = gaussian().sample(np.random.default_rng(13), (n, 2))
        quads = np.einsum("ni,ij,nj->n", dirs, h, dirs)
        prods = scaling_matrices(PerturbationSpec("gaussian", paper_literal_scaling=True), dirs)
        prods = prods * quads[:, None, None]
        mean = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - 2 * h) < 5 * se)


# --- the spec carries the scaling form to every Hessian path ---------------

OBJECTIVE = quartic(3)
THETA = np.array([0.5, -0.3, 0.8])
DIRS = gaussian().sample(np.random.default_rng(17), (12, 3))


def _crzon_reuse_hessian(spec):
    cfg = CubicConfig(
        objective=OBJECTIVE, k=2, m=8, b=12, delta=0.1, alpha=1.0,
        perturbation=spec, reuse=True,
    )
    return _batched_estimates(THETA, BudgetedOracle(OBJECTIVE), cfg, np.random.default_rng(5))[0]


def _newton_iteration_hessian(spec):
    # from hbar = 0 the first iteration's average is b(1) M(Delta) q
    cfg = NewtonConfig(objective=OBJECTIVE, budget=100, perturbation=spec)
    oracle, rng = BudgetedOracle(OBJECTIVE), np.random.default_rng(6)
    ((_, hbar),) = _iterations(THETA, np.zeros((3, 3)), oracle, cfg, rng, 1)
    return hbar


#: Hessian path -> its outputs under one spec
HESSIAN_PATHS = {
    "scaling_matrices_one_row": lambda spec: one_scaling(spec, DIRS[0]),
    "scaling_matrices": lambda spec: scaling_matrices(spec, DIRS),
    "scaling_norms": lambda spec: scaling_norms(spec, DIRS),
    "batch_hessian_one_row": lambda spec: batch_hessian(
        BudgetedOracle(OBJECTIVE), THETA, DIRS[:1], 0.1, 2, 2, spec
    ),
    "batch_hessian": lambda spec: batch_hessian(
        BudgetedOracle(OBJECTIVE), THETA, DIRS, 0.1, 2, 2, spec
    ),
    "batch_hessian_samples": lambda spec: hessian_samples(
        probe(BudgetedOracle(OBJECTIVE), THETA, DIRS, 0.1, 5),
        scaling_matrices(spec, DIRS), 0.1, 2, 2,
    ),
    "hessian_deviation": lambda spec: hessian_deviation(
        OBJECTIVE, THETA, 0.1, 2, 1, spec, DIRS, mode="residual"
    ),
    "crzon_reuse": _crzon_reuse_hessian,
    "newton_iteration": _newton_iteration_hessian,
}


class TestSpecCarriesTheScaling:
    # Gaussian: the literal divisors (1, 1, 1) are the matched ones (2, 1, 2)
    # with the off-diagonal and diagonal halvings undone, so exactly twice

    @pytest.mark.parametrize("path", HESSIAN_PATHS)
    def test_literal_spec_doubles_every_hessian_path(self, path):
        matched = HESSIAN_PATHS[path](gaussian())
        literal = HESSIAN_PATHS[path](PerturbationSpec(GAUSSIAN, paper_literal_scaling=True))
        assert np.array_equal(2 * matched, literal)

    @pytest.mark.parametrize(
        "build, config",
        [
            (harness.build_newton_config, {"budget": 100}),
            (harness.build_cubic_config, {}),
            (harness.build_cubic_config, {"crzon": {"epsilon": 0.5}}),
        ],
        ids=["newton", "cubic", "from_epsilon"],
    )
    def test_builders_put_the_switch_in_the_spec(self, build, config):
        cfg = build({**config, "estimator": {"paper_literal_scaling": True}})
        assert cfg.perturbation == PerturbationSpec(GAUSSIAN, paper_literal_scaling=True)
        assert not hasattr(cfg, "paper_literal_scaling")

    def test_bias_sweep_passes_the_switch_in_its_spec(self, monkeypatch):
        specs = []

        def deviation(objective, theta, delta, k1, k2, spec, directions, mode):
            specs.append(spec)
            return 1.0

        monkeypatch.setattr(harness, "hessian_deviation", deviation)
        harness.run_bias_sweep(
            {"samples": 10, "deltas": [0.2, 0.1], "estimator": {"paper_literal_scaling": True}}
        )
        assert specs == 2 * [PerturbationSpec(GAUSSIAN, paper_literal_scaling=True)]
