"""Direction families: moments, sampling, and the unbiasing scaling matrix."""

from __future__ import annotations

import numpy as np
import pytest

from grdsa.newton import _BLOCK
from grdsa.perturb import (
    GAUSSIAN,
    UNIFORM,
    PerturbationSpec,
    gaussian,
    gradient_unbias_factor,
    scaling_matrices,
    scaling_matrix,
    uniform,
)


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

    def test_sample_shapes(self):
        rng = np.random.default_rng(0)
        assert gaussian().sample(rng, 5).shape == (5,)
        assert uniform(1.0).sample(rng, (3, 4)).shape == (3, 4)

    @pytest.mark.parametrize("spec", [gaussian(), uniform(0.7)], ids=["gaussian", "uniform"])
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 5])
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


class TestScalingMatrix:
    def test_gaussian_closed_form(self):
        direction = np.array([0.3, -1.2, 2.0])
        m = scaling_matrix(gaussian(), direction)
        expected = 0.5 * (np.outer(direction, direction) - np.eye(3))
        assert np.allclose(m, expected, atol=1e-15)

    def test_uniform_entries(self):
        spec = uniform(1.5)
        direction = np.array([0.4, -0.9])
        m = scaling_matrix(spec, direction)
        mu2, mu4 = spec.mu2, spec.mu4
        assert m[0, 1] == pytest.approx(direction[0] * direction[1] / (2 * mu2**2))
        assert m[1, 0] == m[0, 1]
        assert m[0, 0] == pytest.approx((direction[0] ** 2 - mu2) / (mu4 - mu2**2))

    def test_literal_variant(self):
        direction = np.array([1.0, 2.0])
        m = scaling_matrix(gaussian(), direction, paper_literal_scaling=True)
        assert np.allclose(m, np.outer(direction, direction) - np.eye(2))

    def test_symmetric(self):
        direction = np.random.default_rng(5).normal(size=6)
        m = scaling_matrix(gaussian(), direction)
        assert np.allclose(m, m.T)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            scaling_matrix(gaussian(), np.ones((2, 2)))

    def test_batch_matches_single(self):
        spec = uniform(1.1)
        dirs = spec.sample(np.random.default_rng(7), (10, 3))
        batch = scaling_matrices(spec, dirs)
        for i in range(10):
            assert np.allclose(batch[i], scaling_matrix(spec, dirs[i]))
        literal = scaling_matrices(spec, dirs, paper_literal_scaling=True)
        for i in range(10):
            assert np.allclose(
                literal[i], scaling_matrix(spec, dirs[i], paper_literal_scaling=True)
            )

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
        prods = scaling_matrices(gaussian(), dirs, paper_literal_scaling=True)
        prods = prods * quads[:, None, None]
        mean = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - 2 * h) < 5 * se)
