"""Exact checks of the stencil weights, moments, and certified identities."""

from __future__ import annotations

import cmath
import hashlib
import importlib.util
import math
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grdsa import stencils
from grdsa.cli import main
from grdsa.stencils import (
    MAX_ORDER,
    OrderError,
    Stencil,
    all_identities_pass,
    coeff,
    grad_stencil,
    grad_weights,
    hess_stencil,
    hess_weights,
    residual_coefficient,
    verify_identities,
)


def solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals (independent of numpy)."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


class TestCoeff:
    def test_c0_is_harmonic_number(self):
        for k in range(1, MAX_ORDER + 1):
            harmonic = sum(Fraction(1, j) for j in range(1, k + 1))
            assert coeff(k, 0) == harmonic

    def test_falling_factorial_form(self):
        # c_l = k (k-1) ... (k-l+1) / l for l >= 1
        assert coeff(3, 1) == 3
        assert coeff(3, 2) == 3
        assert coeff(3, 3) == 2
        assert coeff(5, 4) == Fraction(5 * 4 * 3 * 2, 4)
        for k in range(1, 9):
            for l in range(1, k + 1):
                expected = Fraction(factorial(k), factorial(k - l) * l)
                assert coeff(k, l) == expected

    def test_returns_fraction(self):
        assert isinstance(coeff(4, 2), Fraction)

    def test_shift_range_enforced(self):
        with pytest.raises(ValueError):
            coeff(2, 3)
        with pytest.raises(ValueError):
            coeff(2, -1)

    def test_order_validation(self):
        with pytest.raises(OrderError):
            coeff(0, 0)
        with pytest.raises(OrderError):
            coeff(MAX_ORDER + 1, 0)
        with pytest.raises(OrderError):
            coeff(2.5, 0)

    def test_numpy_integer_accepted(self):
        assert coeff(np.int64(3), 1) == 3


class TestGradStencil:
    def test_low_order_tables(self):
        assert grad_stencil(1).weights == (Fraction(-1), Fraction(1))
        assert grad_stencil(2).weights == (
            Fraction(-3, 2),
            Fraction(2),
            Fraction(-1, 2),
        )
        assert grad_stencil(3).weights == (
            Fraction(-11, 6),
            Fraction(3),
            Fraction(-3, 2),
            Fraction(1, 3),
        )

    def test_weights_solve_moment_system(self):
        # the k+1 weights are pinned down by: sum w_l l^q = [q == 1],
        # q = 0..k.  Solve that Vandermonde system independently, in exact
        # arithmetic, and compare.
        for k in range(1, 9):
            matrix = [
                [Fraction(l) ** q for l in range(k + 1)] for q in range(k + 1)
            ]
            rhs = [Fraction(1) if q == 1 else Fraction(0) for q in range(k + 1)]
            expected = solve_exact(matrix, rhs)
            assert list(grad_stencil(k).weights) == expected

    def test_moments(self):
        for k in range(1, MAX_ORDER + 1):
            s = grad_stencil(k)
            assert s.moment(0) == 0
            assert s.moment(1) == 1
            for q in range(2, k + 1):
                assert s.moment(q) == 0
            assert s.moment(k + 1) != 0

    def test_shifts_and_floats(self):
        s = grad_stencil(3)
        assert np.allclose(s.to_float(), [-11 / 6, 3.0, -1.5, 1 / 3])

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError):
            grad_stencil(2).moment(-1)

    def test_order_validation(self):
        with pytest.raises(OrderError):
            grad_stencil(0)
        with pytest.raises(OrderError):
            grad_stencil(MAX_ORDER + 1)
        assert grad_stencil(MAX_ORDER).orders == (MAX_ORDER,)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=8),
        coeffs=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=9),
    )
    def test_exact_on_polynomials(self, k: int, coeffs: list[int]):
        """Polynomials of degree <= k are differentiated exactly at 0."""
        coeffs = coeffs[: k + 1]
        poly = [Fraction(c) for c in coeffs]

        def value(t: Fraction) -> Fraction:
            return sum((c * t**j for j, c in enumerate(poly)), Fraction(0))

        applied = sum(
            (w * value(Fraction(l)) for l, w in enumerate(grad_stencil(k).weights)),
            Fraction(0),
        )
        derivative_at_zero = poly[1] if len(poly) > 1 else Fraction(0)
        assert applied == derivative_at_zero


class TestHessStencil:
    def test_low_order_tables(self):
        assert hess_stencil(1).weights == (Fraction(1), Fraction(-2), Fraction(1))
        assert hess_stencil(2).weights == (
            Fraction(9, 4),
            Fraction(-6),
            Fraction(11, 2),
            Fraction(-2),
            Fraction(1, 4),
        )
        assert hess_stencil(3).weights == (
            Fraction(121, 36),
            Fraction(-11),
            Fraction(29, 2),
            Fraction(-92, 9),
            Fraction(17, 4),
            Fraction(-1),
            Fraction(1, 9),
        )

    def test_is_convolution_of_gradient_stencils(self):
        for k1, k2 in [(1, 1), (1, 2), (2, 3), (3, 3), (2, 5)]:
            w1 = grad_stencil(k1).weights
            w2 = grad_stencil(k2).weights
            conv = [Fraction(0)] * (k1 + k2 + 1)
            for l, a in enumerate(w1):
                for m, b in enumerate(w2):
                    conv[l + m] += a * b
            assert list(hess_stencil(k1, k2).weights) == conv

    def test_k2_defaults_to_k1(self):
        assert hess_stencil(3) == hess_stencil(3, 3)

    def test_symmetric_in_orders(self):
        assert hess_stencil(1, 3).weights == hess_stencil(3, 1).weights

    def test_moments_vanish_through_k_plus_1(self):
        for k1, k2 in [(1, 1), (2, 2), (1, 3), (3, 2), (4, 4)]:
            k = min(k1, k2)
            s = hess_stencil(k1, k2)
            assert s.moment(0) == 0
            assert s.moment(1) == 0
            assert s.moment(2) == factorial(2)
            for q in range(3, k + 2):
                assert s.moment(q) == 0
            assert s.moment(k + 2) != 0

    def test_order_validation(self):
        with pytest.raises(OrderError):
            hess_stencil(0)
        with pytest.raises(OrderError):
            hess_stencil(1, MAX_ORDER + 1)

    @settings(max_examples=40, deadline=None)
    @given(
        k1=st.integers(min_value=1, max_value=5),
        k2=st.integers(min_value=1, max_value=5),
        coeffs=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=7),
    )
    def test_exact_second_derivative_on_polynomials(self, k1, k2, coeffs):
        """Degree <= min(k1,k2)+1 polynomials give 2 c_2 exactly."""
        deg = min(k1, k2) + 1
        poly = [Fraction(c) for c in coeffs[: deg + 1]]

        def value(t: Fraction) -> Fraction:
            return sum((c * t**j for j, c in enumerate(poly)), Fraction(0))

        applied = sum(
            (w * value(Fraction(s)) for s, w in enumerate(hess_stencil(k1, k2).weights)),
            Fraction(0),
        )
        second = 2 * poly[2] if len(poly) > 2 else Fraction(0)
        assert applied == second


class TestResidualCoefficient:
    def test_known_values(self):
        assert residual_coefficient(1, 1) == Fraction(1, 2)
        assert residual_coefficient(1, 2) == Fraction(1, 2)
        assert residual_coefficient(1, 3) == Fraction(1, 2)
        assert residual_coefficient(2, 3) == Fraction(-1, 3)

    def test_matches_gradient_stencil_moment(self):
        # the leading coefficient is the min-order first-derivative
        # stencil's first surviving moment over (k+1)!
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                k = min(k1, k2)
                expected = grad_stencil(k).moment(k + 1) / factorial(k + 1)
                assert residual_coefficient(k1, k2) == expected

    def test_matches_composed_stencil_moment(self):
        # composed stencil: moment(k+2)/(k+2)! carries one copy of the
        # coefficient per minimal-order factor
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                k = min(k1, k2)
                mult = 2 if k1 == k2 else 1
                lhs = hess_stencil(k1, k2).moment(k + 2) / factorial(k + 2)
                assert lhs == mult * residual_coefficient(k1, k2)


class TestMeanBiasOrder:
    """Under a symmetric direction law the mean estimate keeps only the
    terms of odd degree in the direction: ``Delta`` times ``D^q f[Delta^q]``
    for odd ``q`` in the gradient, ``M(Delta)`` (even) times it for even
    ``q`` in the Hessian.  The first such term with a nonzero stencil moment
    sets the mean's bias order, ``q - 1`` and ``q - 2``: two orders per two
    ``k``, not the per-draw residual's one."""

    @pytest.mark.parametrize("k,order", [(1, 2), (2, 2), (3, 4), (4, 4), (5, 6), (6, 6)])
    def test_order_from_the_first_surviving_moment(self, k, order):
        grad, hess = grad_stencil(k), hess_stencil(k, k)
        q = next(q for q in range(3, 4 * MAX_ORDER, 2) if grad.moment(q) != 0)
        assert q - 1 == order
        q = next(q for q in range(4, 4 * MAX_ORDER, 2) if hess.moment(q) != 0)
        assert q - 2 == order


def _ripple_gain(weights: np.ndarray, x: float, power: int) -> float:
    """``|sum_s w_s e^{ixs}| / x**power``: a stencil's response to the ripple
    ``e^{i omega t}`` at shift ``delta``, with ``x = omega * delta``, over the
    ripple's own derivative; 1 is exact."""
    return abs(sum(w * cmath.exp(1j * x * s) for s, w in enumerate(weights))) / x**power


class TestRippleGain:
    """The k = 4 stencils amplify a cosine ripple where the k = 1 stencils
    damp it, at the ``x`` Rastrigin's ripple meets along a ray: the README's
    account of acceptance 06."""

    #: (kind, k) -> gain at x = 1, 2, 3, 4, to three decimals
    TABLE = {
        ("grad", 1): (0.959, 0.841, 0.665, 0.455),
        ("grad", 4): (1.029, 2.654, 3.519, 1.811),
        ("hess", 1): (0.919, 0.708, 0.442, 0.207),
        ("hess", 4): (1.060, 7.045, 12.385, 3.279),
    }

    @pytest.mark.parametrize("kind,k", list(TABLE))
    def test_table(self, kind, k):
        weights, power = (grad_weights(k), 1) if kind == "grad" else (hess_weights(k, k), 2)
        gains = [_ripple_gain(weights, x, power) for x in (1, 2, 3, 4)]
        assert [round(g, 3) for g in gains] == list(self.TABLE[kind, k])

    def test_the_demo_prints_this_table(self):
        # demos/06_ripple_gain.py prints every order; its k = 1 and 4 rows are these
        path = Path(__file__).resolve().parent.parent / "demos" / "06_ripple_gain.py"
        spec = importlib.util.spec_from_file_location("ripple_gain_demo", path)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        assert demo.XS == (1, 2, 3, 4)
        for k in (1, 4):
            grad, hess = demo.gains(k)
            assert [round(g, 3) for g in grad] == list(self.TABLE["grad", k])
            assert [round(h, 3) for h in hess] == list(self.TABLE["hess", k])

    @pytest.mark.parametrize("x", [1, 2, 3, 4])
    def test_first_order_closed_forms(self, x):
        # |e^{ix} - 1| = 2 |sin(x/2)|, and the k = 1 Hessian stencil is its square
        closed = 2 * abs(math.sin(x / 2)) / x
        assert _ripple_gain(grad_weights(1), x, 1) == pytest.approx(closed, rel=1e-14)
        assert _ripple_gain(hess_weights(1, 1), x, 2) == pytest.approx(closed**2, rel=1e-14)


class TestNoiseGain:
    """``sum_s w_s**2``: the factor by which a stencil scales the variance of
    independent noise on its values (before the ``delta`` or ``delta**2``
    divisor), exactly."""

    GRAD = (2, Fraction(13, 2), Fraction(265, 18), Fraction(2245, 72),
            Fraction(122269, 1800), Fraction(284809, 1800))
    HESS = (6, Fraction(603, 8), Fraction(100681, 216), Fraction(8717497, 3456),
            Fraction(30560628361, 2160000), Fraction(20986263809, 240000))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_table(self, k):
        assert sum(w * w for w in grad_stencil(k).weights) == self.GRAD[k - 1]
        assert sum(w * w for w in hess_stencil(k, k).weights) == self.HESS[k - 1]


class TestVerifyIdentities:
    def test_all_pass_up_to_cap(self):
        report = verify_identities(MAX_ORDER)
        assert all_identities_pass(report)
        assert all(isinstance(row.lhs, Fraction) for row in report)

    def test_check_count(self):
        # 5 fixed checks per k, plus k-1 power sums, plus k-2 higher moments
        report = verify_identities(12)
        assert len(report) == 181
        expected = sum(5 + (k - 1) + max(0, k - 2) for k in range(1, 13))
        assert expected == 181

    def test_identity_names(self):
        names = {row.identity for row in verify_identities(4)}
        assert names == {
            "alternating_harmonic",
            "alternating_binomial",
            "centered_power_sum",
            "second_diff_constant",
            "second_diff_first",
            "second_diff_second",
            "second_diff_higher",
        }

    def test_kmax_validated(self):
        with pytest.raises(OrderError):
            verify_identities(0)
        with pytest.raises(OrderError):
            verify_identities(MAX_ORDER + 1)

    def test_negated_gradient_stencil_fails(self, monkeypatch):
        # the certificate reads the package's weights: negating every weight
        # (each gradient step pointing uphill) must fail it, although the
        # composed stencil, a product of two negated factors, is unchanged
        build, composed = stencils.grad_stencil, hess_stencil(3)

        def negated(k):
            s = build(k)
            return Stencil(orders=s.orders, weights=tuple(-w for w in s.weights))

        monkeypatch.setattr(stencils, "grad_stencil", negated)
        assert hess_stencil(3) == composed
        assert not all_identities_pass(verify_identities(6))

    def test_cli_report_is_pinned(self, capsys):
        # every row's identity, k, q, lhs and rhs, byte for byte
        assert main(["stencil", "verify", "--kmax", "12", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "d6ef4c6cc25a3bbe8d86c6eb66e5a870c879bc34618f663998a1bd16e6a3085a"

    def test_all_identities_pass_detects_failure(self):
        report = verify_identities(3)
        broken = report[:1] + [
            type(report[0])(
                identity="fake",
                k=1,
                q=None,
                lhs=Fraction(0),
                rhs=Fraction(1),
                passed=False,
            )
        ]
        assert not all_identities_pass(broken)


def test_dataclass_types():
    g = grad_stencil(2)
    h = hess_stencil(2)
    assert isinstance(g, Stencil) and isinstance(h, Stencil)
    assert g.orders == (2,) and h.orders == (2, 2)
    assert len(h.weights) == 5
    # centered binomial identity worth keeping visible: alternating row sums
    assert sum(h.weights) == 0
    assert sum(comb(2, j) for j in range(3)) == 4
