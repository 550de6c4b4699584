import math
from fractions import Fraction

import numpy as np  # noqa: F401  (kept for test fixtures)
import pytest
import scipy.integrate
import scipy.special

from cuederiv.errors import CapabilityError
from cuederiv.specfun import (
    exp_moment,
    hyp1f1,
    zeta_real,
)
from oracles import laguerre


class TestHyp1F1:
    def test_at_zero(self):
        assert hyp1f1(3.7, 1.0, 0.0) == 1.0

    def test_two_e(self):
        # 1F1(2,1;x) = e^x (1+x)
        assert abs(hyp1f1(2, 1, 1.0) - 2 * math.e) < 1e-12 * 2 * math.e

    def test_nonpositive_integer_b(self):
        with pytest.raises(ValueError):
            hyp1f1(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            hyp1f1(1.0, -2.0, 1.0)

    def test_overflow_is_capability_error(self):
        # The series sum passes 1e308 long before the term limit.
        with pytest.raises(CapabilityError, match="overflows"):
            hyp1f1(2.5, 1, 1e6)

    def test_negative_argument_kummer(self):
        for a, b, x in [(0.5, 1.0, -3.0), (2.5, 4.0, -20.0)]:
            ref = float(scipy.special.hyp1f1(a, b, x))
            assert abs(hyp1f1(a, b, x) - ref) < 1e-11 * abs(ref)

    @pytest.mark.parametrize("s", range(1, 7))
    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 9.0, 25.0])
    def test_kummer_laguerre_identity(self, s, x):
        lhs = math.factorial(s) * hyp1f1(s + 1, 1, x)
        rhs = math.factorial(s) * math.exp(x) * float(laguerre(s, -x))
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


class TestLaguerre:
    def test_constant(self):
        assert laguerre(0, Fraction(7, 2)) == 1
        assert laguerre(0, 123.0) == 1.0

    def test_known_values(self):
        assert laguerre(2, -4) == 17
        assert 2 * laguerre(2, -4) == 34
        assert 1 * laguerre(1, -1) == 2

    def test_exact_on_rationals(self):
        value = laguerre(3, Fraction(1, 3))
        assert isinstance(value, Fraction)
        # L_3(x) = 1 - 3x + 3x^2/2 - x^3/6 at x = 1/3
        assert value == 1 - 1 + Fraction(1, 6) - Fraction(1, 162)

    def test_scipy_agreement(self):
        for n in range(6):
            for x in (-2.0, 0.5, 3.0):
                ref = float(scipy.special.eval_laguerre(n, x))
                assert abs(float(laguerre(n, x)) - ref) < 1e-12 * max(1, abs(ref))


class TestGeneralizedLaguerre:
    def test_mixed_derivative_double_sum(self):
        # (s-h2)! L^(h2-h1)_(s-h2)(-s^2 r^2) equals the binomial double sum
        s, h1, h2 = 3, 1, 2
        r = 0.5
        x = s * s * r * r
        lhs = math.factorial(s - h2) * scipy.special.eval_genlaguerre(s - h2, h2 - h1, -x)
        rhs = sum(
            math.comb(s - h2, k) * math.comb(s - h1, h2 - h1 + k)
            * math.factorial(s - k - h2) * x**k
            for k in range(s - h2 + 1)
        )
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


class TestExpMoment:
    def test_c_zero(self):
        for k in range(20):
            assert exp_moment(k, 0.0) == exp_moment(k, -0.0) == 1.0 / (k + 1)

    def test_k_zero(self):
        for c in (0.25, 1.0, 3.0, -2.0):
            ref = (1 - math.exp(-c)) / c
            assert abs(exp_moment(0, c) - ref) < 1e-14 * abs(ref)

    def test_quadrature_oracle(self):
        for k in (1, 3, 10):
            for c in (-3.0, -0.5, 0.7, 4.0):
                ref, _ = scipy.integrate.quad(lambda x: x**k * math.exp(-c * x), 0, 1)
                assert abs(exp_moment(k, c) - ref) < 1e-11 * abs(ref), (k, c)

    @pytest.mark.parametrize("c", [0.5, 1.5])
    def test_series_and_recurrence_straddle_the_switch(self, c):
        # both branch algorithms, evaluated explicitly on both sides of c = 1
        def series(k, c):
            total, term = 1.0 / (k + 1), 1.0
            for j in range(1, 10_000):
                term *= -c / j
                delta = term / (k + j + 1)
                total += delta
                if abs(delta) <= 1e-18 * abs(total):
                    return total

        def downward_recurrence(k, c):
            top = k + 400
            m, e = 0.0, math.exp(-c)
            for j in range(top, k, -1):
                m = (c * m + e) / j
            return m

        for k in range(41):
            a, b = series(k, c), downward_recurrence(k, c)
            assert abs(a - b) <= 1e-11 * abs(a), (k, c, a, b)
            assert abs(exp_moment(k, c) - a) <= 1e-11 * abs(a)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_derivative_in_c(self, c):
        # d/dc of the moment is minus the next moment
        h = 1e-5
        for k in (0, 2, 7):
            fd = (exp_moment(k, c + h) - exp_moment(k, c - h)) / (2 * h)
            assert abs(fd + exp_moment(k + 1, c)) < 1e-6

    def test_decreasing_in_k(self):
        values = [exp_moment(k, 1.3) for k in range(31)]
        assert all(0 < values[k + 1] < values[k] <= 1 for k in range(30))

    def test_table_limits(self):
        for k in range(11):
            assert abs(exp_moment(k, 1e-12) - 1.0 / (k + 1)) < 1e-11

    def test_large_c_matches_incomplete_gamma(self):
        # gamma(k+1, c) / c^(k+1) = P(k+1, c) k!/c^(k+1), on both sides of the
        # switch at c = k + 40 and past c ~ 708, where e^(-c) underflows.
        for k in (0, 2, 10, 29):
            for c in (k + 39.5, k + 40.0, 200.0, 700.0, 800.0, 2000.0, 1e6):
                ref = scipy.special.gammainc(k + 1, c) * math.factorial(k) / c ** (k + 1)
                assert abs(exp_moment(k, c) - ref) <= 1e-13 * ref, (k, c)


class TestZetaReal:
    def test_basel(self):
        assert abs(zeta_real(2.0) - math.pi**2 / 6) < 1e-13

    def test_zeta_four_ratio(self):
        assert abs(zeta_real(4.0) / (math.pi**4 / 90) - 1) < 1e-10

    def test_second_derivative_vs_truncated_series(self):
        sigma = 0.8
        w = 2 * sigma
        cutoff = 300_000
        partial = sum((math.log(n)) ** 2 / n**w for n in range(1, cutoff))
        # closed-form integral of (log x)^2 x^(-w) over (cutoff, inf)
        y = (w - 1) * math.log(cutoff)
        tail = 2 * math.exp(-y) * (1 + y + y * y / 2) / (w - 1) ** 3
        assert partial < zeta_real(w, 2) < partial + 1.05 * tail

    def test_first_derivative_known_value(self):
        assert abs(zeta_real(2.0, 1) + 0.9375482543158437) < 1e-12

    def test_domain_and_order_validation(self):
        with pytest.raises(ValueError):
            zeta_real(1.0)
        with pytest.raises(ValueError):
            zeta_real(0.3, 1)
        with pytest.raises(ValueError):
            zeta_real(2.0, 3)
        # nan and inf returned nan
        for w in (math.nan, math.inf):
            with pytest.raises(ValueError, match="zeta_real requires finite w > 1"):
                zeta_real(w)

    def test_derivatives_against_finite_differences(self):
        for w in (1.3, 2.0, 6.0):
            h = 1e-4
            fd1 = (zeta_real(w + h) - zeta_real(w - h)) / (2 * h)
            fd2 = (zeta_real(w + h) - 2 * zeta_real(w) + zeta_real(w - h)) / h**2
            # tolerances reflect the finite-difference error, not zeta_real's
            assert abs(zeta_real(w, 1) - fd1) < 2e-6 * abs(fd1)
            assert abs(zeta_real(w, 2) - fd2) < 1e-5 * abs(fd2)
