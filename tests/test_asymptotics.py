import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cuederiv.asymptotics import (
    cue_limit,
    expected_log_integral,
    expected_zero_count,
    global_moment,
    joint_moment,
    meso_moment,
    micro_b,
    micro_b_bessel,
)
from cuederiv.combinatorics import _partition_det_sum
from cuederiv.errors import CapabilityError
from cuederiv.exact_moments import cue_moment_integer, moment_exact, moment_structure
from cuederiv.specfun import exp_moment
from oracles import laguerre


class TestGlobalMoment:
    def test_s_zero(self):
        assert global_moment(0, 0.7) == 1.0

    def test_s_one_closed_form(self):
        for r in (0.0, 0.3, 0.9):
            ref = (1 + r * r) / (1 - r * r) ** 3
            assert abs(global_moment(1, r) - ref) <= 1e-12 * ref

    def test_s_two_binomial_form(self):
        s, r = 2, 0.5
        ref = sum(
            math.comb(s, k) ** 2 * math.factorial(s - k) * (r * s) ** (2 * k)
            for k in range(s + 1)
        ) / (1 - r * r) ** (s * s + 2 * s)
        assert abs(global_moment(s, r) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("s", range(1, 7))
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.7, 0.9])
    def test_integer_s_laguerre_consistency(self, s, r):
        ref = (
            math.factorial(s)
            * float(laguerre(s, -r * r * s * s))
            / (1 - r * r) ** (s * s + 2 * s)
        )
        assert abs(global_moment(s, r) - ref) <= 1e-12 * abs(ref)

    def test_non_integer_s(self):
        assert global_moment(0.5, 0.3) > 0
        assert global_moment(-0.5, 0.3) > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            global_moment(1, 1.0)
        with pytest.raises(ValueError):
            global_moment(-1.5, 0.3)

    def test_nan_is_refused(self):
        # nan fails every comparison, so each check is written to fail on it;
        # s = nan reached the 1F1 series, which then did not converge
        with pytest.raises(ValueError, match="requires finite s, got s = nan"):
            global_moment(math.nan, 0.5)
        with pytest.raises(ValueError, match="requires finite r, got r = nan"):
            global_moment(1, math.nan)


class TestJointMoment:
    def test_reduces_to_global(self):
        for s, r in [(1, 0.5), (2, 0.3), (0.7, 0.6)]:
            ref = global_moment(s, r)
            assert abs(joint_moment(s, s, r, r) - ref) <= 1e-10 * ref

    def test_s_zero_drops_rho(self):
        h, z2 = 1.3, 0.4 + 0.1j
        ref = math.gamma(h + 1) / (1 - abs(z2) ** 2) ** (2 * h)
        assert abs(joint_moment(0, h, 0.2, z2) - ref) <= 1e-12 * ref

    def test_h_zero_is_polynomial_moment(self):
        s, z1 = 1.5, 0.3 + 0.4j
        ref = (1 - abs(z1) ** 2) ** (-(s * s))
        assert abs(joint_moment(s, 0, z1, 0.1) - ref) <= 1e-12 * ref

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        z1, z2 = 0.3 + 0.2j, -0.1 + 0.5j
        base = joint_moment(1.2, 0.8, z1, z2)
        for theta in rng.uniform(0, 2 * math.pi, 10):
            w = cmath.exp(1j * theta)
            rotated = joint_moment(1.2, 0.8, z1 * w, z2 * w)
            assert abs(rotated - base) <= 1e-12 * abs(base)

    def test_domain(self):
        with pytest.raises(ValueError):
            joint_moment(1, 1, 1.0, 0.3)
        with pytest.raises(ValueError):
            joint_moment(1, -1.2, 0.3, 0.3)

    @pytest.mark.parametrize("h, z1, z2, message", [
        (math.nan, 0.3, 0.5j, "requires finite h, got h = nan"),
        (1, complex(math.nan, 0), 0.5j, r"requires finite z1, got z1 = \(nan\+0j\)"),
        (1, 0.3, complex(0, math.nan), r"requires finite z2, got z2 = nanj"),
    ], ids=["h-nan", "z1-nan", "z2-nan"])
    def test_nan_is_refused(self, h, z1, z2, message):
        with pytest.raises(ValueError, match=message):
            joint_moment(1, h, z1, z2)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_s_is_refused(self, s):
        # nan reached the 1F1 series, which then did not converge
        with pytest.raises(ValueError, match=f"requires finite s, got s = {s}"):
            joint_moment(s, 1, 0.3, 0.5j)


class TestZeroDensity:
    def test_origin(self):
        assert expected_zero_count(0.0) == 0.0

    def test_half_u(self):
        r = math.sqrt(0.5)
        assert abs(expected_zero_count(r) - 2.0) < 1e-12

    def test_calculus_consistency(self):
        # r d/dr of the log integral reproduces the density
        r = 0.6
        h = 1e-6
        fd = (expected_log_integral(r + h) - expected_log_integral(r - h)) / (2 * h)
        assert abs(r * fd - expected_zero_count(r)) < 1e-8


class TestMesoscopic:
    def test_s1_coefficient(self):
        assert abs(meso_moment(1, 0.5, 100) - 2 * 100 ** 1.5) < 1e-9

    def test_s2_coefficient(self):
        assert abs(meso_moment(2, 0.25, 16) - 34 * 16 ** (0.25 * 8)) < 1e-9

    def test_coefficient_is_correctly_rounded(self):
        # s! L_s(-s^2) is an integer; the float is its rounding, to the bit.
        for s in range(1, 13):
            assert meso_moment(s, 0.5, 1) == float(math.factorial(s) * laguerre(s, -s * s)), s

    def test_matches_exact_closed_sum(self):
        # s = 1, alpha = 1/2: the exact moment over the meso prediction -> 1
        N = 10**6
        u = 1 - N**-0.5
        exact = moment_exact(N, 1, u)
        assert abs(exact / meso_moment(1, 0.5, N) - 1) < 0.01

    def test_overflow_is_capability_error(self):
        # N^(alpha (s^2 + 2s)) = 5e9^31.5 is finite; the product with 7! L_7(-49) is not.
        with pytest.raises(CapabilityError, match="overflow"):
            meso_moment(7, 0.5, 5e9)

    def test_domain(self):
        with pytest.raises(ValueError):
            meso_moment(1, 0.0, 10)
        with pytest.raises(ValueError):
            meso_moment(0, 0.5, 10)

    @pytest.mark.parametrize("N", [0, -5, -5.5])
    def test_nonpositive_N_is_refused(self, N):
        # (-5)^(1.5) is complex in Python and (-5.5)^3 a negative "moment"
        with pytest.raises(ValueError, match="N > 0"):
            meso_moment(1, 0.5, N)


class TestMicroscopic:
    def test_s1_is_exp_moment(self):
        assert abs(micro_b(1, 0.0) - 1 / 3) < 1e-15
        for c in (-1.0, 0.5, 2.0):
            assert abs(micro_b(1, c) - exp_moment(2, c)) < 1e-14

    def test_bessel_route_s1(self):
        for c in (-1.0, 0.0, 2.0):
            assert abs(micro_b_bessel(1, c) - exp_moment(2, c)) < 1e-14

    @pytest.mark.parametrize("s", (1, 2, 3, 4))
    @pytest.mark.parametrize("c", (-1.0, 0.0, 0.5, 2.0))
    def test_routes_agree(self, s, c):
        a, b = micro_b(s, c), micro_b_bessel(s, c)
        assert abs(a - b) <= 1e-9 * max(abs(a), 1e-30)

    @pytest.mark.parametrize("s", (1, 2, 3))
    def test_strictly_positive(self, s):
        for c in (-1.0, 0.0, 1.0, 5.0):
            assert micro_b(s, c) > 0
            assert micro_b_bessel(s, c) > 0

    @pytest.mark.parametrize("s", (1, 2, 3))
    def test_decreasing_in_c(self, s):
        values = [micro_b(s, c) for c in np.linspace(0.0, 5.0, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_finite_n_extrapolation(self):
        # N^(s^2+2s) b_s(0) tracks the moment on the unit circle
        for s in (1, 2):
            N = 2000
            ratio = moment_exact(N, s, 1.0) / (N ** (s * s + 2 * s) * micro_b(s, 0.0))
            assert abs(ratio - 1) < 0.01, (s, ratio)


class TestRegimeJoins:
    """Where the regimes meet, their formulas agree: exact identities up to
    terms of order e^(-c) poly(c) or 1 - r, not asymptotics."""

    @pytest.mark.parametrize("s", (1, 2, 3, 4))
    @pytest.mark.parametrize("c", (200.0, 700.0, 800.0, 2000.0))
    def test_microscopic_meets_mesoscopic(self, s, c):
        # m_k(c) = k!/c^(k+1) + O(e^(-c)) turns the partition sum into s! L_s(-s^2).
        meso = meso_moment(s, 0.5, 1)
        assert abs(micro_b(s, c) * c ** (s * s + 2 * s) / meso - 1) <= 1e-11
        polynomial = cue_limit(s, "microscopic", c=c)
        assert abs(polynomial * c ** (s * s) - 1) <= 1e-11

    # b_s(0) exactly, s = 1..6, from the partition sum on the L // (p + q + 1) table
    # of test_microscopic_meets_the_circle.
    B_AT_ZERO = {
        1: Fraction(1, 3),
        2: Fraction(61, 10080),
        3: Fraction(277, 139708800),
        4: Fraction(2275447, 474528874659840000),
        5: Fraction(3700752773, 79536089898707963609088000000),
        6: Fraction(3654712923689, 3189557386805513023425155249995776000000000),
    }

    def test_microscopic_meets_the_circle(self):
        # The Conrey-Rubinstein-Snaith constants b_1 and b_2.
        assert abs(micro_b(1, 0.0) - 1 / 3) <= 1e-14
        assert abs(micro_b(2, 0.0) - 61 / 10080) <= 1e-14
        # b_3..b_6 exactly: at c = 0, m_k = 1/(k+1) = (L/(k+1))/L with L = lcm(1..4s-1),
        # so the partition sum runs on an integer table and each s x s minor carries L^-s.
        # The float micro_b is 5.2e-12 off at s = 6, so it is checked to s = 5.
        for s in (3, 4, 5, 6):
            exact = self.B_AT_ZERO[s]
            L = math.lcm(*range(1, 4 * s))
            table = [[L // (p + q + 1) for q in range(2 * s)] for p in range(2 * s)]
            assert _partition_det_sum(s, table) / L**s == exact
            if s <= 5:
                assert abs(micro_b(s, 0.0) / exact - 1) <= 1e-13

    @pytest.mark.parametrize("s", (1, 2, 3, 4, 5, 6))
    def test_circle_moment_in_N_leads_with_b_s(self, s):
        # E|Lambda_N'(1)|^(2s) from the structure route, which shares no code with
        # the partition sum, is a polynomial in N of degree d = s^2 + 2s with
        # leading coefficient b_s(0): its d-th difference is d! b_s(0), and the
        # next one vanishes.
        d = s * s + 2 * s
        values = [moment_structure(N, s, Fraction(1)) for N in range(1, d + 3)]
        for _ in range(d):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values[0] / math.factorial(d) == self.B_AT_ZERO[s]
        assert values[1] == values[0]

    @pytest.mark.parametrize("s", (1, 2, 3, 4))
    @pytest.mark.parametrize("r", (0.999, 0.99999, 0.999999))
    def test_global_meets_mesoscopic(self, s, r):
        # s! L_s(-s^2 r^2) has logarithmic derivative at most 2s <= 10 in r.
        scaled = global_moment(s, r) * (1 - r * r) ** (s * s + 2 * s)
        meso = meso_moment(s, 0.5, 1)
        assert abs(scaled / meso - 1) <= 10 * (1 - r)


class TestCueLimit:
    def test_global(self):
        value = cue_limit(2, "global", r=math.sqrt(0.5))
        assert abs(value - 16.0) < 1e-12

    def test_mesoscopic(self):
        assert abs(cue_limit(2, "mesoscopic", alpha=0.5, N=10**4) - 10**8) < 1e-4

    def test_microscopic_coefficient_c0(self):
        for s in (1, 2, 3):
            coeff = cue_limit(s, "microscopic", c=0.0)
            ref = math.prod(math.gamma(j) / math.gamma(s + j) for j in range(1, s + 1))
            assert abs(coeff - ref) <= 1e-10 * ref

    def test_mesoscopic_overflow_is_capability_error(self):
        # (10^200)^(s^2 alpha) = 10^400 overflows in the float power.
        with pytest.raises(CapabilityError, match="overflow"):
            cue_limit(2, "mesoscopic", alpha=0.5, N=10**200)

    @pytest.mark.parametrize("point", [
        dict(regime="mesoscopic", alpha=0.5, N=0),
        dict(regime="mesoscopic", alpha=0.5, N=-5),
        dict(regime="microscopic", c=1.0, N=0),
        dict(regime="microscopic", c=1.0, N=-5),
    ], ids=["meso-0", "meso-neg", "micro-0", "micro-neg"])
    def test_nonpositive_N_is_refused(self, point):
        with pytest.raises(ValueError, match="N > 0"):
            cue_limit(1, **point)

    @pytest.mark.parametrize("s, regime, params, message", [
        (2, "global", dict(r=1.0), "requires 0 <= r < 1, got r = 1.0"),
        (2, "global", dict(), "requires a real number r, got r = None"),
        (2, "mesoscopic", dict(alpha=1.5, N=100), "requires 0 < alpha < 1, got alpha = 1.5"),
        # alpha is checked before N, c before the integer s
        (2, "mesoscopic", dict(alpha=1.5), "requires 0 < alpha < 1, got alpha = 1.5"),
        (2, "mesoscopic", dict(alpha=0.5), "requires a real number N, got N = None"),
        (1.5, "microscopic", dict(), "requires a real number c, got c = None"),
        (1.5, "microscopic", dict(c=1.0),
         "requires a whole number s >= 1, got s = 1.5"),
        (2, "nearside", dict(r=0.1), "unknown regime 'nearside'"),
        # nan and inf were reported as a float overflow
        (math.nan, "global", dict(r=0.5), "requires finite s, got s = nan"),
        (math.inf, "mesoscopic", dict(alpha=0.5, N=10), "requires finite s, got s = inf"),
    ], ids=["global-r1", "global-no-r", "meso-alpha", "meso-alpha-no-N", "meso-no-N",
            "micro-no-c", "micro-fractional-s", "unknown", "global-nan-s", "meso-inf-s"])
    def test_bad_parameters_are_refused(self, s, regime, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cue_limit(s, regime, **params)

    def test_microscopic_s1_full_value(self):
        assert abs(cue_limit(1, "microscopic", c=0.0, N=50) - 50.0) < 1e-10

    @pytest.mark.parametrize("s, c", [(12, -20.0), (8, -40.0)])
    def test_microscopic_nonpositive_hankel_is_capability_error(self, s, c):
        # A Gram determinant, positive in exact arithmetic; it returned
        # -2.9e-85 at (12, -20) and -1.9e39 at (8, -40).
        with pytest.raises(CapabilityError, match="Hankel determinant"):
            cue_limit(s, "microscopic", c=c)

    def test_microscopic_converges_to_circle_moment(self):
        s, N = 2, 2000
        approx = cue_limit(s, "microscopic", c=0.0, N=N)
        exact = float(cue_moment_integer(N, s))
        assert abs(approx / exact - 1) < 0.01

    def test_global_limit_matches_finite_n(self):
        # acceptance-10 shape: N = 2000, r = 0.5, s = 2 within 1%
        from cuederiv.exact_moments import cue_moment_radial

        value = cue_moment_radial(2000, 2, 0.5)
        limit = cue_limit(2, "global", r=0.5)
        assert abs(value / limit - 1) < 0.01
