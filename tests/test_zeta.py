import contextlib
import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cuederiv import cli, zeta
from cuederiv.errors import CapabilityError
from cuederiv.specfun import zeta_real
from cuederiv.zeta import (
    _divisor_growth_constant,
    _euler_factor_logs,
    arithmetic_factor,
    conjecture_rhs,
    deriv_moment_series,
    divisor_table,
    lindelof_series,
    log_convolution_table,
    primes_up_to,
    rmt_leading_coefficient,
)
from oracles import (
    dirichlet_convolve_rows,
    divisor_growth_constant_from_table,
    euler_factor_log,
    primes_up_to_every_integer,
)


def _within_tail(result, reference):
    """The truncated value lies within its tail bound of the reference."""
    return abs(result.value - reference) <= result.tail_bound


class TestTables:
    def test_d1_is_ones(self):
        table = divisor_table(1, 50)
        assert all(table[n] == 1 for n in range(1, 51))

    def test_d2_brute_force(self):
        table = divisor_table(2, 200)
        for n in range(1, 201):
            assert table[n] == sum(1 for d in range(1, n + 1) if n % d == 0)

    def test_ds_prime_is_s(self):
        for s in (2, 3, 5):
            table = divisor_table(s, 100)
            for p in (2, 3, 7, 97):
                assert table[p] == s

    def test_prime_power_formula(self):
        # d_s(p^m) = Gamma(s+m) / (Gamma(m+1) Gamma(s))
        table = divisor_table(3, 200)
        for p, m in [(2, 3), (3, 2), (5, 2)]:
            ref = math.gamma(3 + m) / (math.gamma(m + 1) * math.gamma(3))
            assert table[p**m] == ref

    @given(st.integers(2, 60), st.integers(2, 60))
    @settings(max_examples=50, deadline=None)
    def test_multiplicative_on_coprime_pairs(self, a, b):
        if math.gcd(a, b) != 1:
            return
        table = divisor_table(3, 3600)
        assert table[a * b] == table[a] * table[b]

    def test_log_table_base_values(self):
        table = log_convolution_table(1, 100)
        assert table[1] == 0.0
        assert abs(table[17] - math.log(17)) < 1e-15

    def test_log_conv_two(self):
        table = log_convolution_table(2, 100)
        assert abs(table[4] - math.log(2) ** 2) < 1e-14
        for p in (2, 3, 5, 97):
            assert table[p] == 0.0
        # n = 12: divisor pairs (2,6),(3,4),(4,3),(6,2) contribute
        ref = 2 * (math.log(2) * math.log(6) + math.log(3) * math.log(4))
        assert abs(table[12] - ref) < 1e-13

    def test_association_orders_agree(self):
        n_max = 10_000
        base = log_convolution_table(1, n_max)
        l2 = zeta._dirichlet_sieve(base, base)
        l3 = zeta._dirichlet_sieve(l2, base)
        left = zeta._dirichlet_sieve(l3, base)  # ((L*L)*L)*L
        right = zeta._dirichlet_sieve(l2, l2)   # (L*L)*(L*L)
        np.testing.assert_allclose(left[1:], right[1:], rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("fn", [
        lambda n: np.log(np.arange(1, n + 1, dtype=float)),
        np.ones,
    ], ids=["log", "ones"])
    def test_self_convolution_matches_two_table_form(self, fn):
        # f is g takes each off-diagonal pair in one multiply; a copy of f
        # takes the two-product form, and the sums must agree to the bit
        n_max = 100_000
        f = np.zeros(n_max + 1)
        f[1:] = fn(n_max)
        assert np.array_equal(zeta._dirichlet_sieve(f, f), zeta._dirichlet_sieve(f, f.copy()))

    def test_integer_tables_sum_exactly(self):
        # Up to n = 12 the largest d(n) is d(12) = 6, so uint8 tables hold
        # every sum when max|f| max|g| <= 255 / 6.
        f = np.full(13, 6, np.uint8)
        assert zeta._dirichlet_sieve(f, f).tolist() == (36 * divisor_table(2, 12)).tolist()
        # int32 holds 200 * 200 * 6
        f = np.full(13, 200, np.int32)
        assert zeta._dirichlet_sieve(f, f)[[1, 4, 12]].tolist() == [40000, 120000, 240000]

    @pytest.mark.parametrize("table", [divisor_table, log_convolution_table])
    def test_csv_bytes_equal_csv_module(self, tmp_path, table):
        what = "divisor-table" if table is divisor_table else "log-table"
        argv = ["zeta", "--what", what, "--s", "3", "--n-max", "60",
                "--csv-out", str(tmp_path / "table.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        with open(tmp_path / "expected.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "value"])
            for n, value in enumerate(table(3, 60)[1:].tolist(), 1):
                writer.writerow([n, repr(value)])
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestSegmentedSieve:
    """_dirichlet_sieve walks the output in segments; the row sieve sweeps
    each row over the whole output.  Every entry must get the same bits."""

    N_MAX = 2_500_000  # three segments of 2^20

    def test_tables_span_three_segments(self):
        assert 2 * zeta._SEGMENT < self.N_MAX + 1 <= 3 * zeta._SEGMENT

    @staticmethod
    def _random_table(rng, n_max, zero_rows):
        f = rng.standard_normal(n_max + 1)
        f[0] = 0.0
        f[list(zero_rows)] = 0.0
        return f

    def test_self_form_equals_row_sieve(self):
        rng = np.random.default_rng(14)
        f = self._random_table(rng, self.N_MAX, (1, 2, 1000))
        assert np.array_equal(zeta._dirichlet_sieve(f, f), dirichlet_convolve_rows(f, f))

    def test_two_table_form_equals_row_sieve(self):
        rng = np.random.default_rng(15)
        # rows 1 and 1000 vanish in both tables and are skipped; row 2 and
        # row 3 vanish in one table only and are not
        f = self._random_table(rng, self.N_MAX, (1, 2, 1000))
        g = self._random_table(rng, self.N_MAX, (1, 3, 1000))
        assert np.array_equal(zeta._dirichlet_sieve(f, g), dirichlet_convolve_rows(f, g))

    @classmethod
    def _in_place_tables(cls, rng, n_max, row_one):
        """f and g with f(1), g(1) = 1 where `row_one` names them, else 0, and
        both -0.0 on a stride above n_max/2: there, at a prime n, only row 1
        contributes, and its -0.0 term must leave +0.0 as the row sieve does."""
        f, g = (cls._random_table(rng, n_max, ()) for _ in "fg")
        for table, name in ((f, "f"), (g, "g")):
            table[n_max // 2 + 1 :: 97] = -0.0
            table[1] = 1.0 if row_one in (name, "both") else 0.0
        return f, g

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("into", ["f", "g"])
    @pytest.mark.parametrize("row_one", ["f", "g", "both"])
    def test_two_table_form_in_place_equals_row_sieve(self, row_one, into):
        f, g = self._in_place_tables(np.random.default_rng(17), self.N_MAX, row_one)
        expected = dirichlet_convolve_rows(f, g)
        out = f if into == "f" else g
        assert zeta._dirichlet_sieve(f, g, out=out) is out
        assert self._same_bits(out, expected)

    @pytest.mark.parametrize("n_max", [1, 12, 1000, zeta._SEGMENT - 1, zeta._SEGMENT + 1,
                                       2 * zeta._SEGMENT + 1, N_MAX])
    def test_in_place_equals_row_sieve(self, n_max):
        # n_max + 1 <= _SEGMENT: every entry is summed aside in the first
        # segment; n_max = k 2^20 + 1: the top segment holds the final 2
        # entries; N_MAX: the first segment meets two written in place
        f, g = self._in_place_tables(np.random.default_rng(n_max), n_max, "both")
        expected_fg, expected_ff = dirichlet_convolve_rows(f, g), dirichlet_convolve_rows(f, f)
        assert self._same_bits(zeta._dirichlet_sieve(f, g, out=g), expected_fg)
        assert self._same_bits(zeta._dirichlet_sieve(f, f, out=f), expected_ff)

    def test_out_of_wrong_length_or_dtype_is_refused(self):
        f = np.ones(13, np.uint8)
        with pytest.raises(ValueError, match="out must be a uint8 table of length 13"):
            zeta._dirichlet_sieve(f, f, out=np.ones(12, np.uint8))
        with pytest.raises(ValueError, match="out must be a uint8 table of length 13"):
            zeta._dirichlet_sieve(f, f, out=np.ones(13))
        with pytest.raises(ValueError, match="out must be a float64 table of length 13"):
            zeta._dirichlet_sieve(f, np.ones(13), out=f)

    @pytest.mark.parametrize("table, dtype", [(log_convolution_table, np.float64),
                                              (divisor_table, np.uint16)])
    def test_peak_memory_is_one_table_and_the_segment_buffers(self, table, dtype):
        # At s = 2 the sieve writes over its base, so it holds that table, the
        # piece buffer and the summed-aside first segment, both in the sieve's
        # dtype.  The uint16 divisor table is then copied to float64; here it
        # is as large as the two segments.  A sieve into a new array would
        # hold a second table (the log table's peak was 2.5 tables).
        n_max = 2**21 + 1
        allowance = 2**17  # the row list and the array headers
        bound = 8 * (n_max + 1) + 2 * zeta._SEGMENT * np.dtype(dtype).itemsize + allowance
        tracemalloc.start()
        try:
            values = table(2, n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if table is divisor_table:
            assert np.min_scalar_type(int(values.max())) == dtype
        assert peak <= bound

    @staticmethod
    def _sieve_dtypes(monkeypatch):
        """Record the dtype of every table that the sieve returns."""
        dtypes, convolve = [], zeta._dirichlet_sieve

        def spy(f, g, out=None):
            out = convolve(f, g, out)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(zeta, "_dirichlet_sieve", spy)
        return dtypes

    @pytest.mark.parametrize("s, n_max", [(1, N_MAX), (2, N_MAX), (3, N_MAX), (4, N_MAX),
                                          (200, 1024)])
    def test_divisor_tables_equal_float_row_sieve(self, monkeypatch, s, n_max):
        # Integer sums are exact in any order, so below 2^53 the integer
        # sieve gives the float sieve's bits; max d_200 up to 1024 is
        # C(209, 10) > 2^53, and that table is sieved in float64.
        dtypes = self._sieve_dtypes(monkeypatch)
        values = divisor_table(s, n_max)
        top = int(values.max())
        assert dtypes == [np.min_scalar_type(top) if top < 2**53 else np.float64] * (s - 1)
        ones = np.ones(n_max + 1)
        ones[0] = 0.0
        expected = ones
        for _ in range(s - 1):
            expected = dirichlet_convolve_rows(expected, ones)
        assert values.dtype == np.float64
        assert np.array_equal(values, expected)

    @pytest.mark.parametrize("series", [deriv_moment_series, lindelof_series])
    @pytest.mark.parametrize("s, n_max", [(2, 2**21 + 1), (3, 2**20 + 1)])
    def test_series_equal_row_sieve_series(self, monkeypatch, series, s, n_max):
        # n_max = 2^k + 1: the last segment holds just the final 2 entries
        result = series(s, 0.6, n_max)
        monkeypatch.setattr(zeta, "_dirichlet_sieve", dirichlet_convolve_rows)
        assert result == series(s, 0.6, n_max)
        # and the in-place series sum is the out-of-place one, on the row-sieve table
        table = (log_convolution_table if series is deriv_moment_series else divisor_table)(s, n_max)
        n = np.arange(1, n_max + 1, dtype=float)
        assert result.value == float(np.sum(table[1:] ** 2 * n ** (-2 * 0.6)))


class TestDivisorGrowthConstant:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_max", [1, 2, 3, 12, 1000, 10**5])
    def test_candidates_give_the_table_maximum(self, s, n_max):
        # the maximum over exponent-sorted integers is the maximum over all n
        for sigma in (0.5000001, 0.6, 0.75, 1.5, 3.0):
            delta = (2 * sigma - 1) / 4
            assert _divisor_growth_constant(s, n_max, delta) == (
                divisor_growth_constant_from_table(s, n_max, delta)
            )


class TestDerivSeries:
    def test_s1_is_zeta_second_derivative(self):
        result = deriv_moment_series(1, 0.8, 200_000)
        assert _within_tail(result, zeta_real(1.6, 2))

    def test_s1_tail_bound_is_honest(self):
        result = deriv_moment_series(1, 0.8, 50_000)
        gap = zeta_real(1.6, 2) - result.value
        assert 0 < gap <= result.tail_bound <= 20 * gap

    def test_s1_critical_trend(self):
        # (2 sigma - 1)^3 times the series tends to 2 as sigma -> 1/2; the
        # series equals zeta''(2 sigma), so track the trend through zeta_real
        scaled = [(2 * s - 1) ** 3 * zeta_real(2 * s, 2) for s in (0.7, 0.6, 0.55, 0.52)]
        assert all(abs(v - 2) < abs(w - 2) for w, v in zip(scaled, scaled[1:]))
        assert abs(scaled[-1] - 2) < 0.3

    def test_domain(self):
        with pytest.raises(ValueError):
            deriv_moment_series(1, 0.5, 100)

    @pytest.mark.parametrize("series", [deriv_moment_series, lindelof_series])
    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_is_refused(self, series, sigma):
        # nan gave a nan value, inf a nan tail bound and tail estimate
        with pytest.raises(ValueError, match="requires finite sigma, got sigma = "):
            series(2, sigma, 100)

    @pytest.mark.parametrize("series", [deriv_moment_series, lindelof_series])
    def test_peak_memory_is_two_and_a_half_tables(self, series):
        # The log table is sieved in place through two 2^20-entry (8 MB)
        # segment buffers: one table and two segments.  The series then
        # squares and weights the table in place; out-of-place squares and
        # terms would add two tables.  The divisor table is sieved in uint16
        # and copied once to float64.
        n_max = 2**22 + 1
        table_bytes = 8 * (n_max + 1)
        tracemalloc.start()
        try:
            series(2, 0.6, n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * table_bytes

    @pytest.mark.parametrize("series", [deriv_moment_series, lindelof_series])
    @pytest.mark.parametrize("n_max", [1, 2])
    def test_too_short_table_is_refused(self, series, n_max):
        with pytest.raises(ValueError, match="n_max >= 3"):
            series(2, 0.8, n_max)


class TestLindelofSeries:
    @pytest.mark.parametrize("sigma", [0.75, 1.0, 1.5])
    def test_s1_is_zeta(self, sigma):
        result = lindelof_series(1, sigma, 300_000)
        assert _within_tail(result, zeta_real(2 * sigma))

    def test_ramanujan_identity(self):
        # sum d(n)^2 / n^2 = zeta(2)^4 / zeta(4)
        result = lindelof_series(2, 1.0, 300_000)
        target = zeta_real(2.0) ** 4 / zeta_real(4.0)
        assert _within_tail(result, target)

    def test_critical_trend_toward_arithmetic_factor(self):
        # (2 sigma - 1)^(s^2) series decreases toward a_s as sigma drops: the
        # subleading zeta terms inflate it at moderate sigma
        a2 = arithmetic_factor(2.0, 100_000).value
        scaled = []
        for sigma in (0.8, 0.7, 0.65):
            r = lindelof_series(2, sigma, 400_000)
            scaled.append((2 * sigma - 1) ** 4 * r.value)
        assert scaled[0] > scaled[1] > scaled[2] > a2
        # and the last point has closed most of the distance from the first
        assert scaled[2] - a2 < 0.5 * (scaled[0] - a2)


class TestArithmeticFactor:
    def test_a1_is_one(self):
        result = arithmetic_factor(1.0, 5000)
        assert abs(result.value - 1.0) < 1e-12

    def test_a2_closed_form(self):
        result = arithmetic_factor(2.0, 10**6)
        assert abs(result.value - 6 / math.pi**2) < 1e-8

    def test_self_consistency_in_pmax(self):
        a = arithmetic_factor(3.0, 10**4)
        b = arithmetic_factor(3.0, 10**5)
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound

    def test_non_integer_s(self):
        assert arithmetic_factor(1.5, 10**4).value > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            arithmetic_factor(0.0, 1000)
        with pytest.raises(ValueError):
            arithmetic_factor(2.0, 50)
        # nan and inf were reported as a local factor leaving double precision
        for s in (math.nan, math.inf):
            with pytest.raises(ValueError, match="requires finite s, got s = "):
                arithmetic_factor(s, 1000)

    # Exact equality: the vectorised recurrence runs the oracle's float
    # operations in its order.  It also pins the logs to libm: numpy's SIMD
    # np.log / np.log1p differ from libm in the last bit at a few primes on
    # some CPUs (AVX-512 builds), and this test then fails.  p_max = 10^6
    # spans two of arithmetic_factor's blocks of 2^16 primes.
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 3.0, 7.0])
    def test_logs_equal_scalar_recurrence(self, s):
        primes = primes_up_to(10**6)
        expected = [euler_factor_log(s, p) for p in primes.tolist()]
        assert _euler_factor_logs(s, primes).tolist() == expected

        log_total = 0.0
        for log_f in expected:
            log_total += log_f
        kappa = s * s * (s - 1) ** 2 / 4
        p2_tail = zeta._PRIME_ZETA_2 - float(np.sum(1.0 / primes.astype(float) ** 2))
        assert arithmetic_factor(s, 10**6).value == math.exp(log_total - kappa * p2_tail)

    @pytest.mark.parametrize("s", [300.0, 600.0, 1000.0, 2000.0])
    def test_overflowing_local_factor_is_capability_error(self, s):
        with pytest.raises(CapabilityError, match="p = 2 "):
            arithmetic_factor(s, 100)

    @pytest.mark.parametrize("s", [25.0, 40.0])
    def test_underflowing_product_is_capability_error(self, s):
        # a_s > 0, so a product that underflows must not be reported as 0.0
        with pytest.raises(CapabilityError, match="underflows"):
            arithmetic_factor(s, 1000)


class TestPrimesHelpers:
    def test_sieve(self):
        assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 9, 10, 25, 49, 100, 10**6, 10**7])
    def test_odd_sieve_equals_every_integer_sieve(self, limit):
        # 9, 25 and 49: a prime square at the very end of the sieve
        primes = primes_up_to(limit)
        expected = primes_up_to_every_integer(limit)
        assert primes.dtype == expected.dtype == np.int64
        assert np.array_equal(primes, expected)

    def test_prime_zeta_two(self):
        # The constants P(2) and P(3) exceed the sum over p <= x by the tail
        # over p > x, which is below the integral of t^-k from x on.
        x = 2_000_000
        inverse_primes = 1.0 / primes_up_to(x).astype(float)
        for k, constant in ((2, zeta._PRIME_ZETA_2), (3, zeta._PRIME_ZETA_3)):
            direct = float(np.sum(inverse_primes**k))
            assert 0 < constant - direct < x ** (1 - k) / (k - 1)
        assert repr(zeta._PRIME_ZETA_2) == "0.4522474200410655"
        assert repr(zeta._PRIME_ZETA_3) == "0.17476263929944352"


class TestConjecture:
    def test_h1(self):
        assert abs(rmt_leading_coefficient(1.0) - 2.0) < 1e-12

    def test_h2_laguerre(self):
        assert abs(rmt_leading_coefficient(2.0) - 34.0) < 1e-10

    def test_s2_value(self):
        ref = (6 / math.pi**2) * 34 / 0.2**8
        value = conjecture_rhs(2.0, 0.6, p_max=10**5)
        assert abs(value - ref) < 1e-4 * ref

    def test_domain(self):
        with pytest.raises(ValueError):
            conjecture_rhs(2.0, 0.5)
        # s = nan was reported as a local factor leaving double precision,
        # sigma = inf gave 0.0
        with pytest.raises(ValueError, match="requires finite s, got s = "):
            conjecture_rhs(math.nan, 0.6)
        with pytest.raises(ValueError, match="requires finite sigma, got sigma = "):
            conjecture_rhs(2.0, math.inf)
        with pytest.raises(ValueError, match="requires finite s, got s = "):
            rmt_leading_coefficient(math.nan)

    def test_underflowing_arithmetic_factor_is_capability_error(self):
        with pytest.raises(CapabilityError, match="underflows"):
            conjecture_rhs(22.0, 0.99, p_max=1000)

    @pytest.mark.parametrize("s", [10.0, 20.0])
    def test_loose_arithmetic_factor_is_capability_error(self, s):
        # at p_max = 100 the Euler product's tail bound is 2 (s = 10) and
        # 3e18 (s = 20) times its value
        factor = arithmetic_factor(s, 100)
        assert factor.tail_bound > 1e-6 * factor.value
        with pytest.raises(CapabilityError, match="raise --p-max"):
            conjecture_rhs(s, 0.99, p_max=100)
        assert conjecture_rhs(s, 0.99, p_max=10**6) > 0
