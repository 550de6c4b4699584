import math
import warnings
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from cuederiv import combinatorics
from cuederiv.asymptotics import micro_b
from cuederiv.errors import CapabilityError
from cuederiv.exact_moments import (
    EXACT_S_CAP,
    _b_expansion,
    _block_sums,
    _c_upoly,
    _entry_from_kd,
    _k_derivatives_exact,
    _k_derivatives_float,
    _structure_a_upoly,
    cue_moment_integer,
    cue_moment_ks,
    cue_moment_radial,
    moment_exact,
    moment_structure,
)
from cuederiv.linalg import det_exact, det_float
from cuederiv.specfun import exp_moment, hyp1f1
from oracles import (
    appendix_d00,
    bareiss_det,
    block_exponent,
    laplace_block_sums,
    moment_exact_per_term,
    partition_block_sum,
    partition_det_sum_exact,
    partition_det_sum_float,
    partition_det_sum_loop,
    structure_a,
    structure_b,
)


def closed_sum_s1(N, u):
    """Independent s = 1 oracle: sum of j^2 u^(j-1)."""
    return sum(j * j * u ** (j - 1) for j in range(1, N + 1))


def k_polynomial(N, s):
    """Coefficients of K_N(u) = 1 + u + ... + u^(N+s-1), lowest power first."""
    return [1] * (N + s)


def derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def evaluate(coeffs, u):
    total = 0
    for c in reversed(coeffs):
        total = total * u + c
    return total


def every_pair(s):
    """Every (h1, h2) with 0 <= h1, h2 <= s: the whole b table."""
    return [(h1, h2) for h1 in range(s + 1) for h2 in range(s + 1)]


def derivative_entry(p, q, N, s, u):
    """The (p, q) determinant entry (u^p K_N^(p)(u))^(q) at rational u = a/b:
    moment_exact's integer entry over its row denominator b^(N+s-1+p)."""
    a, b = u.numerator, u.denominator
    kd = _k_derivatives_exact(N, s, a, b, p + q)
    a_pows, b_pows = [a**e for e in range(p + 1)], [b**e for e in range(p + 1)]
    return Fraction(_entry_from_kd(p, q, a_pows, b_pows, kd), b ** (N + s - 1 + p))


def one_matrix_det_float(rows):
    """The single-matrix float determinant that det_float takes minor by minor:
    rows scaled by their largest magnitude, np.linalg.slogdet, log scales
    added back."""
    a = np.array(rows, dtype=float)
    log_scale = 0.0
    for i in range(len(a)):
        mx = np.max(np.abs(a[i]))
        if mx == 0.0:
            return 0.0
        a[i] /= mx
        log_scale += math.log(mx)
    sign, log_abs = np.linalg.slogdet(a)
    return 0.0 if sign == 0.0 else float(sign) * math.exp(log_abs + log_scale)


def one_minor(rows):
    """det_float of a square matrix taken as the single minor of itself."""
    n = len(rows)
    return det_float(rows, [range(n)], [range(n)])[0, 0]


def one_exact_minor(rows):
    """det_exact of an integer matrix taken as the single minor of itself."""
    return det_exact(rows, [range(len(rows))], [range(len(rows[0]) if rows else 0)])[0][0]


def assert_exact_minors(table, rows, cols):
    """det_exact's minors of `table` equal the oracle's, each taken on its own."""
    dets = det_exact(table, rows, cols)
    assert dets == [[bareiss_det([[table[x][y] for y in c] for x in r]) for c in cols]
                    for r in rows], (table, rows, cols)


class TestDeterminants:
    def test_exact_matches_float(self):
        # [[1/3, 2], [-5/7, 1/2]], its rows scaled to integers by 3 and 14
        exact = Fraction(one_exact_minor([[1, 6], [-10, 7]]), 3 * 14)
        approx = one_minor([[1 / 3, 2.0], [-5 / 7, 0.5]])
        assert exact == Fraction(1, 6) + Fraction(10, 7)
        assert abs(float(exact) - approx) < 1e-14

    def test_singular(self):
        assert one_exact_minor([[1, 2], [2, 4]]) == 0
        assert one_minor([[0.0, 0.0], [1.0, 2.0]]) == 0.0

    def test_pivoting(self):
        rows = [[0, 1, 2], [1, 0, 1], [2, 3, 0]]
        assert one_exact_minor(rows) == 0 * (0 - 3) - 1 * (0 - 2) + 2 * (3 - 0)

    def test_exact_is_integer_bareiss(self):
        assert one_exact_minor([]) == 1
        assert one_exact_minor([[0, 1], [1, 0]]) == -1
        assert one_exact_minor([[0, 0, 1], [0, 2, 3], [4, 5, 6]]) == -8
        assert one_exact_minor([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
        big = 10**40
        assert one_exact_minor([[big, 1], [1, big]]) == big * big - 1
        assert type(one_exact_minor([[2, 1], [1, 2]])) is int
        with pytest.raises(ValueError):
            one_exact_minor([[1, 2]])

    def test_exact_minors_of_small_random_tables(self):
        # Entries in -2..2 make zero pivots and singular minors common; the
        # index tuples are unsorted, and some repeat an index.
        rng = np.random.default_rng(29)
        for _ in range(300):
            size = int(rng.integers(1, 9))
            n = int(rng.integers(1, size + 1))
            table = rng.integers(-2, 3, (size, size)).tolist()
            rows = [rng.permutation(size)[:n].tolist() for _ in range(int(rng.integers(1, 7)))]
            cols = [rng.permutation(size)[:n].tolist() for _ in range(int(rng.integers(1, 7)))]
            rows.append(rng.integers(0, size, n).tolist())
            assert_exact_minors(table, rows, cols)

    def test_exact_minors_with_zero_and_repeated_rows(self):
        rng = np.random.default_rng(30)
        table = rng.integers(-9, 10, (7, 7)).tolist()
        table[2] = [0] * 7
        table[5] = list(table[1])
        subsets = [list(c) for c in combinations(range(7), 4)]
        assert_exact_minors(table, subsets, subsets[::-1])
        assert_exact_minors(table, [[1, 5, 0], [3, 3, 4], [2, 0, 6]], [[0, 1, 2], [6, 4, 2]])

    def test_exact_minors_of_upper_triangular_tables(self):
        # The shape of moment_exact's table at u = 0: each entry below the
        # diagonal is zero, so a sorted minor starts with a zero pivot.
        rng = np.random.default_rng(31)
        table = np.triu(rng.integers(-3, 4, (8, 8))).tolist()
        for n in (1, 3, 5, 8):
            subsets = [list(c) for c in combinations(range(8), n)]
            assert_exact_minors(table, subsets, subsets)

    def test_exact_minor_signs_under_permutation(self):
        # Every ordering of the same rows and columns: the sign of its sorting.
        rng = np.random.default_rng(32)
        table = rng.integers(-50, 51, (6, 6)).tolist()
        orderings = [list(p) for p in permutations([0, 2, 3, 5])]
        assert_exact_minors(table, orderings, orderings)

    def test_exact_empty_minors(self):
        table = [[1, 2], [3, 4]]
        assert det_exact(table, [(), ()], [(), (), ()]) == [[1, 1, 1], [1, 1, 1]]
        assert det_exact(table, [], [(0,)]) == []
        assert det_exact(table, [(1,)], []) == [[]]
        assert det_exact([], [()], [()]) == [[1]]
        with pytest.raises(ValueError):
            det_exact(table, [(0,)], [(0, 1)])

    @pytest.mark.parametrize("s", range(1, 9))
    def test_exact_minors_over_the_partition_orders(self, s):
        rng = np.random.default_rng(33 + s)
        orders = [p for _, _, p in combinatorics._partition_data(s)]
        assert_exact_minors(rng.integers(-2, 3, (2 * s, 2 * s)).tolist(), orders, orders)
        assert_exact_minors(exact_moment_table(10, s, Fraction(1, 2)), orders, orders)

    def test_float_stack_shapes(self):
        # (len(rows), len(cols)) minors of size len(rows[0]) = len(cols[0])
        table = np.random.default_rng(3).standard_normal((6, 6))
        assert det_float(table, [[0, 1, 2, 3], [2, 3, 4, 5]], [[0, 1, 2, 3]] * 3).shape == (2, 3)
        assert det_float(table, np.zeros((0, 3), int), [[0, 1, 2]]).shape == (0, 1)
        assert det_float(table, np.zeros((5, 0), int), np.zeros((1, 0), int)).tolist() == [[1.0]] * 5

    def test_float_zero_row(self):
        assert one_minor([[1.0, 2.0], [0.0, 0.0]]) == 0.0
        assert one_minor([[0.0, 0.0], [0.0, 0.0]]) == 0.0
        assert abs(one_minor([[2.0, 1.0], [1.0, 2.0]]) - 3.0) < 1e-14

    def test_float_stack_equals_one_matrix_calls(self):
        # Rows spread over 10^(-45)..10^45: the row scaling carries them.
        # Every minor of the table, each built and scaled on its own.
        rng = np.random.default_rng(7)
        table = rng.standard_normal((10, 10)) * 10.0 ** rng.integers(-45, 45, (10, 1))
        table[2] = 0.0
        table[7] = table[4]
        rows = [rng.permutation(10)[:6] for _ in range(12)] + [[0, 1, 2, 3, 5, 6], [9, 8, 7, 4, 1, 0]]
        cols = [rng.permutation(10)[:6] for _ in range(9)]
        dets = det_float(table, rows, cols).tolist()
        assert dets == [[one_matrix_det_float(table[np.ix_(r, c)]) for c in cols] for r in rows]
        assert dets[-2] == [0.0] * len(cols)

    def test_float_non_finite_row_that_no_minor_reads(self):
        table = [[math.inf, math.inf], [1.0, 2.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert det_float(table, [[1]], [[0], [1]]).tolist() == [[1.0, 2.0]]
        with pytest.raises(CapabilityError, match="non-finite"):
            det_float(table, [[0]], [[0]])

    def test_float_leaving_double_precision_is_capability_error(self):
        with pytest.raises(CapabilityError):
            one_minor([[1e200, 0.0], [0.0, 1e200]])
        with pytest.raises(CapabilityError):
            one_minor([[1.0, math.inf], [0.0, 1.0]])
        with pytest.raises(CapabilityError):
            one_minor([[1.0, math.nan], [0.0, 1.0]])
        assert one_minor([[1e-200, 0.0], [0.0, 1e-200]]) == 0.0


def exponential_moment_table(s, c):
    """micro_b's 2s x 2s table m_(p+q)(c)."""
    moments = [exp_moment(k, c) for k in range(4 * s - 1)]
    return [[moments[p + q] for q in range(2 * s)] for p in range(2 * s)]


def exact_moment_table(N, s, u):
    """moment_exact's integer 2s x 2s table at rational u = a/b (row p scaled by
    b^(N+s-1+p))."""
    a, b = u.numerator, u.denominator
    kd = _k_derivatives_exact(N, s, a, b, 4 * s - 2)
    a_pows, b_pows = [a**e for e in range(2 * s)], [b**e for e in range(2 * s)]
    return [[_entry_from_kd(p, q, a_pows, b_pows, kd) for q in range(2 * s)] for p in range(2 * s)]


def float_moment_table(N, s, u):
    """moment_exact's float 2s x 2s table at u."""
    kd = _k_derivatives_float(N, s, u, 4 * s - 2)
    u_pows = [u**e for e in range(2 * s)]
    return [[_entry_from_kd(p, q, u_pows, [1] * (2 * s), kd) for q in range(2 * s)]
            for p in range(2 * s)]


def partition_sum_hex(partition_sum, *args):
    """float.hex of a partition-determinant sum (or of moment_exact or micro_b,
    which end in one), or its CapabilityError message."""
    try:
        return partition_sum(*args).hex()
    except CapabilityError as error:
        return f"CapabilityError: {error}"


class TestFloatPartitionSumBits:
    """_partition_det_sum takes each row maximum once per (table row, column
    set); the sum is bit for bit the one that scales every minor row on its own."""

    def assert_same_bits(self, s, table):
        assert (partition_sum_hex(combinatorics._partition_det_sum, s, table)
                == partition_sum_hex(partition_det_sum_float, s, table)), (s, table)

    @pytest.mark.parametrize("N", [1, 3, 10, 200, 1000])
    def test_moment_tables(self, N):
        for s in range(1, 13):
            for u in (0.0, 1e-3, 0.5, 0.99, 1.0, 1.5):
                self.assert_same_bits(s, float_moment_table(N, s, u))

    def test_exponential_moment_tables(self):
        for s in range(1, 9):
            for c in (-40.0, -5.0, 0.0, 2.0, 800.0):
                self.assert_same_bits(s, exponential_moment_table(s, c))

    def test_random_tables(self):
        # rows spread over 10^(-45)..10^45, one zero row and two equal rows
        rng = np.random.default_rng(11)
        for s in range(2, 9):
            table = rng.standard_normal((2 * s, 2 * s)) * 10.0 ** rng.integers(-45, 45, (2 * s, 1))
            zero, first, second = rng.permutation(2 * s)[:3]
            table[zero] = 0.0
            table[second] = table[first]
            self.assert_same_bits(s, table)


class TestPerTermBits:
    """Float moment_exact and micro_b build their Leibniz entries from cached
    coefficients and per-table powers, scale each (table row, column set) once
    and sum with cached weights; every result is bit for bit the per-term
    oracle's (moment_exact_per_term, partition_det_sum_loop), and so is every
    CapabilityError message."""

    N_GRID = (1, 2, 3, 10, 200, 1000, 4000)
    U_GRID = ("0", "0.25", "0.5", "0.9", "0.99", "0.998001", "1")

    @pytest.mark.parametrize("N", N_GRID)
    def test_float_moment_exact(self, N):
        for s in range(1, 13):
            for u in map(float, self.U_GRID):
                assert (partition_sum_hex(moment_exact, N, s, u)
                        == partition_sum_hex(moment_exact_per_term, N, s, u)), (N, s, u)

    def test_grid_holds_a_zero_row(self):
        assert not np.any(float_moment_table(3, 8, 0.5)[-1])

    def test_micro_b(self):
        # c = N(1 - u), the microscopic scaling, at u = 1/2 and u = 1; the other
        # u would add 28 values of c and 3 s
        for c in (0.0, 0.5, 1.0, 1.5, 5.0, 100.0, 500.0, 2000.0):
            for s in range(1, 13):
                assert (partition_sum_hex(micro_b, s, c)
                        == partition_sum_hex(partition_det_sum_loop, s,
                                             exponential_moment_table(s, c))), (s, c)

    @pytest.mark.parametrize("N", N_GRID[:3])
    def test_exact_moment_exact(self, N):
        for s in range(1, EXACT_S_CAP + 1):
            for u in map(Fraction, self.U_GRID):
                assert moment_exact(N, s, u) == moment_exact_per_term(N, s, u), (N, s, u)


class TestKPolynomial:
    def test_small(self):
        assert k_polynomial(1, 1) == [1, 1]
        assert k_polynomial(2, 1) == [1, 1, 1]

    def test_degree(self):
        assert len(k_polynomial(5, 3)) - 1 == 7

    def test_polynomial_evaluation_and_derivative(self):
        p = k_polynomial(3, 1)
        assert evaluate(p, Fraction(1, 2)) == Fraction(15, 8)
        # derivative of 1+u+u^2+u^3 is 1+2u+3u^2 = 1+4+12 at u=2
        assert evaluate(derivative(p), 2) == 17


class TestDerivativeEntry:
    def test_no_derivatives_is_k_itself(self):
        for N in (1, 2, 5):
            u = Fraction(1, 3)
            assert derivative_entry(0, 0, N, 1, u) == evaluate(k_polynomial(N, 1), u)

    def test_uk_prime_example(self):
        # u K'(u) at N=2, s=1, u=1/2: (1/2)(1+2u) = 1
        assert derivative_entry(1, 0, 2, 1, Fraction(1, 2)) == 1

    def test_q_derivative_matches_symbolic_polynomial(self):
        for N in range(1, 7):
            s = 2
            poly = k_polynomial(N, s)
            # a small denominator and the 2^-52-grained dyadic of a float
            for u in (Fraction(2, 5), Fraction(0.99)):
                assert derivative_entry(0, 1, N, s, u) == evaluate(derivative(poly), u)
                assert derivative_entry(0, 2, N, s, u) == evaluate(derivative(derivative(poly)), u)

    def test_leibniz_against_symbolic(self):
        # (u^2 K''(u))' via symbolic polynomial calculus
        N, s = 4, 2
        u = Fraction(3, 7)
        k2 = derivative(derivative(k_polynomial(N, s)))
        # d/du [u^2 K''(u)] = 2u K'' + u^2 K'''
        expected = 2 * u * evaluate(k2, u) + u**2 * evaluate(derivative(k2), u)
        assert derivative_entry(2, 1, N, s, u) == expected


class TestMomentExact:
    @pytest.mark.parametrize("N", range(1, 7))
    def test_s1_closed_sum(self, N):
        for u in (Fraction(0), Fraction(1, 4), Fraction(1), Fraction(4)):
            assert moment_exact(N, 1, u) == closed_sum_s1(N, u)

    def test_unit_circle_s1(self):
        for N in (1, 2, 5, 9):
            assert moment_exact(N, 1, Fraction(1)) == Fraction(
                N * (N + 1) * (2 * N + 1), 6
            )

    def test_float_mode_tracks_exact(self):
        for N, s in [(3, 1), (4, 2), (2, 3)]:
            u = Fraction(1, 2)
            exact = moment_exact(N, s, u)
            approx = moment_exact(N, s, float(u))
            assert abs(approx - float(exact)) <= 1e-12 * float(exact)

    def test_nonnegative(self):
        for N in (1, 3, 5):
            for s in (1, 2, 3):
                for u in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2)):
                    assert moment_exact(N, s, u) >= 0

    def test_polynomial_degree_in_u(self):
        # the moment is a polynomial in u of degree s(N-1): the (d+1)-th
        # finite difference over integer nodes vanishes
        for N, s in [(2, 1), (4, 1), (3, 2), (5, 2)]:
            degree = s * (N - 1)
            nodes = [moment_exact(N, s, Fraction(t)) for t in range(degree + 2)]
            for _ in range(degree + 1):
                nodes = [b - a for a, b in zip(nodes, nodes[1:])]
            assert nodes == [0]

    def test_exact_capability_limit(self):
        with pytest.raises(CapabilityError):
            moment_exact(2, 9, Fraction(1, 2))
        with pytest.raises(CapabilityError):
            moment_exact(2, 13, 0.5)

    def test_rejects_negative_u(self):
        with pytest.raises(ValueError):
            moment_exact(2, 1, Fraction(-1, 2))

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_u_is_refused(self, u):
        # it was reported as a non-finite determinant entry
        with pytest.raises(ValueError, match=r"u = \|z\|\^2 must be finite and non-negative"):
            moment_exact(5, 2, u)

    def test_float_mode_makes_one_determinant_call(self, monkeypatch):
        shapes = []

        def counting(table, rows, cols):
            shapes.append((np.shape(table), np.shape(rows), np.shape(cols)))
            return det_float(table, rows, cols)

        monkeypatch.setattr(combinatorics, "det_float", counting)
        moment_exact(10, 6, 0.5)
        assert shapes == [((12, 12), (11, 6), (11, 6))]  # p(6)^2 minors of size 6

    def test_float_overflow_is_capability_error(self):
        # A determinant of the s = 12 sum leaves double precision.
        with pytest.raises(CapabilityError, match="overflow"):
            moment_exact(200, 12, 0.998001)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_zero_pivots_equal_per_minor_sum_and_structure(self, s):
        # At N <= 3 the kernel's degree N + s - 1 is below the table's highest
        # derivative order, and at u = 0 the table is upper triangular, so
        # the shared elimination meets zero pivots.
        for N in (1, 2, 3):
            for u in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)):
                table = exact_moment_table(N, s, u)
                scale = u.denominator ** (s * (N + s - 1) + s * (s + 1) // 2)
                value = moment_exact(N, s, u)
                assert value == partition_det_sum_exact(s, table) / scale, (N, u)
                assert value == moment_structure(N, s, u), (N, u)

    def test_large_N_at_u0(self):
        # Past N of about 5e6 at s = 12 an overflowed perm(j, m) meets an
        # underflowed u^j in the kernel derivatives; that term is 0.  The
        # moment at u = 0 is s! for every N >= s.
        assert moment_exact(6 * 10**6, 12, 0.0) == moment_exact(40, 12, 0.0)

    def test_large_N_at_half(self):
        assert moment_exact(6 * 10**6, 12, 0.5) == pytest.approx(
            moment_exact(4 * 10**6, 12, 0.5), rel=1e-8)

    def test_large_denominator_equals_structure_route(self):
        # u = Fraction(0.99) has denominator 2^52: every determinant entry
        # carries a power of it.
        u = Fraction(0.99)
        assert moment_exact(300, 4, u) == moment_structure(300, 4, u)


class TestStructureA:
    def test_vanishes_past_s(self):
        assert structure_a(2, 0, 3, 0.5) == 0.0
        assert structure_a(1, 0, 2, 0.25) == 0.0
        assert _structure_a_upoly(2, 0, 3) == _structure_a_upoly(1, 0, 2) == []

    def test_s1_base(self):
        assert _structure_a_upoly(1, 0, 0) == [1, 1]
        for r in (0.0, 0.3, 0.9):
            assert abs(structure_a(1, 0, 0, r) - (1 + r * r)) < 1e-12

    def test_full_gamma_form_at_origin(self):
        # h1 = h2 = 0 at r = 0: Gamma(s+1)
        for s in (1, 2, 3):
            assert _structure_a_upoly(s, 0, 0)[0] == math.factorial(s)
            assert abs(structure_a(s, 0, 0, 0.0) - math.gamma(s + 1)) < 1e-12

    def test_requires_ordered_pair(self):
        with pytest.raises(ValueError):
            _structure_a_upoly(2, 2, 1)
        with pytest.raises(ValueError):
            structure_a(2, 2, 1, 0.5)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_laguerre_form_matches_hypergeometric_form(self, s):
        for h1 in range(s + 1):
            for h2 in range(h1, s + 1):
                for r in (0.0, 0.3, 0.5, 0.9, 0.99):
                    value = float(evaluate(_structure_a_upoly(s, h1, h2), Fraction(r) ** 2))
                    reference = structure_a(s, h1, h2, r)
                    assert abs(value - reference) <= 1e-12 * abs(reference), (h1, h2, r)


class TestStructureB:
    def test_b00_is_scaled_polynomial_moment_s1(self):
        N, r = 5, Fraction(1, 3)
        assert structure_b(N, 1, 0, 0, r) == 1 - r ** (2 * N + 2)

    def test_b00_equals_radial_cue_moment(self):
        for N in (1, 3, 10, 50):
            for s in range(1, 6):
                for r in (Fraction(1, 2), Fraction(2), Fraction(99, 100)):
                    lhs = structure_b(N, s, 0, 0, r)
                    rhs = (1 - r * r) ** (s * s) * cue_moment_radial(N, s, r)
                    assert lhs == rhs, (N, s, r)

    def test_symmetry_all_pairs(self):
        N, s, r = 4, 2, Fraction(1, 2)
        for h1 in range(s + 1):
            for h2 in range(s + 1):
                assert structure_b(N, s, h1, h2, r) == structure_b(N, s, h2, h1, r)

    def test_b00_tends_to_one_inside_disc(self):
        s, u = 2, 0.25
        r = math.sqrt(u)
        values = [
            (1 - u) ** (s * s) * cue_moment_radial(N, s, r) for N in (50, 100)
        ]
        assert abs(values[0] - values[1]) < 1e-6
        assert abs(values[1] - 1) < 1e-6

    @pytest.mark.parametrize("s", (1, 2, 3, 4))
    @pytest.mark.parametrize("N", (1, 5, 10))
    def test_expansion_matches_numeric_evaluation(self, N, s):
        r = Fraction(1, 3)
        b_table = _b_expansion(s, _block_sums(N, s), every_pair(s))
        for h1 in range(s + 1):
            for h2 in range(s + 1):
                poly = b_table[h1, h2]
                value = sum(c * r**e for e, c in poly.items())
                assert value == structure_b(N, s, h1, h2, r), (h1, h2)

    @pytest.mark.parametrize("s", (1, 2, 3, 4, 5, 6))
    @pytest.mark.parametrize("N", (1, 10, 1000))
    def test_block_sums_equal_the_laplace_table(self, N, s):
        assert _block_sums(N, s) == laplace_block_sums(N, s)

    @pytest.mark.parametrize("s", (1, 2, 3, 4, 5))
    @pytest.mark.parametrize("N", (1, 3, 10, 1000))
    def test_block_sums_equal_partition_sums(self, N, s):
        z_exps, w_exps = ([block_exponent(N, s, row, j) for j in range(2 * s)] for row in (0, s))
        subsets = list(combinations(range(2 * s), s))
        records = _block_sums(N, s)
        assert len(records) == len(subsets)
        # z-rows on every subset, w-rows on every complement, every h <= s
        for cols, (_, _, z, w) in zip(subsets, records):
            rest = [j for j in range(2 * s) if j not in cols]
            z_ref = [partition_block_sum(h, s, tuple(z_exps[j] for j in cols)) for h in range(s + 1)]
            w_ref = [partition_block_sum(h, s, tuple(w_exps[j] for j in rest)) for h in range(s + 1)]
            assert (z, w) == (z_ref, w_ref), cols


class TestStructureC:
    def test_empty_above_2s(self):
        assert _c_upoly(3, 1, 3, _b_expansion(1, _block_sums(3, 1), every_pair(1))) == []
        assert _c_upoly(3, 2, 5, _b_expansion(2, _block_sums(3, 2), every_pair(2))) == []

    def test_polynomial_degree_in_u(self):
        for N, s in [(2, 1), (4, 1), (3, 2)]:
            for h in range(2 * s + 1):
                poly = _c_upoly(N, s, h, _b_expansion(s, _block_sums(N, s), every_pair(s)))
                assert len(poly) - 1 == N * s + s * s + s - h, (N, s, h)

    def test_c0_limit_is_hypergeometric_coefficient(self):
        s, r = 2, 0.5
        limit = (
            math.gamma(s + 1)
            * math.exp(-(s * r) ** 2)
            * hyp1f1(s + 1, 1, (s * r) ** 2)
        )
        b_table = _b_expansion(s, _block_sums(200, s), every_pair(s))
        value = float(evaluate(_c_upoly(200, s, 0, b_table), Fraction(1, 4)))
        assert abs(value - limit) < 1e-4 * abs(limit)

    def test_higher_c_vanish_in_the_limit(self):
        s = 2
        b_table = _b_expansion(s, _block_sums(200, s), every_pair(s))
        for h in (1, 2, 3, 4):
            assert abs(evaluate(_c_upoly(200, s, h, b_table), Fraction(1, 4))) < 1e-4


GRID_POINTS = [Fraction(0), Fraction(1, 16), Fraction(1, 4), Fraction(9, 16), Fraction(4)]

# (s, N): the grid for s <= 2, then N in {1, 2, 3, 10} up to the exact cap
# s = 8.  Every moment_structure call builds its own block sums, and at N = 10
# one point takes about 0.1 s at s = 7 and 0.6 s at s = 8, so s >= 3 runs at
# u = 1/2 and 1/3 and s >= 7 at u = 1/2 only.  Budget: the whole test within
# 25 s on a 2-core machine; it takes about 2.3 s.
ROUTE_CASES = (
    [(s, N) for s in (1, 2) for N in (1, 2, 3, 4, 5, 6, 10)]
    + [(s, N) for s in range(3, 7) for N in (1, 2, 3, 10)]
    + [(7, 10), (8, 10)]
)


class TestMomentStructure:
    @pytest.mark.parametrize("s, N", ROUTE_CASES)
    def test_equals_determinant_route(self, s, N):
        points = [Fraction(1, 2)] if s >= 7 else [Fraction(1, 2), Fraction(1, 3)]
        if s <= 2:
            points += GRID_POINTS
        for u in points:
            assert moment_structure(N, s, u) == moment_exact(N, s, u), u

    def test_spec_point(self):
        assert moment_structure(2, 1, Fraction(1, 4)) == 2

    def test_u_zero_collapse(self):
        # at z = 0 the derivative is -conj(trace), whose 2s-th absolute moment
        # is s! once N >= s
        for N, s in [(2, 1), (3, 2), (4, 3)]:
            assert moment_structure(N, s, Fraction(0)) == moment_exact(N, s, Fraction(0))
            assert moment_exact(N, s, Fraction(0)) == math.factorial(s)

    def test_float_route(self):
        for N, s, u in [(4, 1, 0.3), (5, 2, 0.49)]:
            exact = float(moment_exact(N, s, Fraction(u).limit_denominator(10**6)))
            assert abs(moment_structure(N, s, u) - exact) < 1e-9 * exact

    @pytest.mark.parametrize("N, u", [(10, 0.9), (10, 0.99), (10, 0.999999), (100, 0.99), (1000, 0.99)])
    def test_float_is_the_rounded_exact_value(self, N, u):
        # near u = 1 a float evaluation of the expansion loses every digit, or the sign
        value = moment_structure(N, 4, u)
        assert value == float(moment_structure(N, 4, Fraction(u)))
        assert value > 0

    def test_unit_circle_equals_determinant_route(self):
        # (1 - u)^(s^2 + 2s) divides the expansion's numerator, so u = 1 is a value too
        for s in (1, 2, 3, 4):
            for N in (1, 2, 3, 7, 20):
                exact = moment_exact(N, s, Fraction(1))
                assert moment_structure(N, s, Fraction(1)) == exact, (N, s)
                assert moment_structure(N, s, 1.0) == float(exact), (N, s)


class TestAppendixCoefficients:
    def test_s1_geometric(self):
        # b00 for s = 1 is 1 - u^(N+1): coefficient +1 at exponent 0 (l=0,m=0)
        # and -1 at exponent 2N+2 (l=1,m=1)
        N = 7
        assert appendix_d00(0, 0, 1, N) == 1
        assert appendix_d00(1, 1, 1, N) == -1

    def test_support_bounds(self):
        for s in (1, 2, 3):
            lo, hi = s * (s - 1) // 2, (3 * s - 1) * s // 2
            for l in range(s + 1):
                for m in range(0, hi + 3):
                    if not lo <= m <= hi:
                        assert appendix_d00(m, l, s, 6) == 0

    def test_capability_guard(self):
        with pytest.raises(CapabilityError):
            appendix_d00(0, 0, 4, 10)


class TestCueMoments:
    def test_s_zero(self):
        assert cue_moment_integer(3, 0) == 1
        assert cue_moment_ks(3, 0.0) == 1.0

    def test_hand_product(self):
        assert cue_moment_integer(2, 1) == 3
        assert abs(cue_moment_ks(2, 1.0) - 3.0) < 1e-12

    def test_routes_agree(self):
        for s in range(5):
            for N in (1, 2, 7, 20):
                exact = float(cue_moment_integer(N, s))
                assert abs(cue_moment_ks(N, s) - exact) <= 1e-10 * exact

    def test_radial_symmetry(self):
        # E|Lambda|^2s at r and 1/r differ by r^(2sN)
        for N, s in [(3, 1), (4, 2), (6, 2)]:
            r = Fraction(1, 2)
            assert cue_moment_radial(N, s, r) == r ** (2 * s * N) * cue_moment_radial(
                N, s, 1 / r
            )

    def test_float_radial_is_rounded_exact_value(self):
        points = [(10, 4, r) for r in (0.99, 0.999, 0.9999)] + [(200, 5, 0.999)]
        for N, s, r in points:
            value = cue_moment_radial(N, s, r)
            assert value == float(cue_moment_radial(N, s, Fraction(r))), (N, s, r)
            assert value > 0

    @pytest.mark.parametrize("r", (1, -1, Fraction(1), Fraction(-1), 1.0, -1.0),
                             ids=("1", "-1", "Fraction(1)", "Fraction(-1)", "1.0", "-1.0"))
    def test_radial_unit_circle_is_circle_moment(self, r):
        for N, s in [(1, 1), (4, 2), (9, 3), (20, 4)]:
            value = cue_moment_radial(N, s, r)
            assert value == cue_moment_integer(N, s), (N, s)
            assert isinstance(value, float) == isinstance(r, float)

    def test_radial_shares_the_exact_cap(self):
        with pytest.raises(CapabilityError):
            cue_moment_radial(4, 9, 0.5)

    def test_real_s_path(self):
        assert cue_moment_ks(5, 0.5) > 0
        with pytest.raises(ValueError):
            cue_moment_ks(5, -0.6)
        # nan and inf returned nan
        for s in (math.nan, math.inf):
            with pytest.raises(ValueError, match="requires finite s > -1/2"):
                cue_moment_ks(5, s)
