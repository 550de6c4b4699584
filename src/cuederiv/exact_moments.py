"""Exact finite-N moments of the derivative of CUE characteristic polynomials.

Two independent finite-N routes are implemented:

* ``moment_exact``: the partition/determinant formula built from repeated
  derivatives of the truncated geometric kernel K_N(u) = 1 + u + ... + u^(N+s-1).
* ``moment_structure``: the expansion of the moment as a polynomial in
  1/(1 - u) whose coefficients combine a confluent-hypergeometric factor
  (``structure_a``) with derivatives of a 2s x 2s block determinant
  (``structure_b``).  In exact mode the determinant's polynomial in r = |z|
  (``structure_b_expansion``) is built by a Laplace expansion over the
  C(2s, s) column subsets of its z-rows, one small integer determinant per
  subset and partition.

Both accept Fraction input for bit-exact results and float input for large N.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations
from numbers import Rational
from typing import Union

import numpy as np

from .combinatorics import enumerate_partitions, partition_factorial, syt_count
from .errors import CapabilityError
from .linalg import det_exact, det_float
from .specfun import hyp1f1, reciprocal_gamma

ExactNumber = Union[Fraction, float]

EXACT_S_CAP = 8
FLOAT_S_CAP = 12
STRUCTURE_S_CAP = 4


class UPolynomial:
    """Dense polynomial in u with exact coefficients, lowest power first."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = coeffs

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def derivative(self) -> "UPolynomial":
        return UPolynomial(
            [k * c for k, c in enumerate(self.coefficients)][1:]
        )

    def __call__(self, u):
        total = Fraction(0) if isinstance(u, Rational) else 0.0
        for c in reversed(self.coefficients):
            total = total * u + (c if isinstance(u, Rational) else float(c))
        return total

    def __eq__(self, other):
        return isinstance(other, UPolynomial) and self.coefficients == other.coefficients

    def __repr__(self):
        return f"UPolynomial({self.coefficients})"


def k_polynomial(N: int, s: int) -> UPolynomial:
    """K_N(u) = sum of u^j for j = 0 .. N+s-1."""
    _validate_sizes(N, s)
    return UPolynomial([1] * (N + s))


def _validate_sizes(N: int, s: int) -> None:
    if N < 1 or int(N) != N:
        raise ValueError(f"N must be a positive integer, got {N}")
    if s < 1 or int(s) != s:
        raise ValueError(f"s must be a positive integer, got {s}")


def _k_derivatives_exact(N: int, s: int, u: Fraction, max_order: int) -> list[Fraction]:
    terms = N + s
    if u == 1:
        return [
            Fraction(math.factorial(m) * math.comb(terms, m + 1))
            for m in range(max_order + 1)
        ]
    powers = [u**e for e in range(terms)]
    out = []
    for m in range(max_order + 1):
        total = Fraction(0)
        for j in range(m, terms):
            total += math.perm(j, m) * powers[j - m]
        out.append(total)
    return out


def _k_derivatives_float(N: int, s: int, u: float, max_order: int) -> list[float]:
    terms = N + s
    if u == 1.0:
        return [
            float(math.factorial(m)) * float(math.comb(terms, m + 1))
            for m in range(max_order + 1)
        ]
    exponents = np.arange(terms, dtype=float)
    u_pows = np.power(u, exponents)
    out = []
    for m in range(max_order + 1):
        if m >= terms:
            out.append(0.0)
            continue
        j = np.arange(m, terms, dtype=float)
        poch = np.ones_like(j)
        for t in range(m):
            poch *= j - t
        out.append(float(np.sum(poch * u_pows[: terms - m])))
    return out


def _entry_from_kd(p: int, q: int, u, kd) -> ExactNumber:
    """Leibniz expansion of the q-th derivative of u^p K^(p)(u)."""
    total = kd[0] * 0
    for t in range(min(p, q) + 1):
        total += math.comb(q, t) * math.perm(p, t) * u ** (p - t) * kd[p + q - t]
    return total


def derivative_entry(p: int, q: int, N: int, s: int, u: ExactNumber) -> ExactNumber:
    """The (p, q) determinant entry: (u^p K_N^(p)(u))^(q)."""
    _validate_sizes(N, s)
    if p < 0 or q < 0:
        raise ValueError("derivative orders must be non-negative")
    if isinstance(u, Rational):
        kd = _k_derivatives_exact(N, s, Fraction(u), p + q)
        return _entry_from_kd(p, q, Fraction(u), kd)
    kd = _k_derivatives_float(N, s, float(u), p + q)
    return _entry_from_kd(p, q, float(u), kd)


def _partition_data(h: int, s: int):
    """(f, padded factorial, derivative orders) for each shape of weight h and
    length at most s; orders are lambda_i + s - i for i = 1..s."""
    data = []
    for lam in enumerate_partitions(h):
        if lam.length > s:
            continue
        padded = lam.padded(s)
        orders = tuple(padded[i] + s - (i + 1) for i in range(s))
        data.append((syt_count(lam), partition_factorial(lam, s), orders))
    return data


def moment_exact(N: int, s: int, u: ExactNumber) -> ExactNumber:
    """E|d/dz Lambda_N(z)|^(2s) at u = |z|^2, by the partition determinant sum.

    Exact Fraction output for Rational u, float output otherwise.
    """
    _validate_sizes(N, s)
    exact = isinstance(u, Rational)
    if exact and s > EXACT_S_CAP:
        raise CapabilityError(f"exact mode supports s <= {EXACT_S_CAP}, got {s}")
    if not exact and s > FLOAT_S_CAP:
        raise CapabilityError(f"float mode supports s <= {FLOAT_S_CAP}, got {s}")
    if exact:
        uval = Fraction(u)
        if uval < 0:
            raise ValueError("u = |z|^2 must be non-negative")
        kd = _k_derivatives_exact(N, s, uval, 4 * s - 2)
    else:
        uval = float(u)
        if uval < 0:
            raise ValueError("u = |z|^2 must be non-negative")
        kd = _k_derivatives_float(N, s, uval, 4 * s - 2)

    # Orders run over 0..2s-1; compute each distinct entry once.
    table = [
        [_entry_from_kd(p, q, uval, kd) for q in range(2 * s)] for p in range(2 * s)
    ]
    data = _partition_data(s, s)
    total = Fraction(0) if exact else 0.0
    for f_lam, fact_lam, p_orders in data:
        for f_mu, fact_mu, q_orders in data:
            rows = [[table[p][q] for q in q_orders] for p in p_orders]
            det = det_exact(rows) if exact else det_float(rows)
            if exact:
                total += Fraction(f_lam * f_mu, fact_lam * fact_mu) * det
            else:
                total += (f_lam * f_mu) / (fact_lam * fact_mu) * det
    return total


# ---------------------------------------------------------------------------
# Structure expansion: moment = sum_h C_h / (1-u)^(s^2+2s-h)
# ---------------------------------------------------------------------------


def structure_a(s, h1: int, h2: int, r: float) -> float:
    """Hypergeometric coefficient of the structure expansion, 0 <= h1 <= h2.

    Vanishes for h2 >= s+1 at integer s through the reciprocal Gamma factor.
    """
    if not 0 <= h1 <= h2:
        raise ValueError("structure_a requires 0 <= h1 <= h2")
    rg = reciprocal_gamma(s - h2 + 1.0)
    if rg == 0.0:
        return 0.0
    x = (s * s) * float(r) * float(r)
    value = (
        rg
        * math.gamma(s + 1.0) ** 2
        / (math.factorial(h1) * math.factorial(h2) * math.gamma(h2 - h1 + 1.0))
        * math.exp(-x)
        * hyp1f1(s + 1.0 - h1, h2 - h1 + 1.0, x)
    )
    return value


def _structure_a_upoly(s: int, h1: int, h2: int) -> UPolynomial:
    """Exact polynomial in u = r^2 equal to structure_a at integer s.

    Uses the Laguerre form: binom(s,h1) binom(s,h2) *
    sum_k binom(s-h2,k) binom(s-h1,h2-h1+k) (s-h2-k)! (s^2 u)^k.
    """
    if not 0 <= h1 <= h2:
        raise ValueError("requires 0 <= h1 <= h2")
    if h2 > s:
        return UPolynomial([])
    lead = math.comb(s, h1) * math.comb(s, h2)
    coeffs = []
    for k in range(s - h2 + 1):
        coeffs.append(
            lead
            * math.comb(s - h2, k)
            * math.comb(s - h1, h2 - h1 + k)
            * math.factorial(s - h2 - k)
            * (s * s) ** k
        )
    return UPolynomial(coeffs)


def _block_exponent(N: int, s: int, row: int, col: int) -> int:
    """Monomial power at (row, col) of the 2s x 2s alternant block matrix.

    Rows 0..s-1 are z-rows [1, z, .., z^(s-1) | z^(N+2s-1), .., z^(N+s)],
    rows s..2s-1 are w-rows [w^(N+2s-1), .., w^(N+s) | 1, w, .., w^(s-1)].
    """
    top = row < s
    left = col < s
    j = col if left else col - s
    if top == left:
        return j
    return N + 2 * s - 1 - j


def _block_sums(s: int):
    """block_sum(h, exponents) for one call, each value built on first use.

    The sum over partitions lambda of h (length <= s) of f_lambda / [lambda]!
    times det[perm(a_j, o_i)] for the column exponents a: Z_h(S) on the
    z-rows, W_h(S^c) on the w-rows.  Keyed by the exponents, one table serves
    both blocks and every (h1, h2) of a structure_c_upoly or moment_structure
    call; nothing is kept between calls.
    """
    if s > STRUCTURE_S_CAP:
        raise CapabilityError(
            f"structure expansion supports s <= {STRUCTURE_S_CAP}, got {s}"
        )
    data = [_partition_data(h, s) for h in range(s + 1)]
    det = functools.cache(det_exact)

    @functools.cache
    def block_sum(h: int, exponents: tuple[int, ...]) -> Fraction:
        total = Fraction(0)
        for f, fact, orders in data[h]:
            rows = tuple(tuple(math.perm(a, o) for a in exponents) for o in orders)
            total += Fraction(f, fact) * det(rows)
        return total

    return block_sum


def _b_expansion(N: int, s: int, h1: int, h2: int, block_sum) -> dict[int, Fraction]:
    """structure_b_expansion from the block sums of `_block_sums(s)`."""
    z_exps = [_block_exponent(N, s, 0, j) for j in range(2 * s)]
    w_exps = [_block_exponent(N, s, s, j) for j in range(2 * s)]
    shift = abs(h2 - h1)
    prefactor = (-s) ** shift
    result: dict[int, Fraction] = {}
    for cols in combinations(range(2 * s), s):
        z_sum = block_sum(h1, tuple(z_exps[j] for j in cols))
        if not z_sum:
            continue
        rest = [j for j in range(2 * s) if j not in cols]
        w_sum = block_sum(h2, tuple(w_exps[j] for j in rest))
        if not w_sum:
            continue
        e = sum(z_exps[j] for j in cols) + sum(w_exps[j] for j in rest)
        e -= h1 + h2 + s * (s - 1)
        # Laplace sign (-1)^(s(s-1)/2 + sum of 0-based columns), times (-1)^e
        # from (-r)^e.
        sign = (-1) ** (s * (s - 1) // 2 + sum(cols) + e)
        term = sign * prefactor * z_sum * w_sum
        result[e + shift] = result.get(e + shift, 0) + term
    return {e: c for e, c in result.items() if c}


def structure_b_expansion(N: int, s: int, h1: int, h2: int) -> dict[int, Fraction]:
    """b_(h1,h2) as an exact polynomial in r = |z|: power -> coefficient.

    Generalized Laplace expansion of the differentiated block matrix along its
    s z-rows.  Every entry of a row with derivative order o in a column with
    exponent a is perm(a, o) (-r)^(a - o), so the z-minor on a column subset S
    is (-r)^(sum_S a_j - sum_i o_i) det[perm(a_j, o_i)], and sum_i o_i =
    h1 + s(s-1)/2 whatever the partition.  The partition sums of the two
    blocks therefore separate, subset by subset, into integer determinants.

    Includes the (-s r)^|h2-h1| prefactor; all surviving powers are even, so
    the result is secretly a polynomial in u = r^2.
    """
    _validate_sizes(N, s)
    if not (0 <= h1 <= s and 0 <= h2 <= s):
        raise ValueError("structure_b requires 0 <= h1, h2 <= s")
    return _b_expansion(N, s, h1, h2, _block_sums(s))


def structure_b(N: int, s: int, h1: int, h2: int, r: ExactNumber) -> ExactNumber:
    """b_(h1,h2)(N, r): derivatives of the block determinant ratio at z = w = -r.

    Exact for Rational r; symmetric in (h1, h2).
    """
    _validate_sizes(N, s)
    if not (0 <= h1 <= s and 0 <= h2 <= s):
        raise ValueError("structure_b requires 0 <= h1, h2 <= s")
    exact = isinstance(r, Rational)
    rv = Fraction(r) if exact else float(r)
    total: ExactNumber = Fraction(0) if exact else 0.0
    w_data = _partition_data(h2, s)
    for f_lam, fact_lam, n_orders in _partition_data(h1, s):
        for f_mu, fact_mu, m_orders in w_data:
            orders = n_orders + m_orders
            n = 2 * s
            rows = []
            for i in range(n):
                o = orders[i]
                row = []
                for j in range(n):
                    a = _block_exponent(N, s, i, j)
                    if o > a:
                        row.append(Fraction(0) if exact else 0.0)
                    else:
                        row.append(math.perm(a, o) * (-rv) ** (a - o))
                rows.append(row)
            det = det_exact(rows) if exact else det_float(rows)
            if exact:
                total += Fraction(f_lam * f_mu, fact_lam * fact_mu) * det
            else:
                total += (f_lam * f_mu / (fact_lam * fact_mu)) * det
    prefactor = (-s * rv) ** abs(h2 - h1)
    return prefactor * total


def _structure_pairs(s: int, h: int):
    """(h1, h2, multiplicity) triples contributing to C_h."""
    pairs = []
    for h1 in range(h // 2 + 1):
        h2 = h - h1
        if h2 > s or h1 > s or h2 < h1:
            continue
        pairs.append((h1, h2, 1 if h1 == h2 else 2))
    return pairs


def structure_c(N: int, s: int, h: int, r: ExactNumber) -> ExactNumber:
    """C_h(N, r): the bilinear a*b sum over h1 + h2 = h."""
    _validate_sizes(N, s)
    if h < 0:
        raise ValueError("h must be non-negative")
    exact = isinstance(r, Rational)
    if h > 2 * s:
        return Fraction(0) if exact else 0.0
    total: ExactNumber = Fraction(0) if exact else 0.0
    for h1, h2, mult in _structure_pairs(s, h):
        if exact:
            u = Fraction(r) ** 2
            a_val = _structure_a_upoly(s, h1, h2)(u)
        else:
            a_val = structure_a(s, h1, h2, float(r))
        total += mult * a_val * structure_b(N, s, h1, h2, r)
    return total


def _c_upoly(N: int, s: int, h: int, block_sum) -> UPolynomial:
    """structure_c_upoly from the block sums of `_block_sums(s)`."""
    acc: dict[int, Fraction] = {}
    for h1, h2, mult in _structure_pairs(s, h):
        a_poly = _structure_a_upoly(s, h1, h2)
        b_poly = _b_expansion(N, s, h1, h2, block_sum)
        for k, ac in enumerate(a_poly.coefficients):
            if ac == 0:
                continue
            for e, bc in b_poly.items():
                power = 2 * k + e
                if power % 2:
                    raise ArithmeticError(
                        f"odd power of r survived in C_{h} (N={N}, s={s})"
                    )
                acc[power // 2] = acc.get(power // 2, Fraction(0)) + mult * ac * bc
    if not acc:
        return UPolynomial([])
    coeffs = [Fraction(0)] * (max(acc) + 1)
    for k, c in acc.items():
        coeffs[k] = c
    return UPolynomial(coeffs)


def structure_c_upoly(N: int, s: int, h: int) -> UPolynomial:
    """C_h(N, .) as an exact polynomial in u = r^2."""
    _validate_sizes(N, s)
    return _c_upoly(N, s, h, _block_sums(s))


def moment_structure(N: int, s: int, u: ExactNumber) -> ExactNumber:
    """E|d/dz Lambda_N(z)|^(2s) at u = |z|^2 via the structure expansion.

    Independent of moment_exact: combines structure_a and structure_b through
    sum over h of C_h(N) / (1 - u)^(s^2 + 2s - h).  Requires u != 1.
    """
    _validate_sizes(N, s)
    if u == 1:
        raise ValueError("structure expansion is undefined at |z| = 1")
    if u < 0:
        raise ValueError("u = |z|^2 must be non-negative")
    if s > STRUCTURE_S_CAP:
        raise CapabilityError(
            f"structure expansion supports s <= {STRUCTURE_S_CAP}, got {s}"
        )
    exact = isinstance(u, Rational)
    if exact:
        uval = Fraction(u)
        block_sum = _block_sums(s)
        total = Fraction(0)
        for h in range(2 * s + 1):
            c_h = _c_upoly(N, s, h, block_sum)(uval)
            total += c_h / (1 - uval) ** (s * s + 2 * s - h)
        return total
    uval = float(u)
    r = math.sqrt(uval)
    total = 0.0
    for h in range(2 * s + 1):
        total += structure_c(N, s, h, r) / (1.0 - uval) ** (s * s + 2 * s - h)
    return total


def cue_moment_radial(N: int, s: int, r: ExactNumber) -> ExactNumber:
    """E|Lambda_N(z)|^(2s) at |z| = r != 1, from the block determinant ratio."""
    _validate_sizes(N, s)
    if r == 1:
        raise ValueError("radial moment via determinant ratio needs |z| != 1")
    b00 = structure_b(N, s, 0, 0, r)
    if isinstance(r, Rational):
        return b00 / (1 - Fraction(r) ** 2) ** (s * s)
    return b00 / (1.0 - float(r) ** 2) ** (s * s)


# ---------------------------------------------------------------------------
# Combinatorial cross-check coefficients for the b_(0,0) expansion
# ---------------------------------------------------------------------------


def appendix_d00(m: int, l: int, s: int, N: int) -> Fraction:
    """Signed subset-sum coefficient of |z|^(2Nl - s^2 + s + 2m) in b_(0,0).

    Implemented for s <= 3 only; this is a cross-check of structure_b, not a
    production path.
    """
    _validate_sizes(N, s)
    if s > 3:
        raise CapabilityError(f"appendix coefficients support s <= 3, got {s}")
    if not 0 <= l <= s:
        raise ValueError("l must satisfy 0 <= l <= s")
    # The overall sign carries an extra (-1)^(s(s-1)/2) from the row ordering
    # of the Laplace expansion; equality with structure_b is the arbiter.
    prefactor = Fraction((-1) ** (m + s * (s - 1) // 2))
    for i in range(1, s):
        prefactor /= math.factorial(i) ** 2

    total = 0
    low = list(range(s))
    high = list(range(s, 2 * s))
    for i_set in combinations(low, s - l):
        for j_set in combinations(high, l):
            if sum(i_set) + sum(j_set) != m:
                continue
            i_comp = [x for x in low if x not in i_set]
            j_comp = [x for x in high if x not in j_set]
            term = 1
            for a in range(len(i_set)):
                for b in range(a + 1, len(i_set)):
                    term *= i_set[b] - i_set[a]
            for a in range(len(j_set)):
                for b in range(a + 1, len(j_set)):
                    term *= j_set[b] - j_set[a]
            for ia in i_set:
                for jb in j_set:
                    term *= N + jb - ia
            for ja in j_comp:
                for ib in i_comp:
                    term *= N + ja - ib
            for a in range(len(j_comp)):
                for b in range(a + 1, len(j_comp)):
                    term *= j_comp[b] - j_comp[a]
            for a in range(len(i_comp)):
                for b in range(a + 1, len(i_comp)):
                    term *= i_comp[b] - i_comp[a]
            total += term
    return prefactor * total


# ---------------------------------------------------------------------------
# Moments of |Lambda_N| itself on the unit circle
# ---------------------------------------------------------------------------


def cue_moment_ks(N: int, s: float) -> float:
    """E|Lambda_N|^(2s) on the unit circle for real s > -1/2 (Gamma product)."""
    if N < 1 or int(N) != N:
        raise ValueError("N must be a positive integer")
    if s <= -0.5:
        raise ValueError("requires s > -1/2")
    log_total = 0.0
    for j in range(1, N + 1):
        log_total += (
            math.lgamma(j) + math.lgamma(j + 2 * s) - 2 * math.lgamma(j + s)
        )
    return math.exp(log_total)


def cue_moment_integer(N: int, s: int) -> Fraction:
    """E|Lambda_N|^(2s) on the unit circle for integer s >= 0, exact."""
    if N < 1 or int(N) != N:
        raise ValueError("N must be a positive integer")
    if s < 0 or int(s) != s:
        raise ValueError("s must be a non-negative integer")
    total = Fraction(1)
    for j in range(1, s + 1):
        total *= Fraction(
            math.factorial(j - 1) * math.factorial(N + s + j - 1),
            math.factorial(s + j - 1) * math.factorial(N + j - 1),
        )
    return total
