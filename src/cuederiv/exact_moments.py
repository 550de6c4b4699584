"""Exact finite-N moments of the derivative of CUE characteristic polynomials.

Two independent finite-N routes are implemented:

* ``moment_exact``: the partition/determinant formula built from repeated
  derivatives of the truncated geometric kernel K_N(u) = 1 + u + ... + u^(N+s-1),
  in integers over one denominator at rational u, and in floats with all of its
  determinants in one stacked call.
* ``moment_structure``: the expansion of the moment as a polynomial in
  1/(1 - u) whose coefficients C_h(u) (``_c_upoly``) are integer
  polynomials: a Laguerre factor (``_structure_a_upoly``) times derivatives of
  a 2s x 2s block determinant (``_b_expansion``).  That determinant's
  polynomial in r = |z| is a Laplace expansion over the C(2s, s) column subsets
  of its z-rows, each adding a product of two integer block sums, one
  Laguerre-derivative determinant per block (``_block_sums``).  A float u is
  evaluated exactly at its own dyadic rational and rounded once.

``cue_moment_radial`` is that determinant's b_(0,0)(u) / (1 - u)^(s^2), evaluated
the same way.  Both routes and ``cue_moment_radial`` run to s = 8 in exact
mode; float ``moment_exact`` runs to s = 12.
Both accept Fraction input for bit-exact results and float input for large N.
Polynomials in u are coefficient lists, lowest power first, without trailing
zeros.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from numbers import Rational
from typing import Iterable, Union

from ._numpy import np
from .combinatorics import _partition_det_sum
from .errors import CapabilityError, _real, _size

ExactNumber = Union[Fraction, float]

EXACT_S_CAP = 8
FLOAT_S_CAP = 12


def _k_derivatives_exact(N: int, s: int, p: int, q: int, max_order: int) -> list[int]:
    """q^(N+s-1) K^(m)(p/q) for m = 0..max_order, in integers:
    K^(m)(p/q) = sum_j perm(j, m) p^(j-m) q^(N+s-1-j+m) / q^(N+s-1)."""
    terms = N + s
    scaled = [p**e * q ** (terms - 1 - e) for e in range(terms)]
    return [
        sum(math.perm(j, m) * scaled[j - m] for j in range(m, terms))
        for m in range(max_order + 1)
    ]


def _k_derivatives_float(N: int, s: int, u: float, max_order: int) -> list[float]:
    terms = N + s
    if u == 1.0:
        return [float(math.factorial(m)) * float(math.comb(terms, m + 1))
                for m in range(max_order + 1)]
    # perm(j, m) over j = m..terms-1 gains the factor j - m per order; past the
    # degree, j is empty and the sum is 0.  A sum is nan only where an
    # overflowed perm(j, m) meets an underflowed u^j (inf * 0); u^j falls with
    # j, so its zeros are a tail, and their terms are set to 0.  The array
    # keeps its length, so np.sum adds the terms in the same groups.  Any
    # other overflow gives inf, which det_float refuses.
    poch = np.ones(terms)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        u_pows = np.power(u, np.arange(terms, dtype=float))
        live = np.count_nonzero(u_pows)
        for _ in range(max_order + 1):
            products = poch * u_pows[: len(poch)]
            total = np.sum(products)
            if math.isnan(total):
                products[live:] = 0.0
                total = np.sum(products)
            out.append(float(total))
            poch = poch[1:] * np.arange(1, len(poch), dtype=float)
    return out


@lru_cache(maxsize=None)
def _leibniz_terms(p: int, q: int) -> tuple[tuple[int, int, int, int], ...]:
    """(C(q, t) perm(p, t), p - t, t, p + q - t) for t = 0..min(p, q)."""
    return tuple((math.comb(q, t) * math.perm(p, t), p - t, t, p + q - t)
                 for t in range(min(p, q) + 1))


def _entry_from_kd(p: int, q: int, a_pows, b_pows, kd):
    """Leibniz expansion of the q-th derivative of u^p K^(p)(u) at u = a/b, times
    b^p: sum_t C(q, t) perm(p, t) a^(p-t) b^t K^(p+q-t), with a_pows[e] = a**e
    and b_pows[e] = b**e for e <= p.  Integer for integer a, b and kd; b = 1 for
    a float u = a."""
    total = kd[0] * 0
    for coefficient, i, t, k in _leibniz_terms(p, q):
        total += coefficient * a_pows[i] * b_pows[t] * kd[k]
    return total


def moment_exact(N: int, s: int, u: ExactNumber) -> ExactNumber:
    """E|d/dz Lambda_N(z)|^(2s) at u = |z|^2, by the partition determinant sum.

    Exact Fraction output for Rational u = a/b, float output otherwise (b = 1).
    The table row of order p, times b^(N+s-1+p), is an integer, and the orders
    of every partition of s add up to s(s+1)/2, so every determinant of the sum
    shares the denominator b^(s(N+s-1) + s(s+1)/2), divided out at the end.
    """
    N, s, u = _size("N", N), _size("s", s), _real("u", u, 0, closed=True)
    exact = isinstance(u, Rational)
    mode, cap = ("exact", EXACT_S_CAP) if exact else ("float", FLOAT_S_CAP)
    if s > cap:
        raise CapabilityError(f"{mode} mode supports s <= {cap}, got {s}")
    if exact:
        a, b = u.numerator, u.denominator
        kd = _k_derivatives_exact(N, s, a, b, 4 * s - 2)
    else:
        a, b = float(u), 1
        kd = _k_derivatives_float(N, s, a, 4 * s - 2)

    a_pows, b_pows = [a**e for e in range(2 * s)], [b**e for e in range(2 * s)]
    table = [[_entry_from_kd(p, q, a_pows, b_pows, kd) for q in range(2 * s)]
             for p in range(2 * s)]
    return _partition_det_sum(s, table) / b ** (s * (N + s - 1) + s * (s + 1) // 2)


# ---------------------------------------------------------------------------
# Structure expansion: moment = sum_h C_h / (1-u)^(s^2+2s-h)
# ---------------------------------------------------------------------------


def _structure_a_upoly(s: int, h1: int, h2: int) -> list[int]:
    """The coefficient a_(h1,h2) of the structure expansion, 0 <= h1 <= h2, as
    exact integer coefficients in u = r^2.

    a_(h1,h2) = s!^2 / (h1! h2! (s-h2)! (h2-h1)!) e^(-x) 1F1(s+1-h1, h2-h1+1; x)
    at x = s^2 u; Kummer's transform makes the series terminate, in the Laguerre
    form binom(s,h1) binom(s,h2) *
    sum_k binom(s-h2,k) binom(s-h1,h2-h1+k) (s-h2-k)! (s^2 u)^k.  It vanishes
    for h2 > s.
    """
    if not 0 <= h1 <= h2:
        raise ValueError("requires 0 <= h1 <= h2")
    lead = math.comb(s, h1) * math.comb(s, h2)
    return [
        lead
        * math.comb(s - h2, k)
        * math.comb(s - h1, h2 - h1 + k)
        * math.factorial(s - h2 - k)
        * (s * s) ** k
        for k in range(s - h2 + 1)
    ]


@lru_cache(maxsize=None)
def _subset_layout(s: int):
    """The part of `_block_sums` that does not depend on N, about 3 MB at s = 8.

    masks[k] holds the column bitmask of every k-subset of the 2s columns,
    k = 0..s, in combinations order.  pairing holds, per s-subset S in the same
    order: the mask of S, the mask of the shifted complement, whose minor is W
    times (-1)^flip, the number of high columns in both, e at N = 0, which
    gains N per high column, and the parity of the sign at e = 0.
    """
    masks = tuple(tuple(sum(1 << j for j in cols) for cols in combinations(range(2 * s), k))
                  for k in range(s + 1))
    exps = list(range(s)) + [2 * s - 1 - j for j in range(s)]
    pairing = []
    for cols, mask in zip(combinations(range(2 * s), s), masks[s]):
        rest = [j for j in range(2 * s) if j not in cols]
        # The w-rows have the z-rows' exponent of column (j + s) mod 2s at j, so the
        # w-sum on `rest` is the z-sum on its shifted columns, whose sorting moves
        # s - low columns past low ones: sign (-1)^(low (s - low)).
        low = sum(j < s for j in rest)
        shifted = [j - s for j in rest[low:]] + [j + s for j in rest[:low]]
        both = list(cols) + shifted
        # Laplace sign (-1)^(s(s-1)/2 + sum of 0-based columns), times (-1)^e
        # from (-r)^e; (-r)^(-h1-h2) cancels the sign of (-s r)^|h2-h1|.
        pairing.append((
            mask, sum(1 << j for j in shifted), low * (s - low) % 2,
            sum(j >= s for j in both), sum(exps[j] for j in both) - s * (s - 1),
            (s * (s - 1) // 2 + sum(cols)) % 2,
        ))
    return masks, tuple(pairing)


def _block_sums(N: int, s: int) -> list[tuple[int, int, list[int], list[int]]]:
    """(e, sign, Z, W) per s-subset S of the 2s columns, in combinations order.

    The 2s x 2s alternant block matrix has z-rows [1, z, .., z^(s-1) |
    z^(N+2s-1), .., z^(N+s)] and w-rows [w^(N+2s-1), .., w^(N+s) | 1, w, ..,
    w^(s-1)].  Z = [Z_0(S), .., Z_s(S)] are the z-rows' block sums on S, W the
    w-rows' on the complement, both read from one minor table; S adds
    sign s^|h2-h1| Z_h1 W_h2 r^(e - 2 min(h1, h2)) to b_(h1,h2).  By the hook
    formula and Andreief's identity a block sum is
    X_h = h! [t^h] det[D^(s-k) L_(a_j)(-t)], k = 1..s, a_j the column exponents:
    entries are the integer sequences n -> C(a_j, n + s - k), multiplied by
    binomial convolution truncated at n = s, and the minors over every k-subset
    of columns, keyed by column bitmask, are built row by row, by Laplace
    expansion along the last row.
    """
    if s > EXACT_S_CAP:
        raise CapabilityError(f"the structure route supports s <= {EXACT_S_CAP}, got {s}")
    masks, pairing = _subset_layout(s)
    exps = list(range(s)) + [N + 2 * s - 1 - j for j in range(s)]
    # Minors that vanish identically (over a third of them at s = 8) are left out.
    minors = {0: [1] + [0] * s}
    for k in range(1, s + 1):
        # weights[j][parity]: (n, n - m, C(n, m) C(a_j, m + s - k)) over the nonzero
        # entries of column j, and their negatives.
        weights = []
        for a in exps:
            row = [(n, n - m, math.comb(n, m) * c) for m in range(s + 1)
                   if (c := math.comb(a, m + s - k)) for n in range(m, s + 1)]
            weights.append((row, [(n, d, -x) for n, d, x in row]))
        grown = {}
        for cols, mask in zip(combinations(range(2 * s), k), masks[k]):
            total = [0] * (s + 1)
            for i, j in enumerate(cols):
                minor = minors.get(mask ^ 1 << j)
                if minor:
                    for n, d, x in weights[j][(k - 1 + i) % 2]:
                        total[n] += x * minor[d]
            if any(total):
                grown[mask] = total
        minors = grown
    # No s-subset's minor vanishes: its t^0 coefficient det[C(a_j, s - k)] is, up
    # to sign, the Vandermonde determinant of the distinct a_j over 0! 1! .. (s-1)!.
    records = []
    for z_mask, w_mask, flip, highs, e, parity in pairing:
        e += highs * N
        w = minors[w_mask]
        records.append((e, (-1) ** (parity + e), minors[z_mask], [-x for x in w] if flip else w))
    return records


def _b_expansion(s: int, block_sums, pairs) -> dict[tuple[int, int], dict[int, int]]:
    """b_(h1,h2)(N, r) for each (h1, h2) in `pairs` (0 <= h1, h2 <= s), the
    derivatives of the block determinant ratio at z = w = -r, as exact
    polynomials in r = |z|: (h1, h2) -> {power: coefficient}, from the records
    of `_block_sums(N, s)`.

    Generalized Laplace expansion of the differentiated block matrix along its
    s z-rows.  Every entry of a row with derivative order o in a column with
    exponent a is perm(a, o) (-r)^(a - o), so the z-minor on a column subset S
    is (-r)^(sum_S a_j - sum_i o_i) det[perm(a_j, o_i)], and sum_i o_i =
    h1 + s(s-1)/2 whatever the partition.  The partition sums of the two
    blocks therefore separate, subset by subset, into `_block_sums`.  One pass
    groups the records by e and sums sign Z_h1 W_h2 for every (h1, h2), which
    lands on the power e - 2 min(h1, h2).

    Includes the (-s r)^|h2-h1| prefactor; all surviving powers are even, so
    each b_(h1,h2) is secretly a polynomial in u = r^2.
    """
    groups: dict[int, tuple[list, list]] = {}
    for e, sign, z, w in block_sums:
        zs, ws = groups.setdefault(e, ([], []))
        zs.append(z if sign > 0 else [-x for x in z])
        ws.append(w)
    table: dict[tuple[int, int], dict[int, int]] = {pair: {} for pair in pairs}
    scaled = [(h1, h2, s ** abs(h2 - h1), 2 * min(h1, h2)) for h1, h2 in pairs]
    for e, (zs, ws) in groups.items():
        z_columns, w_columns = list(zip(*zs)), list(zip(*ws))
        for h1, h2, scale, shift in scaled:
            total = sum(map(operator.mul, z_columns[h1], w_columns[h2]))
            if total:
                table[h1, h2][e - shift] = scale * total
    return table


def _structure_pairs(s: int, h: int):
    """(h1, h2, multiplicity) triples contributing to C_h: h1 + h2 = h, h1 <= h2 <= s."""
    return [(h1, h - h1, 1 if 2 * h1 == h else 2) for h1 in range(max(0, h - s), h // 2 + 1)]


def _c_upoly(N: int, s: int, h: int, b_table) -> list[int]:
    """C_h(N, .) as an integer polynomial in u = r^2, from `_b_expansion`'s table."""
    acc: dict[int, int] = {}
    for h1, h2, mult in _structure_pairs(s, h):
        a_poly = [mult * ac for ac in _structure_a_upoly(s, h1, h2)]
        for e, bc in b_table[h1, h2].items():
            if e % 2:
                raise ArithmeticError(f"odd power of r survived in C_{h} (N={N}, s={s})")
            for k, ac in enumerate(a_poly, e // 2):
                acc[k] = acc.get(k, 0) + ac * bc
    coeffs = [acc.get(k, 0) for k in range(max(acc, default=-1) + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _over_one_minus_u(
    poly: Iterable[tuple[int, int]], k: int, u: Fraction, exact: bool
) -> ExactNumber:
    """P(u) / (1 - u)^k for an integer polynomial P given as (power, coefficient)
    pairs, evaluated at u = p/q over one denominator: a Fraction if `exact`,
    else the exact value rounded once to a float.  Only nonzero coefficients
    are visited.  At u = 1, where (1 - u)^k must divide P, the value is
    (-1)^k P^(k)(1) / k! = (-1)^k sum_e c_e C(e, k).
    """
    p, q = u.as_integer_ratio()
    terms = sorted((e, c) for e, c in poly if c)
    if p == q:
        value = (-1) ** k * sum(c * math.comb(e, k) for e, c in terms)
        return Fraction(value) if exact else float(value)
    # q^d P(p/q) = value p^last, d the degree, by Horner in integers over the gaps in the powers.
    degree = terms[-1][0] if terms else 0
    value, q_power, last = 0, 1, degree
    for e, c in reversed(terms):
        q_power *= q ** (last - e)
        value = value * p ** (last - e) + c * q_power
        last = e
    numerator, denominator = value * p**last * q**k, q**degree * (q - p) ** k
    if exact:
        return Fraction(numerator, denominator)
    # int / int is correctly rounded: float(Fraction(...)) without its gcd.
    return numerator / denominator


def moment_structure(N: int, s: int, u: ExactNumber) -> ExactNumber:
    """E|d/dz Lambda_N(z)|^(2s) at u = |z|^2 via the structure expansion.

    Independent of moment_exact: sum over h of C_h(u) / (1 - u)^(s^2 + 2s - h),
    evaluated exactly at u = p/q, where (1 - u)^(s^2 + 2s) divides the
    numerator, so u = 1 is no exception.  A float u is taken at its own dyadic
    rational and the exact value is rounded once.
    """
    N, s, u = _size("N", N), _size("s", s), _real("u", u, 0, closed=True)
    b_table = _b_expansion(s, _block_sums(N, s),
                           [(h1, h2) for h2 in range(s + 1) for h1 in range(h2 + 1)])
    # The moment is P(u) / (1-u)^k with P = sum_h C_h (1-u)^h, built by Horner in (1-u).
    k = s * s + 2 * s
    poly: list[int] = []
    for h in reversed(range(2 * s + 1)):
        c_h = _c_upoly(N, s, h, b_table)
        poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
        poly += [0] * (len(c_h) - len(poly))
        for e, c in enumerate(c_h):
            poly[e] += c
    return _over_one_minus_u(enumerate(poly), k, Fraction(u), isinstance(u, Rational))


def cue_moment_radial(N: int, s: int, r: ExactNumber) -> ExactNumber:
    """E|Lambda_N(z)|^(2s) at |z| = |r|: b_(0,0)(u) / (1 - u)^(s^2), u = r^2.

    b_(0,0) comes from the structure route's block sums (``_b_expansion``).  A
    float r is taken at its own dyadic rational and the exact value is rounded
    once.
    """
    N, s, r = _size("N", N), _size("s", s), _real("r", r)
    b00 = _b_expansion(s, _block_sums(N, s), [(0, 0)])[0, 0]
    terms = ((e // 2, c) for e, c in b00.items())
    return _over_one_minus_u(terms, s * s, Fraction(r) ** 2, isinstance(r, Rational))


# ---------------------------------------------------------------------------
# Moments of |Lambda_N| itself on the unit circle
# ---------------------------------------------------------------------------


def cue_moment_ks(N: int, s: float) -> float:
    """E|Lambda_N|^(2s) on the unit circle for real s > -1/2 (Gamma product)."""
    N, s = _size("N", N), float(_real("s", s, -0.5))
    log_total = 0.0
    for j in range(1, N + 1):
        log_total += (
            math.lgamma(j) + math.lgamma(j + 2 * s) - 2 * math.lgamma(j + s)
        )
    return math.exp(log_total)


def cue_moment_integer(N: int, s: int) -> Fraction:
    """E|Lambda_N|^(2s) on the unit circle for integer s >= 0, exact."""
    N, s = _size("N", N), _size("s", s, minimum=0)
    total = Fraction(1)
    for j in range(1, s + 1):
        total *= Fraction(
            math.factorial(j - 1) * math.factorial(N + s + j - 1),
            math.factorial(s + j - 1) * math.factorial(N + j - 1),
        )
    return total
