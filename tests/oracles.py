"""Reference implementations that the tests compare the library against.

Each one computes a quantity the library also computes, by an independent
and slower route: brute force, a different recursion, or the textbook form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from numbers import Rational

import numpy as np

from cuederiv.combinatorics import _partition_data, _partition_det_sum
from cuederiv.errors import CapabilityError, _size
from cuederiv.exact_moments import EXACT_S_CAP, FLOAT_S_CAP, _k_derivatives_exact, _k_derivatives_float
from cuederiv.rmt_mc import COLLISION_TOLERANCE
from cuederiv.specfun import hyp1f1
from cuederiv.zeta import _INNER_SUM_EPS, divisor_table


def haar_phases(N: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenphases of `count` independent Haar unitaries, shape (count, N).

    QR of a complex Ginibre matrix with the R-diagonal phases moved into Q
    (plain QR is not Haar); the independent sampler that the Verblunsky draws
    are tested against.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    real = rng.standard_normal((count, N, N))
    imag = rng.standard_normal((count, N, N))
    ginibre = (real + 1j * imag) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.einsum("...ii->...i", r)
    q = q * (diag / np.abs(diag))[:, None, :]
    eigenvalues = np.linalg.eigvals(q)
    return np.mod(np.angle(eigenvalues), 2 * np.pi)


def verblunsky_cexp(N: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Verblunsky coefficients of `count` CUE(N) draws, each phase from the
    complex exponential exp(2 pi i u): rmt_mc._verblunsky's earlier form,
    which draws the same uniforms in the same order."""
    v = 1.0 - rng.random((count, N - 1))
    modulus = np.ones((count, N))
    modulus[:, :-1] = np.sqrt(-np.expm1(np.log(v) / np.arange(N - 1, 0, -1)))
    return modulus * np.exp(2j * np.pi * rng.random((count, N)))


def eigenphase_lambda_and_deriv(phases, z: complex) -> tuple[complex, complex]:
    """(Lambda(z), Lambda'(z)) from the product over eigenphases,
    Lambda(z) = prod_j (1 - z e^(-i theta_j))."""
    w = np.exp(-1j * np.asarray(phases, dtype=float))
    factors = 1.0 - complex(z) * w
    lam = complex(np.prod(factors))
    return lam, lam * complex(np.sum(-w / factors))


@lru_cache(maxsize=None)
def partition_count(m: int) -> int:
    """p(m) via the Euler pentagonal recurrence."""
    if m < 0:
        return 0
    if m == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > m and g2 > m:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= m:
            total += sign * partition_count(m - g1)
        if g2 <= m:
            total += sign * partition_count(m - g2)
        k += 1
    return total


def enumerate_partitions(m: int) -> list[tuple[int, ...]]:
    """All partitions of weight m, in descending lexicographic order.

    m = 0 yields the single empty partition.
    """
    if m < 0:
        raise ValueError("weight must be non-negative")
    result: list[tuple[int, ...]] = []

    def descend(remaining, cap, prefix):
        if remaining == 0:
            result.append(prefix)
            return
        for first in range(min(cap, remaining), 0, -1):
            descend(remaining - first, first, prefix + (first,))

    descend(m, m if m else 1, ())
    return result


def syt_count(lam: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    weight = sum(lam)
    cols = conjugate_parts(lam)
    hook_product = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hook_product *= part - j + cols[j] - i - 1
    count, remainder = divmod(factorial(weight), hook_product)
    if remainder:
        raise ArithmeticError(
            f"hook product {hook_product} does not divide {weight}! for {lam}"
        )
    return count


def conjugate_parts(parts) -> tuple[int, ...]:
    """Column lengths of the Young diagram with the given row lengths."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def partition_factorial(lam: tuple[int, ...], m: int):
    """Product of (lambda_i + m - i)! over i = 1..m with zero padding."""
    if m < len(lam):
        raise ValueError(f"m = {m} is smaller than the length of {lam}")
    product = 1
    for i, part in enumerate(lam + (0,) * (m - len(lam))):
        product *= factorial(part + m - (i + 1))
    return product


def partition_data(h: int, s: int):
    """(f, padded factorial, derivative orders) for each shape of weight h and
    length at most s; orders are lambda_i + s - i for i = 1..s.

    The hook-length reference for combinatorics._partition_data, which reads
    the same weights from the orders by Frobenius's formula (h = s there).
    """
    data = []
    for lam in enumerate_partitions(h):
        if len(lam) > s:
            continue
        padded = lam + (0,) * (s - len(lam))
        orders = tuple(padded[i] + s - (i + 1) for i in range(s))
        data.append((syt_count(lam), partition_factorial(lam, s), orders))
    return data


def enumerate_standard_tableaux(lam: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """All standard fillings of lam by backtracking; brute-force oracle for syt_count."""
    m = sum(lam)
    if m == 0:
        return [()]
    shape = lam
    rows = len(shape)
    fillings: list[tuple[tuple[int, ...], ...]] = []
    grid = [[0] * shape[i] for i in range(rows)]
    fill_len = [0] * rows

    def place(value):
        if value > m:
            fillings.append(tuple(tuple(row) for row in grid))
            return
        for i in range(rows):
            j = fill_len[i]
            if j >= shape[i]:
                continue
            if i > 0 and fill_len[i - 1] <= j:
                continue
            grid[i][j] = value
            fill_len[i] += 1
            place(value + 1)
            fill_len[i] -= 1

    place(1)
    return fillings


class DescendingComposition:
    """A strictly decreasing tuple q_1 > ... > q_n >= 0 summing to n(n+1)/2.

    These index the terms of the merged multi-derivative expansion; the
    companion weight is :func:`omega_weight`.
    """

    __slots__ = ("q",)

    def __init__(self, q):
        q = tuple(int(v) for v in q)
        n = len(q)
        if n < 1:
            raise ValueError("composition must be nonempty")
        if any(a <= b for a, b in zip(q, q[1:])) or q[-1] < 0:
            raise ValueError(f"{q} is not strictly decreasing and non-negative")
        if sum(q) != n * (n + 1) // 2:
            raise ValueError(f"{q} does not sum to n(n+1)/2 = {n*(n+1)//2}")
        self.q = q

    def to_partition(self) -> tuple[int, ...]:
        """The partition lambda with lambda_j = q_j - n + j (1-based j), zero
        parts dropped."""
        n = len(self.q)
        return tuple(p for p in (self.q[j] - n + (j + 1) for j in range(n)) if p)

    @classmethod
    def from_partition(cls, lam: tuple[int, ...], n: int) -> "DescendingComposition":
        padded = lam + (0,) * (n - len(lam))
        return cls(padded[j] + n - (j + 1) for j in range(n))


@lru_cache(maxsize=None)
def _omega(q: tuple[int, ...]) -> int:
    n = len(q)
    if n == 1:
        return 1
    if q == tuple(range(n, 0, -1)):
        return 1
    # q[-1] == 0 here: remove one unit from each entry and a second unit from
    # position j wherever the strict descent allows it.
    total = 0
    for j in range(n - 1):
        gap = q[j] - (q[j + 1] if j + 1 < n else 0)
        if gap >= 2:
            reduced = tuple(
                q[i] - 2 if i == j else q[i] - 1 for i in range(n - 1)
            )
            total += _omega(reduced)
    return total


def omega_weight(q: DescendingComposition) -> int:
    """Weight of the composition in the merged-derivative expansion.

    Computed by the corner-sum recursion, independently of syt_count, so the
    identity omega(q) == f_lambda stays a genuine cross-check.
    """
    return _omega(q.q)


def appendix_d00(m: int, l: int, s: int, N: int) -> Fraction:
    """Signed subset-sum coefficient of |z|^(2Nl - s^2 + s + 2m) in b_(0,0).

    Implemented for s <= 3 only; a cross-check of exact_moments._b_expansion.
    """
    if s > 3:
        raise CapabilityError(f"appendix coefficients support s <= 3, got {s}")
    # The overall sign carries an extra (-1)^(s(s-1)/2) from the row ordering
    # of the Laplace expansion; equality with structure_b is the arbiter.
    prefactor = Fraction((-1) ** (m + s * (s - 1) // 2))
    for i in range(1, s):
        prefactor /= math.factorial(i) ** 2

    def vandermonde(xs):
        return math.prod(b - a for a, b in combinations(xs, 2))

    total = 0
    low = list(range(s))
    high = list(range(s, 2 * s))
    for i_set in combinations(low, s - l):
        for j_set in combinations(high, l):
            if sum(i_set) + sum(j_set) != m:
                continue
            i_comp = [x for x in low if x not in i_set]
            j_comp = [x for x in high if x not in j_set]
            term = vandermonde(i_set) * vandermonde(j_set)
            term *= vandermonde(j_comp) * vandermonde(i_comp)
            term *= math.prod(N + jb - ia for ia in i_set for jb in j_set)
            term *= math.prod(N + ja - ib for ja in j_comp for ib in i_comp)
            total += term
    return prefactor * total


def partition_block_sum(h: int, s: int, exponents: tuple[int, ...]) -> Fraction:
    """Block sum of the structure route by its definition: the sum over
    partitions lambda of h with at most s parts of f_lambda / [lambda]! times
    det[perm(a_j, lambda_i + s - i)], one Bareiss determinant per partition.

    The reference for exact_moments._block_sums.
    """
    total = Fraction(0)
    for lam in enumerate_partitions(h):
        if len(lam) > s:
            continue
        padded = lam + (0,) * (s - len(lam))
        orders = [padded[i] + s - (i + 1) for i in range(s)]
        rows = [[math.perm(a, o) for a in exponents] for o in orders]
        total += Fraction(syt_count(lam), partition_factorial(lam, s)) * bareiss_det(rows)
    return total


def laplace_block_sums(N: int, s: int) -> list[tuple[int, int, list[int], list[int]]]:
    """(e, sign, Z, W) per s-subset of the 2s columns, in combinations order, by
    the structure route's former minor table: every minor keyed by its column
    tuple, the Laplace sign and three multiplies inside the convolution loop,
    and the shifted complement of each subset found by list scans.

    The reference for exact_moments._block_sums, which keys the minors by
    column bitmask and must give the same records.
    """
    if s > EXACT_S_CAP:
        raise CapabilityError(f"exact mode supports s <= {EXACT_S_CAP}, got {s}")
    binom = [[math.comb(n, m) for m in range(n + 1)] for n in range(s + 1)]
    exps = list(range(s)) + [N + 2 * s - 1 - j for j in range(s)]
    minors = {(): [1] + [0] * s}
    for k in range(1, s + 1):
        entries = [[math.comb(a, n + s - k) for n in range(s + 1)] for a in exps]
        grown = {}
        for cols in combinations(range(2 * s), k):
            total = [0] * (s + 1)
            for i, j in enumerate(cols):
                minor = minors[cols[:i] + cols[i + 1:]]
                for m, entry in enumerate(entries[j]):
                    if entry:
                        entry *= (-1) ** (k - 1 + i)
                        for n in range(m, s + 1):
                            total[n] += binom[n][m] * entry * minor[n - m]
            grown[cols] = total
        minors = grown
    records = []
    for cols, z in minors.items():
        rest = [j for j in range(2 * s) if j not in cols]
        # The w-rows have the z-rows' exponent of column (j + s) mod 2s at j, so the
        # w-sum on `rest` is the z-sum on its shifted columns, whose sorting moves
        # s - low columns past low ones: sign (-1)^(low (s - low)).
        low = sum(j < s for j in rest)
        shifted = tuple(j - s for j in rest[low:]) + tuple(j + s for j in rest[:low])
        w = minors[shifted] if low * (s - low) % 2 == 0 else [-x for x in minors[shifted]]
        e = sum(exps[j] for j in cols) + sum(exps[j] for j in shifted) - s * (s - 1)
        # Laplace sign (-1)^(s(s-1)/2 + sum of 0-based columns), times (-1)^e
        # from (-r)^e; (-r)^(-h1-h2) cancels the sign of (-s r)^|h2-h1|.
        sign = (-1) ** (s * (s - 1) // 2 + sum(cols) + e)
        records.append((e, sign, z, w))
    return records


def laguerre(s: int, x):
    """Laguerre polynomial L_s(x); exact Fraction on rational x."""
    if s < 0:
        raise ValueError("laguerre order must be non-negative")
    exact = isinstance(x, Rational)
    xv = Fraction(x) if exact else float(x)
    total = Fraction(0) if exact else 0.0
    for k in range(s + 1):
        coeff = Fraction(math.comb(s, k) * (-1) ** k, math.factorial(k))
        total += (coeff if exact else float(coeff)) * xv**k
    return total


def structure_a(s: int, h1: int, h2: int, r: float) -> float:
    """Structure coefficient a_(h1,h2)(r) at integer s, 0 <= h1 <= h2, in its
    hypergeometric form s!^2 / (h1! h2! (s-h2)! (h2-h1)!) e^(-x)
    1F1(s+1-h1, h2-h1+1; x) at x = s^2 r^2; zero for h2 > s.

    The reference for exact_moments._structure_a_upoly.
    """
    if not 0 <= h1 <= h2:
        raise ValueError("structure_a requires 0 <= h1 <= h2")
    if h2 > s:
        return 0.0
    x = (s * s) * float(r) * float(r)
    return (
        1.0
        / math.gamma(s - h2 + 1.0)
        * math.gamma(s + 1.0) ** 2
        / (math.factorial(h1) * math.factorial(h2) * math.gamma(h2 - h1 + 1.0))
        * math.exp(-x)
        * hyp1f1(s + 1.0 - h1, h2 - h1 + 1.0, x)
    )


def fraction_det(rows) -> Fraction:
    """Determinant of a matrix of Fractions by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= factor * m[k][j]
    return det


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    The single-matrix elimination that linalg.det_exact shares across minors;
    the reference every exact determinant is compared against.
    """
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def partition_det_sum_exact(s: int, table) -> Fraction:
    """The exact partition-determinant sum with every minor taken on its own
    (bareiss_det), its weighted terms summed over one denominator."""
    data = _partition_data(s)
    common = math.lcm(*(fact for _, fact, _ in data))
    total = sum(
        f_lam * (common // fact_lam) * f_mu * (common // fact_mu)
        * bareiss_det([[table[i][j] for j in q] for i in p])
        for f_lam, fact_lam, p in data for f_mu, fact_mu, q in data
    )
    return Fraction(total, common * common)


def stacked_det_float(stack) -> np.ndarray:
    """Determinants of a stack of float matrices, shape (..., n, n) -> (...),
    each row scaled minor by minor.

    Each row of each matrix is divided by its largest magnitude before
    np.linalg.slogdet, and the log scales are added back matrix by matrix with
    math.log and math.exp.  Raises CapabilityError on a non-finite entry or a
    determinant that leaves double precision.
    """
    a = np.array(stack, dtype=float)
    *shape, n, _ = a.shape
    a = a.reshape(math.prod(shape), n, n)
    row_max = np.maximum(a.max(axis=2, initial=0.0), -a.min(axis=2, initial=0.0))
    if not np.isfinite(row_max).all():
        raise CapabilityError("float overflow: non-finite determinant entry")
    row_max[row_max == 0.0] = 1.0
    a /= row_max[:, :, None]
    sign, log_abs = np.linalg.slogdet(a)
    dets = np.zeros(len(a))
    for k, maxima in enumerate(row_max.tolist()):
        if sign[k]:
            log_scale = 0.0
            for mx in maxima:
                log_scale += math.log(mx)
            try:
                dets[k] = float(sign[k]) * math.exp(log_abs[k] + log_scale)
            except OverflowError:
                raise CapabilityError("float overflow in a determinant") from None
    return dets.reshape(shape)


def partition_det_sum_float(s: int, table) -> float:
    """The float partition-determinant sum with every minor gathered into one
    stack and scaled row by row (stacked_det_float), its weighted terms added
    in (lambda, mu) order, lambda outer."""
    data = _partition_data(s)
    pairs = [(lam, mu) for lam in data for mu in data]
    orders = np.array([p for _, _, p in data])
    stack = np.asarray(table, dtype=float)[orders[:, None, :, None], orders[None, :, None, :]]
    dets = stacked_det_float(stack).ravel().tolist()
    total = 0.0
    for ((f_lam, fact_lam, _), (f_mu, fact_mu, _)), det in zip(pairs, dets):
        total += f_lam * f_mu / (fact_lam * fact_mu) * det
    return total


def leibniz_entry(p: int, q: int, a, b, kd):
    """Leibniz expansion of the q-th derivative of u^p K^(p)(u) at u = a/b, times
    b^p: sum_t C(q, t) perm(p, t) a^(p-t) b^t K^(p+q-t).  Integer for integer a,
    b and kd; b = 1 for a float u = a.

    exact_moments._entry_from_kd as it was before it read its coefficients and
    powers from per-table lists: every term computed on its own.
    """
    total = kd[0] * 0
    for t in range(min(p, q) + 1):
        total += math.comb(q, t) * math.perm(p, t) * a ** (p - t) * b**t * kd[p + q - t]
    return total


def det_float_per_minor_row(table, rows, cols) -> np.ndarray:
    """Determinants of the minors table[rows[i]][:, cols[j]], shape (len(rows), len(cols)).

    linalg.det_float as it was before it scaled each (table row, column set)
    once: the row maxima and their logs are taken once per (table row, column
    set), but every gathered minor row is divided on its own.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    row_max = np.abs(table)[:, cols].max(axis=2, initial=0.0)  # (table row, column set)
    if not np.isfinite(row_max[rows]).all():
        raise CapabilityError("float overflow: non-finite determinant entry")
    row_max[row_max == 0.0] = 1.0  # a zero row stays zero: slogdet gives sign 0
    logs = np.reshape([math.log(mx) for mx in row_max.ravel().tolist()], row_max.shape)
    stack = table[rows[:, None, :, None], cols[None, :, None, :]]
    stack /= row_max[rows[:, None, :], np.arange(len(cols))[None, :, None]][..., None]
    sign, log_abs = np.linalg.slogdet(stack)
    log_scale = np.zeros(sign.shape)
    for i in range(rows.shape[1]):
        log_scale += logs[rows[:, i]]  # each minor adds its row logs in row order
    try:
        dets = [sg * math.exp(x) if sg else 0.0
                for sg, x in zip(sign.ravel().tolist(), (log_abs + log_scale).ravel().tolist())]
    except OverflowError:
        raise CapabilityError("float overflow in a determinant") from None
    return np.reshape(dets, sign.shape)


def partition_det_sum_loop(s: int, table) -> float:
    """The float partition-determinant sum as a Python loop: det_float_per_minor_row
    over the table's minors, each weight an int quotient, its weighted terms
    added in order, lambda outer."""
    data = _partition_data(s)
    orders = [p for _, _, p in data]
    total = 0.0
    for (f_lam, fact_lam, _), dets in zip(data, det_float_per_minor_row(table, orders, orders).tolist()):
        for (f_mu, fact_mu, _), det in zip(data, dets):
            total += f_lam * f_mu / (fact_lam * fact_mu) * det
    return total


def moment_exact_per_term(N: int, s: int, u):
    """exact_moments.moment_exact from leibniz_entry and, for a float u,
    partition_det_sum_loop.  A Rational u takes the library's exact partition
    sum, which tests compare with partition_det_sum_exact on their own."""
    N, s = _size("N", N), _size("s", s)
    exact = isinstance(u, Rational)
    mode, cap = ("exact", EXACT_S_CAP) if exact else ("float", FLOAT_S_CAP)
    if s > cap:
        raise CapabilityError(f"{mode} mode supports s <= {cap}, got {s}")
    if not 0 <= u < math.inf:
        raise ValueError(f"u = |z|^2 must be finite and non-negative, got u = {u}")
    if exact:
        a, b = u.numerator, u.denominator
        kd = _k_derivatives_exact(N, s, a, b, 4 * s - 2)
    else:
        a, b = float(u), 1
        kd = _k_derivatives_float(N, s, a, 4 * s - 2)

    table = [[leibniz_entry(p, q, a, b, kd) for q in range(2 * s)] for p in range(2 * s)]
    partition_sum = _partition_det_sum if exact else partition_det_sum_loop
    return partition_sum(s, table) / b ** (s * (N + s - 1) + s * (s + 1) // 2)


def block_exponent(N: int, s: int, row: int, col: int) -> int:
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


def structure_b(N: int, s: int, h1: int, h2: int, r) -> Fraction:
    """b_(h1,h2)(N, r) at rational r by its definition: (-s r)^|h2-h1| times
    the sum over partitions lambda of h1 and mu of h2 of f_lambda f_mu /
    ([lambda]! [mu]!) times the 2s x 2s block determinant, differentiated to
    the orders of lambda in its z-rows and of mu in its w-rows, at z = w = -r.
    One Fraction determinant per pair of partitions.

    The reference for exact_moments._b_expansion.
    """
    rv = Fraction(r)
    exponents = [[block_exponent(N, s, i, j) for j in range(2 * s)] for i in range(2 * s)]
    total = Fraction(0)
    mu_data = partition_data(h2, s)
    for f_lam, fact_lam, p in partition_data(h1, s):
        for f_mu, fact_mu, q in mu_data:
            rows = [
                [0 if o > a else math.perm(a, o) * (-rv) ** (a - o) for a in row]
                for o, row in zip(p + q, exponents)
            ]
            total += Fraction(f_lam * f_mu, fact_lam * fact_mu) * fraction_det(rows)
    return (-s * rv) ** abs(h2 - h1) * total


def dirichlet_convolve_rows(f: np.ndarray, g: np.ndarray,
                            out: np.ndarray | None = None) -> np.ndarray:
    """(f*g)(n) = sum over d | n of f(d) g(n/d), one sieve row a <= sqrt(n_max)
    at a time, each row swept over the whole output, which is copied into
    `out` when one is given (it may be f or g).

    The reference for zeta._dirichlet_sieve, which walks the output in
    segments and must give the same bits.
    """
    n_max = len(f) - 1
    if len(g) != len(f):
        raise ValueError("tables must have equal length")
    result = np.zeros(n_max + 1)
    for a in range(1, math.isqrt(n_max) + 1):
        result[a * a] += f[a] * g[a]
        start = a * (a + 1)
        if start > n_max:
            continue
        b_hi = n_max // a
        if f is g:
            # f[a] f[X] + f[a] f[X] == (2 f[a]) f[X] exactly: doubling is exact.
            result[start :: a][: b_hi - a] += (2 * f[a]) * f[a + 1 : b_hi + 1]
        else:
            result[start :: a][: b_hi - a] += f[a] * g[a + 1 : b_hi + 1] + g[a] * f[a + 1 : b_hi + 1]
    if out is None:
        return result
    out[:] = result
    return out


def primes_up_to_every_integer(limit: int) -> np.ndarray:
    """Primes <= limit by a numpy sieve over every integer up to limit.

    The reference for zeta.primes_up_to, which sieves the odd numbers only.
    """
    if limit < 2:
        return np.array([], dtype=np.int64)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def divisor_growth_constant_from_table(s: int, n_max: int, delta: float) -> float:
    """Twice the maximum of d_s(n) / n^delta over every n in 1..n_max, read
    from the full sieve table d_s(1..n_max).

    The reference for zeta._divisor_growth_constant.
    """
    table = divisor_table(s, n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    return 2.0 * float(np.max(table[1:] / n**delta))


def euler_factor_log(s: float, p: int) -> float:
    """log of the local Euler factor (1 - 1/p)^(s^2) sum_m d_s(p^m)^2 p^(-m),
    one prime at a time.

    The reference for zeta._euler_factor_logs.
    """
    inv_p = 1.0 / p
    term = 1.0
    total = 1.0
    m = 0
    while True:
        m += 1
        # d_s(p^m) = d_s(p^(m-1)) (s + m - 1) / m
        term *= ((s + m - 1) / m) ** 2 * inv_p
        total += term
        if term < _INNER_SUM_EPS * total:
            break
        if m > 10_000:
            raise ArithmeticError(f"Euler factor sum did not converge at p = {p}")
    return s * s * math.log1p(-inv_p) + math.log(total)


def szego_scaled_every_step(alpha: np.ndarray, z: np.ndarray, second: bool = False):
    """(Phi_N, Phi_N', Phi_N'' or None, exponent, unresolved) at `z`, with the
    values renormalised after every step of Szego's recursion.

    The reference for rmt_mc._szego_scaled, which renormalises only where its
    bound requires and must give the same bits; with `second`, for the phase
    and rate of Phi_N' that the zero counter reads from coefficients.
    """
    alpha = np.ascontiguousarray(np.transpose(alpha))
    shape = np.broadcast_shapes(z.shape, (1, alpha.shape[1]))
    phi = np.ones(shape, dtype=complex)
    phi_star = np.ones(shape, dtype=complex)
    dphi = np.zeros(shape, dtype=complex)
    dphi_star = np.zeros(shape, dtype=complex)
    ddphi = ddphi_star = None
    if second:
        ddphi = np.zeros(shape, dtype=complex)
        ddphi_star = np.zeros(shape, dtype=complex)
    exponent = np.zeros(shape, dtype=np.int64)
    for k, a in enumerate(alpha, start=1):
        a_conj = a.conj()
        z_phi = z * phi
        dz_phi = phi + z * dphi
        if second:
            ddz_phi = 2 * dphi + z * ddphi
            ddphi, ddphi_star = ddz_phi - a_conj * ddphi_star, ddphi_star - a * ddz_phi
        if k == len(alpha):
            cancelled = np.abs(z_phi) + np.abs(phi_star)
        phi, phi_star = z_phi - a_conj * phi_star, phi_star - a * z_phi
        dphi, dphi_star = dz_phi - a_conj * dphi_star, dphi_star - a * dz_phi
        _, e = np.frexp(np.maximum(np.abs(phi), np.abs(phi_star)))
        scale = np.ldexp(1.0, -e)
        phi *= scale
        phi_star *= scale
        dphi *= scale
        dphi_star *= scale
        if second:
            ddphi *= scale
            ddphi_star *= scale
        exponent += e
    unresolved = np.abs(phi) < COLLISION_TOLERANCE * cancelled * scale
    return phi, dphi, ddphi, exponent, unresolved
