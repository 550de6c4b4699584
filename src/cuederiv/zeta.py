"""Number-theory side: divisor tables, log-convolutions, truncated Dirichlet
series with tail bounds, the Euler-product arithmetic factor, and the
conjectured sigma -> 1/2 asymptotics of derivative moments.

Every truncated quantity is returned together with an explicit tail estimate;
the sigma -> 1/2 regime is exactly where truncation bites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .errors import CapabilityError, _size
from .specfun import _kummer_factor

_INNER_SUM_EPS = 1e-16
# Output entries per sieve segment in _dirichlet_sieve and per chunk of the
# series sum: 8 MB of float64, or 2 MB of uint16 (the dtype of d_2 at 10^7).
_SEGMENT = 1 << 20


def _dirichlet_sieve(f: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(f*g)(n) = sum over d | n of f(d) g(n/d), for all n <= n_max at once,
    written into `out` (a new array by default; it may be f or g itself).

    Runs the divisor-pair sieve over a <= sqrt(n_max) with the symmetric
    split: row a adds f(a) g(a) at n = a^2 and f(a) g(b) + g(a) f(b) at n = a b
    for b > a.  A self-convolution (`f is g`) takes each off-diagonal pair in
    one multiply, (2 f(a)) f(b).  The sieve walks the output in segments of
    _SEGMENT entries, and within a segment the rows in ascending order, each
    row's piece computed into one scratch buffer and added into its strided
    view of the segment.  So every out(n) receives the same terms, in
    ascending order of a, starting from +0.0, as a sieve that sweeps each row
    over the whole output: the result is bit-identical to it.  Rows with
    f(a) = g(a) = 0 are skipped; for finite tables they add only +-0, which
    changes no entry (a sum started at +0.0 is never -0.0).

    The segments are walked from the top down, so `out` may overwrite an
    input.  Segment [lo, hi) reads f and g only below hi: at b <= (hi-1)/a
    and at a <= sqrt(hi).  Lower segments, written later, read only below
    their own hi <= lo.  Every segment but the first has 2 lo >= hi, so its
    rows a >= 2 read only below lo, where nothing is written yet.  Row 1
    reads the segment itself (b = n): its piece is taken before the segment
    is cleared.  The first segment's rows read inside it, so it is summed in
    a zeroed scratch segment and copied into `out` last.

    The output and scratch buffers take np.result_type(f, g); integer tables
    give exact integer sums, which the caller must keep from overflowing.
    """
    n_max = len(f) - 1
    if len(g) != len(f):
        raise ValueError("tables must have equal length")
    dtype = np.result_type(f, g)
    if out is None:
        out = np.empty(n_max + 1, dtype)
    elif len(out) != len(f) or out.dtype != dtype:
        raise ValueError(f"out must be a {dtype} table of length {len(f)}")
    rows = [a for a in range(1, math.isqrt(n_max) + 1) if f[a] != 0 or g[a] != 0]
    piece_buffer = np.empty(min(_SEGMENT, n_max + 1), dtype)
    other_buffer = None if f is g else np.empty_like(piece_buffer)
    first = np.zeros_like(piece_buffer)

    def row_piece(a: int, b_lo: int, b_hi: int) -> np.ndarray:
        """f(a) g(b) + g(a) f(b) for b_lo <= b <= b_hi, in piece_buffer."""
        piece = piece_buffer[: b_hi - b_lo + 1]
        if f is g:
            # f[a] f[b] + f[a] f[b] == (2 f[a]) f[b] exactly: doubling is exact.
            np.multiply(2 * f[a], f[b_lo : b_hi + 1], out=piece)
        else:
            np.multiply(f[a], g[b_lo : b_hi + 1], out=piece)
            piece += np.multiply(g[a], f[b_lo : b_hi + 1], out=other_buffer[: len(piece)])
        return piece

    for lo in reversed(range(0, n_max + 1, _SEGMENT)):
        hi = min(lo + _SEGMENT, n_max + 1)  # this segment is out[lo:hi]
        segment, segment_rows = first, rows
        if lo:
            segment = out[lo:hi]
            if rows[:1] == [1]:  # row 1 reads this segment: take its piece first
                # 0 + piece, as a sum started at +0.0 (a -0.0 becomes +0.0)
                np.add(row_piece(1, lo, hi - 1), 0, out=segment)
                segment_rows = rows[1:]
            else:
                segment.fill(0)
        for a in segment_rows:
            if a * a >= hi:
                break
            if a * a >= lo:
                segment[a * a - lo] += f[a] * g[a]
            b_lo, b_hi = max(a + 1, -(-lo // a)), (hi - 1) // a  # lo <= a b < hi
            if b_lo <= b_hi:
                segment[a * b_lo - lo : a * b_hi - lo + 1 : a] += row_piece(a, b_lo, b_hi)
    out[: len(first)] = first
    return out


def _self_convolution(s: int, n_max: int, log: bool) -> np.ndarray:
    """The s-fold Dirichlet self-convolution of log(n) (`log`) or of 1: a
    float64 array of f(1..n_max) at those indices, index 0 unused and 0.

    The divisor tables are sieved in the smallest integer dtype that holds
    max d_s: every partial sum is a nonnegative integer <= d_s(n), so the
    sums are exact and equal the float64 ones bit for bit below 2^53.  Each
    product is sieved in place, but at s >= 3 the first takes a new array:
    base, which it would overwrite, is every product's g.
    """
    s, n_max = _size("s", s), _size("n_max", n_max)
    if log:
        base = np.arange(n_max + 1, dtype=float)  # index 0 stays 0: the sieve never reads it
        np.log(base[1:], out=base[1:])
    else:
        max_d = max(d for _, d, _ in _exponent_sorted(s, n_max))
        base = np.ones(n_max + 1, np.min_scalar_type(max_d) if max_d < 2**53 else float)
        base[0] = 0
    values = base
    for k in range(2, s + 1):
        in_place = values is not base or k == s
        values = _dirichlet_sieve(values, base, out=values if in_place else None)
    return values.astype(float, copy=False)


def divisor_table(s: int, n_max: int) -> np.ndarray:
    """The s-fold divisor function d_s(1..n_max) by repeated sieve convolution."""
    return _self_convolution(s, n_max, False)


def log_convolution_table(s: int, n_max: int) -> np.ndarray:
    """The s-fold Dirichlet self-convolution of log(n)."""
    return _self_convolution(s, n_max, True)


@dataclass(frozen=True)
class SeriesResult:
    """A truncated series value with explicit information about the omitted tail.

    tail_bound is the conservative majorant (divisor-growth comparison);
    tail_estimate extrapolates the empirical term density near n_max and is
    much sharper close to sigma = 1/2, where the bound becomes uninformative.
    tail_estimate is informative only from n_max of about 10^4: for
    sum d(n)^2 n^-1.6 = zeta(1.6)^4 / zeta(3.2) it reads 467 for a true tail
    of 20.4 at n_max = 3, 74.5 for 16.8 at 10, 16.1 for 9.6 at 100 and 2.30
    for 1.95 at 10^4.
    """

    value: float
    tail_bound: float
    n_max: int
    tail_estimate: float | None = None


def _upper_gamma_int(m: int, y: float) -> float:
    """Upper incomplete gamma at integer order: Gamma(m, y) for m >= 1."""
    total = 0.0
    term = 1.0
    for k in range(m):
        if k:
            term *= y / k
        total += term
    return math.factorial(m - 1) * math.exp(-y) * total


def _log_power_tail(a: int, beta: float, x: float) -> float:
    """Integral over (x, inf) of (log t)^a t^(-beta) dt, for beta > 1."""
    y = (beta - 1) * math.log(x)
    return _upper_gamma_int(a + 1, y) / (beta - 1) ** (a + 1)


def _exponent_sorted(s: int, n_max: int) -> list[tuple[int, int, float]]:
    """(n, d_s(n), exponent of n's largest prime) for every n <= n_max whose
    prime exponents do not increase along 2, 3, 5, ... (492 of them up to 10^7).

    d_s(n) depends only on the prime exponents of n (d_s(p^k) = C(k+s-1, s-1)).
    Moving them, in non-increasing order, onto 2, 3, 5, ... gives some n' <= n
    with the same d_s.  So these integers attain the maximum of d_s and of
    d_s(n)/n^delta (delta >= 0) over 1..n_max.
    """
    found = frontier = [(1, 1, math.inf)]
    # A prime p is used only if 2 * 3 * 5 * ... * p <= n_max, and that product
    # is at least (p - 1)^2, so p <= isqrt(n_max) + 1.
    for p in primes_up_to(math.isqrt(n_max) + 1).tolist():
        grown = []
        for n, d, top in frontier:
            k, m = 1, n * p
            while k <= top and m <= n_max:
                grown.append((m, d * math.comb(k + s - 1, s - 1), k))
                k, m = k + 1, m * p
        found, frontier = found + grown, grown
    return found


def _divisor_growth_constant(s: int, n_max: int, delta: float) -> float:
    """C with d_s(n) <= C n^delta for delta > 0: exact on 1..n_max, x2 for beyond.

    The maximum is taken over the exponent-sorted integers.  Doubling it is an
    engineering allowance, not a theorem: it covers the range just beyond
    n_max where the tail integral matters.
    """
    n, d, _ = np.array(_exponent_sorted(s, n_max), dtype=float).T
    return 2.0 * float(np.max(d / n**delta))


def _log_power_antiderivative(k: int, t: float) -> float:
    """Integral of (log x)^k dx from 1 to t, by the parts recursion."""
    value = t
    for j in range(1, k + 1):
        value = t * math.log(t) ** j - j * value
    return value


def _density_tail_estimate(window_sum: float, n_max: int, log_degree: int,
                           sigma: float) -> float:
    """Extrapolated tail of sum f(n)^2 / n^(2 sigma) beyond the table, from
    window_sum = the sum of f(n)^2 over n_max//2 < n <= n_max.

    Fits the local density of f(n)^2 on the top half of the range against the
    (log x)^log_degree growth shape and integrates it past n_max.
    """
    window = n_max // 2
    denominator = _log_power_antiderivative(log_degree, n_max) - _log_power_antiderivative(
        log_degree, window + 1
    )
    density = window_sum / denominator
    return density * _log_power_tail(log_degree, 2 * sigma, n_max)


def _truncated_series(table: np.ndarray, s: int, sigma: float, log_power: int) -> SeriesResult:
    """Truncated sum of f(n)^2 / n^(2 sigma) for f = `table`, with tails from
    f(n) <= d_s(n) (log n)^(log_power / 2) and a power bound on d_s
    (exact C = 1 when s = 1).  Consumes `table`: its values become the terms."""
    n_max = len(table) - 1
    terms = table[1:]
    np.square(terms, out=terms)
    window_sum = float(np.sum(terms[n_max // 2 :]))
    for lo in range(0, n_max, _SEGMENT):
        powers = np.arange(lo + 1, min(lo + _SEGMENT, n_max) + 1, dtype=float)
        powers **= -2 * sigma
        terms[lo : lo + len(powers)] *= powers  # f(n)^2 n^(-2 sigma)
    value = float(np.sum(terms))

    if s == 1:
        constant, delta = 1.0, 0.0
    else:
        delta = (2 * sigma - 1) / 4
        constant = _divisor_growth_constant(s, n_max, delta)
    beta = 2 * sigma - 2 * delta
    boundary = constant**2 * math.log(n_max) ** log_power * n_max ** (-beta)
    tail = constant**2 * _log_power_tail(log_power, beta, n_max) + boundary
    estimate = _density_tail_estimate(window_sum, n_max, s * s - 1 + log_power, sigma)
    return SeriesResult(value, tail, n_max, tail_estimate=estimate)


def _check_series_args(s: int, sigma: float, n_max: int) -> tuple[int, int]:
    if not 0.5 < sigma < math.inf:
        raise ValueError(f"requires finite sigma > 1/2, got sigma = {sigma}")
    # the tail estimate fits its density on n_max//2..n_max, empty below 3
    return _size("s", s), _size("n_max", n_max, minimum=3)


def deriv_moment_series(s: int, sigma: float, n_max: int) -> SeriesResult:
    """Truncated sum of ((log * ... * log)(n))^2 / n^(2 sigma), s-fold.

    The tail estimate uses (log*...*log)(n) <= d_s(n) (log n)^s.
    """
    s, n_max = _check_series_args(s, sigma, n_max)
    return _truncated_series(log_convolution_table(s, n_max), s, sigma, 2 * s)


def lindelof_series(s: int, sigma: float, n_max: int) -> SeriesResult:
    """Truncated sum of d_s(n)^2 / n^(2 sigma) with a tail estimate."""
    s, n_max = _check_series_args(s, sigma, n_max)
    return _truncated_series(divisor_table(s, n_max), s, sigma, 0)


# ---------------------------------------------------------------------------
# Arithmetic factor (Euler product) and the conjectured right-hand side
# ---------------------------------------------------------------------------


def primes_up_to(limit: int) -> np.ndarray:
    """Primes <= limit by a numpy sieve over the odd numbers, 2 prepended."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    sieve = np.ones((limit + 1) // 2, dtype=bool)  # sieve[i] stands for 2 i + 1
    sieve[0] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(sieve) + 1)).astype(np.int64)


# Prime zeta P(k) = sum of p^(-k) over primes, to 50 digits (mpmath.primezeta).
_PRIME_ZETA_2 = 0.45224742004106549850654336483224793417323134323989
_PRIME_ZETA_3 = 0.17476263929944353642311331466570670097541212192615


def _euler_factor_logs(s: float, primes: np.ndarray) -> np.ndarray:
    """log of the local Euler factor (1 - 1/p)^(s^2) sum_m d_s(p^m)^2 p^(-m) at
    each prime, bit-identical to the recurrence run one prime at a time: a prime
    leaves the working set at the step where its own sum has converged.  The
    logs are libm's (`math`); numpy's SIMD log can differ in the last bit.
    """
    inv_p = 1.0 / primes.astype(float)
    total = np.ones_like(inv_p)
    live = np.arange(len(inv_p))  # positions whose sum has not converged
    term, sums = np.ones_like(inv_p), np.ones_like(inv_p)
    m = 0
    with np.errstate(over="ignore"):
        while live.size:
            m += 1
            # d_s(p^m) = d_s(p^(m-1)) (s + m - 1) / m
            term = term * (((s + m - 1) / m) ** 2 * inv_p[live])
            sums = sums + term
            done = term < _INNER_SUM_EPS * sums
            failed = ~np.isfinite(sums) | (~done if m > 10_000 else False)
            if failed.any():
                p = primes[live[failed.argmax()]]
                raise CapabilityError(f"the Euler factor sum at p = {p} leaves double precision "
                                      f"(s = {s})")
            total[live[done]] = sums[done]
            live, term, sums = live[~done], term[~done], sums[~done]
    # memoryview yields Python floats without building a list of them
    log1p = np.fromiter(map(math.log1p, memoryview(-inv_p)), float, len(inv_p))
    return s * s * log1p + np.fromiter(map(math.log, memoryview(total)), float, len(inv_p))


def arithmetic_factor(s: float, p_max: int) -> SeriesResult:
    """The arithmetic factor a_s: Euler product over primes p <= p_max.

    A second-order tail correction exp(-s^2 (s-1)^2 / 4 * sum_{p > p_max} p^-2)
    is applied, the prime sum taken as the constant P(2) less the sum up to
    p_max; the tail bound is the p^-3-order residual, from P(3) alike.  Raises
    CapabilityError where a local factor or the product leaves double
    precision: a_s > 0, so a product that underflows to 0 is refused.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"requires finite s > 0, got s = {s}")
    p_max = _size("p_max", p_max, minimum=100)
    primes = primes_up_to(p_max)
    # In blocks of primes, so the recurrence's working arrays stay small.
    logs = np.concatenate([_euler_factor_logs(s, primes[i : i + 2**16])
                           for i in range(0, len(primes), 2**16)])
    # Summed in prime order, as a running sum (np.sum would sum pairwise).
    log_total = float(np.cumsum(logs)[-1])

    kappa = s * s * (s - 1) ** 2 / 4
    p2_tail = _PRIME_ZETA_2 - float(np.sum(1.0 / primes.astype(float) ** 2))
    corrected = math.exp(log_total - kappa * p2_tail)
    if corrected == 0.0:
        raise CapabilityError(f"the Euler product underflows to 0 at s = {s}, p_max = {p_max}")

    # Residual: |log f_p + kappa p^-2| <= c3 p^-3 with c3 estimated on the
    # largest computed primes (x2 safety), integrated over p > p_max.
    c3 = 0.0
    for p, log_f in zip(primes[-20:].tolist(), logs[-20:].tolist()):
        residual = log_f + kappa / float(p) ** 2
        c3 = max(c3, abs(residual) * float(p) ** 3)
    c3 *= 2.0
    p3_tail = _PRIME_ZETA_3 - float(np.sum(1.0 / primes.astype(float) ** 3))
    tail = corrected * (math.expm1(c3 * p3_tail) + kappa * p2_tail * 1e-12)
    return SeriesResult(corrected, tail, p_max)


def rmt_leading_coefficient(s: float) -> float:
    """h_s = e^(-s^2) Gamma(s+1) 1F1(s+1, 1; s^2): the unit-circle limit of
    (1-r^2)^(s^2+2s) times the global derivative moment."""
    if not 0 < s < math.inf:
        raise ValueError(f"requires finite s > 0, got s = {s}")
    return _kummer_factor(s, s * s)


def conjecture_rhs(s: float, sigma: float, p_max: int = 100_000) -> float:
    """Conjectured sigma -> 1/2 asymptotic a_s h_s / (2 sigma - 1)^(s^2 + 2s).

    Raises CapabilityError when the Euler product's tail bound is above 1e-6
    of a_s at this p_max (e.g. s = 10 at p_max = 100, where it is 2 a_s).
    """
    if not 0.5 < sigma < math.inf:
        raise ValueError(f"requires finite sigma > 1/2, got sigma = {sigma}")
    a_s = arithmetic_factor(s, p_max)
    if a_s.tail_bound > 1e-6 * a_s.value:
        raise CapabilityError(f"the Euler product for a_s at s = {s}, p_max = {p_max} has a tail "
                              f"bound {a_s.tail_bound / a_s.value:.2g} times its value, above "
                              f"1e-6: raise --p-max")
    return a_s.value * rmt_leading_coefficient(s) / (2 * sigma - 1) ** (s * s + 2 * s)
