"""Special functions shared by the exact, asymptotic and zeta modules.

All routines are scalar, pure and work in double precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._numpy import np
from .errors import CapabilityError, _float, _size

_SERIES_LIMIT = 100_000


def hyp1f1(a: float, b: float, x: float) -> float:
    """Kummer's confluent hypergeometric function 1F1(a, b; x).

    Direct series for x >= 0; for x < 0 the Kummer transform
    1F1(a,b;x) = e^x 1F1(b-a, b; -x) avoids an alternating sum.  A series
    whose sum overflows raises CapabilityError.
    """
    a, b, x = _float("a", a), _float("b", b), _float("x", x)
    if b <= 0 and b.is_integer():
        raise ValueError(f"1F1 undefined for non-positive integer b = {b}")
    if x < 0:
        return math.exp(x) * hyp1f1(b - a, b, -x)
    term = 1.0
    total = 1.0
    for k in range(_SERIES_LIMIT):
        term *= (a + k) * x / ((b + k) * (k + 1))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            if math.isinf(total):
                raise CapabilityError(f"1F1({a}, {b}; {x}) overflows double precision")
            return total
    raise ArithmeticError(f"1F1 series did not converge for ({a}, {b}, {x})")


def _kummer_factor(a: float, x: float) -> float:
    """e^(-x) Gamma(a+1) 1F1(a+1, 1; x)."""
    return math.exp(-x) * math.gamma(a + 1) * hyp1f1(a + 1, 1.0, x)


def exp_moment(k: int, c: float) -> float:
    """The moment integral over [0, 1] of x^k e^(-c x).

    Series in c for c < 1 (for c <= 0 every term is positive).  Below c = k + 40
    the integration-by-parts recurrence is run downward, seeded with zero far
    enough above k that the start-up error is damped below 1e-18; the upward
    direction amplifies errors by k/c per step.  Its e^(-c) underflows from
    c ~ 708, long before the moment does, so from c = k + 40 on the closed form
    k!/c^(k+1) (1 - sum_(j<=k) e^(-c) c^j/j!) is used, each term taken in logs.
    """
    k, c = _size("k", k, minimum=0), _float("c", c)
    if c < 1.0:
        term = 1.0
        total = 1.0 / (k + 1)
        for j in range(1, _SERIES_LIMIT):
            term *= -c / j
            delta = term / (k + j + 1)
            total += delta
            if abs(delta) <= 1e-18 * abs(total):
                return total
        raise ArithmeticError(f"exp_moment series did not converge for ({k}, {c})")
    if c >= k + 40:
        p, q = c.as_integer_ratio()
        # int / int is correctly rounded, and k!/c^(k+1) < 1 cannot overflow.
        head = math.factorial(k) * q ** (k + 1) / p ** (k + 1)
        tail = sum(math.exp(-c + j * math.log(c) - math.lgamma(j + 1)) for j in range(k + 1))
        return head * (1.0 - tail)
    # pick the start index so prod_{j=k+1..K} (c/j) < 1e-20
    top = max(k, int(c)) + 8
    damping = sum(math.log(c / j) for j in range(k + 1, top + 1))
    while damping > -46.0:
        top += 8
        damping += sum(math.log(c / j) for j in range(top - 7, top + 1))
    e = math.exp(-c)
    m = 0.0
    for j in range(top, k, -1):
        m = (c * m + e) / j
    return m


_BERNOULLI_2K = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
)


def _product(f, g):
    """The product rule: (fg, (fg)', (fg)'') from (f, f', f'') and (g, g', g'')."""
    return (f[0] * g[0], f[1] * g[0] + f[0] * g[1], f[2] * g[0] + 2 * f[1] * g[1] + f[0] * g[2])


def zeta_real(w: float, order: int = 0) -> float:
    """zeta(w), zeta'(w) or zeta''(w) for real w > 1 by Euler-Maclaurin.

    Every term is carried with its first two w-derivatives as (f, f', f''),
    products by the product rule; finite differences would be hopeless for w
    barely above 1.
    """
    w, order = _float("w", w, 1), _size("order", order, minimum=0)
    if order > 2:
        raise ValueError(f"requires order <= 2, got order = {order}")
    cutoff = 40
    logs = np.log(np.arange(1, cutoff + 1, dtype=float))
    # n^-w, n = 1..M with M = cutoff, and its derivatives (-log n)^j n^-w.
    powers = [(np.exp(-w * logs) * (-logs) ** j).tolist() for j in range(3)]
    m_pow = [p[-1] for p in powers]
    inv = 1 / (w - 1)
    # Head sum over n < M, endpoint term M^-w / 2 and integral term M^(1-w) / (w - 1).
    total = (math.fsum(powers[order][:-1]) + 0.5 * m_pow[order]
             + cutoff * _product(m_pow, (inv, -inv * inv, 2 * inv**3))[order])

    # Bernoulli corrections B_2k/(2k)! (w)_(2k-1) M^(-w-2k+1).
    poch = (1.0, 0.0, 0.0)
    prev_size = math.inf
    for k, b2k in enumerate(_BERNOULLI_2K, start=1):
        for j in range(max(0, 2 * k - 3), 2 * k - 1):
            poch = _product(poch, (w + j, 1.0, 0.0))
        scale = float(b2k) / math.factorial(2 * k) * cutoff ** (1 - 2 * k)
        term = scale * _product(poch, m_pow)[order]
        size = abs(term)
        if size > prev_size:
            break
        total += term
        prev_size = size
    return total
