"""Large-N limits of the derivative moments in the three spectral regimes.

Global: |z| < 1 fixed.  Mesoscopic: |z|^2 = 1 - N^(-alpha).  Microscopic:
|z|^2 = 1 - c/N.  The microscopic coefficient has two independent forms, one
as a partition sum over exponential moments and one extracted from the Taylor
expansion of a finite-temperature Bessel-kernel determinant.
"""

from __future__ import annotations

import math

from ._numpy import np
from .combinatorics import _partition_det_sum
from .errors import CapabilityError, _complex, _float, _real, _size
from .linalg import det_float
from .exact_moments import _structure_a_upoly
from .specfun import _kummer_factor, exp_moment


def global_moment(s: float, r: float) -> float:
    """Limiting derivative moment for fixed |z| = r < 1.

    e^(-s^2 r^2) Gamma(s+1) 1F1(s+1, 1; s^2 r^2) / (1-r^2)^(s^2+2s); for
    integer s this equals s! L_s(-r^2 s^2) / (1-r^2)^(s^2+2s).
    """
    s, r = _float("s", s, -1), _float("r", r, 0, 1, closed=True)
    return _finite_quotient(_kummer_factor(s, s * s * r * r), (1 - r * r) ** (s * s + 2 * s),
                            "global moment")


def joint_moment(s: float, h: float, z1: complex, z2: complex) -> float:
    """Limiting joint moment of |dLambda/Lambda(z2)|^(2h) |Lambda(z1)|^(2s)."""
    s, h = _float("s", s), _float("h", h, -1)
    z1, z2 = _complex("z1", z1), _complex("z2", z2)
    if not (abs(z1) < 1 and abs(z2) < 1):
        raise ValueError("requires |z1| < 1 and |z2| < 1")
    rho = abs(z1) ** 2 * (1 - abs(z2) ** 2) ** 2 / abs(1 - z1 * z2.conjugate()) ** 2
    return _finite_quotient(
        _kummer_factor(h, s * s * rho),
        (1 - abs(z2) ** 2) ** (2 * h) * (1 - abs(z1) ** 2) ** (s * s),
        "joint moment",
    )


def _finite_quotient(numerator: float, denominator: float, what: str) -> float:
    """numerator / denominator, raising CapabilityError where the quotient
    leaves double precision, an underflowed denominator included."""
    quotient = numerator / denominator if denominator else math.inf
    if not math.isfinite(quotient):
        raise CapabilityError(f"{what} exceeds double precision")
    return quotient


def _scaled(coefficient: float, base, exponent: float, what: str) -> float:
    """coefficient * float(base)**float(exponent); CapabilityError where it overflows.

    base is N or, in the global CUE limit, 1 - r^2; the callers check it is positive.
    """
    try:
        value = coefficient * float(base) ** float(exponent)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise CapabilityError(f"float overflow in the {what}")
    return value


def expected_zero_count(r: float) -> float:
    """Limiting mean number of zeros of the derivative inside radius r."""
    r = _float("r", r, 0, 1, closed=True)
    return 2 * r * r / (1 - r * r)


def expected_log_integral(r: float) -> float:
    """Limit of the radially integrated zero density: -log(1 - r^2)."""
    r = _float("r", r, 0, 1, closed=True)
    return -math.log1p(-r * r)


def meso_moment(s: int, alpha: float, N: float) -> float:
    """Mesoscopic asymptotic N^(alpha(s^2+2s)) s! L_s(-s^2), the coefficient
    taken exactly as the structure route's a_(0,0) at u = 1 and rounded once."""
    s, alpha, N = _size("s", s), _float("alpha", alpha, 0, 1), _float("N", N, 0)
    coefficient = float(sum(_structure_a_upoly(s, 0, 0)))
    return _scaled(coefficient, N, alpha * (s * s + 2 * s), "mesoscopic moment")


def micro_b(s: int, c: float) -> float:
    """Microscopic coefficient: partition sum of exponential-moment determinants.

    The N^(s^2+2s) coefficient of the derivative moment at |z|^2 = 1 - c/N.
    """
    s, c = _size("s", s), _real("c", c)
    moments = [exp_moment(k, c) for k in range(4 * s - 1)]
    return _partition_det_sum(s, [[moments[p + q] for q in range(2 * s)] for p in range(2 * s)])


def _bessel_entry_coeffs(i: int, j: int, table: list[float], deg: int) -> np.ndarray:
    """Taylor coefficients in (v, w) of the (i, j) kernel-derivative entry.

    Entry is the mixed (i-1, j-1) derivative of the finite-temperature Bessel
    kernel integral; coefficient of v^p w^q is
    (-1)^(p+q+i+j) m_(p+q+i+j-2)(c) / ((p+i-1)! (q+j-1)! p! q!).
    """
    coeffs = np.zeros((deg + 1, deg + 1))
    for p in range(deg + 1):
        for q in range(deg + 1):
            a = p + i - 1
            b = q + j - 1
            coeffs[p, q] = (
                (-1) ** (a + b)
                * table[a + b]
                / (math.factorial(a) * math.factorial(b) * math.factorial(p) * math.factorial(q))
            )
    return coeffs


def _truncated_product(x: np.ndarray, y: np.ndarray, deg: int) -> np.ndarray:
    out = np.zeros((deg + 1, deg + 1))
    for p in range(deg + 1):
        for q in range(deg + 1):
            if x[p, q] == 0.0:
                continue
            out[p : deg + 1, q : deg + 1] += x[p, q] * y[: deg + 1 - p, : deg + 1 - q]
    return out


def _truncated_inverse(x: np.ndarray, deg: int) -> np.ndarray:
    """1 / x in the bivariate series truncated at degree deg; needs x[0, 0] != 0."""
    y = np.zeros((deg + 1, deg + 1))
    for p in range(deg + 1):
        for q in range(deg + 1):
            # y[p, q] is still 0, so the sum leaves out the x[0, 0] y[p, q] term.
            rest = np.sum(x[: p + 1, : q + 1] * y[p::-1, q::-1])
            y[p, q] = ((p == q == 0) - rest) / x[0, 0]
    return y


def micro_b_bessel(s: int, c: float) -> float:
    """Microscopic coefficient extracted from the Bessel-kernel determinant.

    Expands every entry of the s x s kernel-derivative matrix as a bivariate
    Taylor series to degree s, takes the determinant by Gaussian elimination
    over the truncated series, and reads off the (v^s w^s) coefficient.  The
    pivots are invertible: their constant terms come from the positive-definite
    Hankel matrix of exponential moments.
    """
    s, c = _size("s", s), _real("c", c)
    table = [exp_moment(k, c) for k in range(4 * s - 1)]
    rows = [[_bessel_entry_coeffs(i, j, table, s) for j in range(1, s + 1)]
            for i in range(1, s + 1)]
    det_coeffs = np.zeros((s + 1, s + 1))
    det_coeffs[0, 0] = 1.0
    for k in range(s):
        det_coeffs = _truncated_product(det_coeffs, rows[k][k], s)
        inverse = _truncated_inverse(rows[k][k], s)
        for i in range(k + 1, s):
            factor = _truncated_product(rows[i][k], inverse, s)
            for j in range(k + 1, s):
                rows[i][j] -= _truncated_product(factor, rows[k][j], s)
    return float(det_coeffs[s, s]) * math.factorial(s) ** 2


def cue_limit(s: float, regime: str, *, r: float | None = None, alpha: float | None = None,
              c: float | None = None, N: float | None = None) -> float:
    """Limits of E|Lambda_N|^(2s) itself in the three regimes.

    global (0 <= r < 1): (1-r^2)^(-s^2).  mesoscopic (0 < alpha < 1, N > 0):
    N^(s^2 alpha).  microscopic (any real c): N^(s^2) s! det{m_(i+j-2)(c)} /
    prod_j Gamma(j)Gamma(j+1) (integer s); without N the N-free coefficient is
    returned.
    """
    real_s = _float("s", s)  # microscopic takes s as given, through _size
    if regime == "global":
        r = _float("r", r, 0, 1, closed=True)
        return _scaled(1.0, 1 - r**2, -(real_s * real_s), "global CUE limit")
    if regime == "mesoscopic":
        alpha, N = _float("alpha", alpha, 0, 1), _float("N", N, 0)
        return _scaled(1.0, N, real_s * real_s * alpha, "mesoscopic CUE limit")
    if regime != "microscopic":
        raise ValueError(f"unknown regime {regime!r}")
    c, N = _float("c", c), 1.0 if N is None else _float("N", N, 0)
    s = _size("s", s)  # Andreief reduction of the multi-integral needs integer s
    table = [exp_moment(k, c) for k in range(2 * s - 1)]
    gram = [[table[i + j] for j in range(s)] for i in range(s)]
    hankel = float(det_float(gram, [range(s)], [range(s)])[0, 0])
    # The Gram determinant of x^k e^(-cx) dx on [0, 1] is positive; a value <= 0
    # is rounding.  Passing this check does not make the value accurate.
    if not hankel > 0:
        raise CapabilityError(f"microscopic Hankel determinant lost to rounding at s={s}, "
                              f"c={c}: {hankel:.6g}")
    coefficient = math.factorial(s) * hankel
    for j in range(1, s + 1):
        coefficient /= math.gamma(j) * math.gamma(j + 1)
    return _scaled(coefficient, N, s * s, "microscopic CUE limit")
