"""Small dense determinants: fraction-free exact and scaled floating point."""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np


def det_exact(rows) -> Fraction:
    """Determinant of a matrix of ints/Fractions by integer Bareiss elimination.

    Rows are rescaled to clear denominators first so the elimination runs in
    pure integer arithmetic with exact divisions.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    m: list[list[int]] = []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
        lcm = 1
        for x in row:
            if not isinstance(x, Rational):
                raise TypeError(f"det_exact needs rational entries, got {type(x)}")
            d = x.denominator
            lcm = lcm * d // math.gcd(lcm, d)
        scale /= lcm
        m.append([int(x * lcm) for x in row])

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
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * scale * m[n - 1][n - 1]


def det_float(rows) -> float:
    """Determinant of a float matrix, row-scaled to dodge overflow/underflow."""
    a = np.array(rows, dtype=float)
    n = a.shape[0]
    if n == 0:
        return 1.0
    log_scale = 0.0
    for i in range(n):
        mx = np.max(np.abs(a[i]))
        if mx == 0.0 or not np.isfinite(mx):
            if not np.isfinite(mx):
                raise OverflowError("non-finite matrix entry")
            return 0.0
        a[i] /= mx
        log_scale += math.log(mx)
    sign, log_abs = np.linalg.slogdet(a)
    if sign == 0.0:
        return 0.0
    return float(sign) * math.exp(log_abs + log_scale)
