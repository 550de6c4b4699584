"""Small dense determinants: integer Bareiss and stacked, row-scaled floats."""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError


def det_exact(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
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


def det_float(stack) -> np.ndarray:
    """Determinants of a stack of float matrices, shape (..., n, n) -> (...).

    Each row is divided by its largest magnitude before np.linalg.slogdet and
    the log scales are added back, matrix by matrix, with math.log and
    math.exp.  Raises CapabilityError on a non-finite entry or a determinant
    that leaves double precision.
    """
    a = np.array(stack, dtype=float)  # a private copy, scaled in place below
    *shape, n, _ = a.shape
    a = a.reshape(math.prod(shape), n, n)
    row_max = np.maximum(a.max(axis=2, initial=0.0), -a.min(axis=2, initial=0.0))
    if not np.isfinite(row_max).all():
        raise CapabilityError("float overflow: non-finite determinant entry")
    row_max[row_max == 0.0] = 1.0  # a zero row stays zero: slogdet gives sign 0
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
