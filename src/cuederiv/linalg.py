"""Small dense determinants: integer Bareiss, and row-scaled float minors of a table."""

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


def det_float(table, rows, cols) -> np.ndarray:
    """Determinants of the minors table[rows[i]][:, cols[j]], shape (len(rows), len(cols)).

    Each minor row is divided by its largest magnitude before np.linalg.slogdet
    and the log scales are added back, row by row, with math.log and math.exp.
    A minor row is a table row over a column set, so each maximum and its log
    are taken once per (table row, column set).  Raises CapabilityError on a
    non-finite entry or a determinant that leaves double precision.
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
