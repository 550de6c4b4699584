"""Determinants of many minors of one table: shared integer Bareiss steps, and
row-scaled float minors."""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError


def _prefix_tree(entries, depth):
    """(indices, children, leaves) of the index tuples in `entries`, which
    share their first `depth` entries: every index at or past `depth`,
    {next index: subtree}, and the entries themselves as leaves.

    `entries` holds (index tuple, sign, position) triples.
    """
    indices = sorted({t[k] for t, _, _ in entries for k in range(depth, len(t))})
    groups = {}
    if depth < len(entries[0][0]):
        for entry in entries:
            groups.setdefault(entry[0][depth], []).append(entry)
    children = {r: _prefix_tree(group, depth + 1) for r, group in groups.items()}
    return indices, children, entries


def det_exact(table, rows, cols) -> list[list[int]]:
    """Determinants of the minors table[rows[i]][:, cols[j]] of one integer
    table, as a len(rows) x len(cols) list of lists of ints.

    One fraction-free (Bareiss) elimination serves every minor.  After k steps
    it holds the bordered minors det table[P + (x,)][:, Q + (y,)] of the first
    k rows P and columns Q, so with each index tuple taken in ascending order
    (and the sign of its sorting permutation), minors whose tuples share a
    prefix share those steps.  With the pivot p = M[r][c] and the previous
    pivot d, step k + 1 is M'[x][y] = (p M[x][y] - M[x][c] M[r][y]) // d,
    exact by Sylvester's identity.  At a zero pivot each row tuple swaps in its
    next row with a nonzero entry in that column, negating its sign, and goes
    on alone from the shared state; with no such row its minors are 0.
    """
    rows, cols = [tuple(r) for r in rows], [tuple(c) for c in cols]
    n = len((rows + cols or [()])[0])
    if any(len(t) != n for t in rows + cols):
        raise ValueError("minors must be square: every index tuple needs the same length")
    if n == 0 or not rows or not cols:
        return [[1] * len(cols) for _ in rows]
    out = [[0] * len(cols) for _ in rows]

    def tree(tuples):
        entries = []
        for pos, t in enumerate(tuples):
            inversions = sum(a > b for k, a in enumerate(t) for b in t[k + 1:])
            entries.append((tuple(sorted(t)), -1 if inversions % 2 else 1, pos))
        return _prefix_tree(sorted(entries), 0)

    def descend(m, d, row_children, col_children, depth):
        for r, (rest_rows, row_grandchildren, row_leaves) in row_children.items():
            mr = m[r]
            for c, col_child in col_children.items():
                rest_cols, col_grandchildren, col_leaves = col_child
                pivot = mr[c]
                if depth + 1 == n:
                    for _, si, i in row_leaves:
                        for _, sj, j in col_leaves:
                            out[i][j] = si * sj * pivot
                elif pivot == 0:
                    for t, sign, i in row_leaves:
                        k = next((k for k in range(depth + 1, n) if m[t[k]][c] != 0), None)
                        if k is not None:
                            swapped = t[:depth] + (t[k],) + t[depth + 1:k] + (r,) + t[k + 1:]
                            descend(m, d, _prefix_tree([(swapped, -sign, i)], depth)[1],
                                    {c: col_child}, depth)
                else:
                    nxt = {}
                    for x in rest_rows:
                        mx = m[x]
                        mxc = mx[c]
                        nxt[x] = {y: (pivot * mx[y] - mxc * mr[y]) // d for y in rest_cols}
                    descend(nxt, pivot, row_grandchildren, col_grandchildren, depth + 1)

    descend(table, 1, tree(rows)[1], tree(cols)[1], 0)
    return out


def det_float(table, rows, cols) -> np.ndarray:
    """Determinants of the minors table[rows[i]][:, cols[j]], shape (len(rows), len(cols)).

    Each minor row is divided by its largest magnitude before np.linalg.slogdet
    and the log scales are added back, row by row, with math.log and math.exp.
    A minor row is a table row over a column set, so each piece table[x, cols[j]]
    is scaled, and its maximum's log taken, once; the minors are gathered from
    the scaled pieces.  Raises CapabilityError on a non-finite entry or a
    determinant that leaves double precision.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    pieces = table[:, cols]  # (table row, column set, column)
    row_max = np.abs(pieces).max(axis=2, initial=0.0)
    if not np.isfinite(row_max[rows]).all():
        raise CapabilityError("float overflow: non-finite determinant entry")
    row_max[row_max == 0.0] = 1.0  # a zero row stays zero: slogdet gives sign 0
    logs = np.reshape([math.log(mx) for mx in row_max.ravel().tolist()], row_max.shape)
    with np.errstate(invalid="ignore"):  # inf / inf in a table row no minor reads
        pieces /= row_max[..., None]
    sign, log_abs = np.linalg.slogdet(pieces[rows[:, None, :], np.arange(len(cols))[None, :, None]])
    log_scale = np.zeros(sign.shape)
    for i in range(rows.shape[1]):
        log_scale += logs[rows[:, i]]  # each minor adds its row logs in row order
    try:
        dets = [sg * math.exp(x) if sg else 0.0
                for sg, x in zip(sign.ravel().tolist(), (log_abs + log_scale).ravel().tolist())]
    except OverflowError:
        raise CapabilityError("float overflow in a determinant") from None
    return np.reshape(dets, sign.shape)
