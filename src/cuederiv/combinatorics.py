"""Partitions, standard Young tableau counts, and the partition-determinant sum.

Everything here is exact integer combinatorics, apart from the float branch of
the determinant sum.  A partition is a weakly decreasing tuple of positive
integers; formulas that index parts past its length pad it with zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

import numpy as np

from .linalg import det_exact, det_float


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


def _partition_data(h: int, s: int):
    """(f, padded factorial, derivative orders) for each shape of weight h and
    length at most s; orders are lambda_i + s - i for i = 1..s."""
    data = []
    for lam in enumerate_partitions(h):
        if len(lam) > s:
            continue
        padded = lam + (0,) * (s - len(lam))
        orders = tuple(padded[i] + s - (i + 1) for i in range(s))
        data.append((syt_count(lam), partition_factorial(lam, s), orders))
    return data


def _partition_det_sum(s: int, table):
    """Sum over partitions lambda and mu of s of f_lambda f_mu / ([lambda]! [mu]!)
    det table[p][q], p and q the derivative orders of lambda and mu.

    `table` is 2s x 2s.  An integer table gives a Fraction: integer Bareiss
    determinants weighted over one denominator.  A float table gives a float:
    one stacked det_float call, its weighted terms added in order, lambda
    outer.  The weights sum to at most 1, so the sum is finite where its
    determinants are.
    """
    data = _partition_data(s, s)
    pairs = [(lam, mu) for lam in data for mu in data]
    if isinstance(table[0][0], int):
        common = lcm(*(fact for _, fact, _ in data))
        total = sum(
            f_lam * (common // fact_lam) * f_mu * (common // fact_mu)
            * det_exact([[table[i][j] for j in q] for i in p])
            for (f_lam, fact_lam, p), (f_mu, fact_mu, q) in pairs
        )
        return Fraction(total, common * common)
    orders = np.array([p for _, _, p in data])
    stack = np.asarray(table, dtype=float)[orders[:, None, :, None], orders[None, :, None, :]]
    dets = det_float(stack).ravel().tolist()
    total = 0.0
    for ((f_lam, fact_lam, _), (f_mu, fact_mu, _)), det in zip(pairs, dets):
        total += f_lam * f_mu / (fact_lam * fact_mu) * det
    return total
