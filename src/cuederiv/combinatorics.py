"""The partition-determinant sum behind the exact and microscopic routes.

A partition lambda of s enters through its derivative orders l_i = lambda_i +
s - i (i = 1..s, parts padded with zeros), which fix its exact integer weights.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, lcm, prod
from operator import mul

from ._numpy import np
from .linalg import det_exact, det_float


@cache
def _partition_data(s: int) -> tuple:
    """(f_lambda, [lambda]!, derivative orders) for each partition lambda of s,
    in descending lexicographic order; built once per s.

    [lambda]! = prod l_i!, and Frobenius's formula gives the number of standard
    Young tableaux, f_lambda = s! prod_(i<j) (l_i - l_j) / prod l_i!.
    """
    data = []

    def descend(orders, remaining, cap):
        slots = s - len(orders)
        if not slots:
            fact = prod(map(factorial, orders))
            vandermonde = prod(a - b for a, b in combinations(orders, 2))
            data.append((factorial(s) * vandermonde // fact, fact, orders))
            return
        # parts of at most `part` fill the remaining slots: remaining <= part * slots
        for part in range(min(cap, remaining), -(-remaining // slots) - 1, -1):
            descend(orders + (part + slots - 1,), remaining - part, part)

    descend((), s, s)
    return tuple(data)


@cache
def _float_weights(s: int) -> np.ndarray:
    """The read-only p(s) x p(s) float array f_lambda f_mu / ([lambda]! [mu]!),
    each entry the correctly rounded int quotient; built once per s."""
    data = _partition_data(s)
    weights = np.array([[f_lam * f_mu / (fact_lam * fact_mu) for f_mu, fact_mu, _ in data]
                        for f_lam, fact_lam, _ in data])
    weights.flags.writeable = False
    return weights


def _partition_det_sum(s: int, table):
    """Sum over partitions lambda and mu of s of f_lambda f_mu / ([lambda]! [mu]!)
    det table[p][q], p and q the derivative orders of lambda and mu.

    `table` is 2s x 2s.  An integer table gives a Fraction: the integer
    determinants of one det_exact call, weighted over one denominator.  A
    float table gives a float: one det_float call over the table's minors, its
    weighted terms added one at a time from +0.0, lambda outer (a sequential
    np.add.accumulate, not a pairwise sum).  The weights sum to at most 1, so
    the sum is finite where its determinants are.
    """
    data = _partition_data(s)
    orders = [p for _, _, p in data]
    if isinstance(table[0][0], int):
        common = lcm(*(fact for _, fact, _ in data))
        weights = [f * (common // fact) for f, fact, _ in data]
        total = sum(w_lam * sum(map(mul, weights, dets))
                    for w_lam, dets in zip(weights, det_exact(table, orders, orders)))
        return Fraction(total, common * common)
    terms = np.multiply(_float_weights(s), det_float(table, orders, orders)).ravel()
    return np.add.accumulate(np.concatenate(([0.0], terms)))[-1].item()
