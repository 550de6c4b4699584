"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the checklist live.
The Monte Carlo criteria use fixed seeds; every tolerance is pinned here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cuederiv.asymptotics import (
    cue_limit,
    global_moment,
    joint_moment,
    micro_b,
    micro_b_bessel,
)
from cuederiv.combinatorics import _partition_data
from cuederiv.exact_moments import (
    _b_expansion,
    _block_sums,
    cue_moment_integer,
    cue_moment_ks,
    cue_moment_radial,
    moment_exact,
    moment_structure,
)
from cuederiv.rmt_mc import estimate_joint_moment, estimate_moment, mean_zero_counts
from cuederiv.specfun import hyp1f1, zeta_real
from cuederiv.zeta import arithmetic_factor, deriv_moment_series
from oracles import (
    DescendingComposition,
    appendix_d00,
    enumerate_partitions,
    laguerre,
    omega_weight,
    syt_count,
)


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def closed_sum_s1(N, u):
    return sum(j * j * u ** (j - 1) for j in range(1, N + 1))


def test_criterion_01_exact_triple_agreement():
    start = time.time()
    grid_u = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    for N in range(1, 7):
        for s in (1, 2):
            for u in grid_u:
                determinant = moment_exact(N, s, u)
                structure = moment_structure(N, s, u)
                assert determinant == structure, (N, s, u)
                if s == 1:
                    assert determinant == closed_sum_s1(N, u), (N, u)
    elapsed = time.time() - start
    assert elapsed < 10
    report(1, f"determinant/structure/closed-sum identical on the grid ({elapsed:.1f}s)")


def weyl_quadrature_moment(N, s, u, points=200):
    """Independent oracle: rectangle-rule integration of |Lambda'|^(2s) against
    the eigenangle density on the N-torus.  The integrand is a trigonometric
    polynomial of per-variable degree far below `points`, so the rule is exact
    to rounding."""
    z = math.sqrt(u)
    theta = 2 * np.pi * np.arange(points) / points
    w = np.exp(-1j * theta)
    if N == 1:
        values = np.abs(-w) ** (2 * s)
        return float(np.mean(values))
    if N == 2:
        w1 = w[:, None]
        w2 = w[None, :]
        f1 = 1 - z * w1
        f2 = 1 - z * w2
        dlam = -(w1 * f2 + w2 * f1)
        vandermonde = np.abs(np.conj(w1) - np.conj(w2)) ** 2
        values = np.abs(dlam) ** (2 * s) * vandermonde
        return float(np.mean(values)) / math.factorial(2)
    assert N == 3
    total = 0.0
    w2 = w[:, None]
    w3 = w[None, :]
    f2 = 1 - z * w2
    f3 = 1 - z * w3
    v2 = np.conj(w2)
    v3 = np.conj(w3)
    pair23 = np.abs(v2 - v3) ** 2
    for w1 in w:
        f1 = 1 - z * w1
        dlam = -(w1 * f2 * f3 + w2 * f1 * f3 + w3 * f1 * f2)
        v1 = np.conj(w1)
        vandermonde = np.abs(v1 - v2) ** 2 * np.abs(v1 - v3) ** 2 * pair23
        total += float(np.sum(np.abs(dlam) ** (2 * s) * vandermonde))
    return total / points**3 / math.factorial(3)


def test_criterion_02_brute_force_torus_quadrature():
    start = time.time()
    for N in (1, 2, 3):
        for s in (1, 2):
            oracle = weyl_quadrature_moment(N, s, 0.5)
            value = float(moment_exact(N, s, Fraction(1, 2)))
            assert abs(value - oracle) <= 1e-6 * abs(oracle), (N, s, value, oracle)
    elapsed = time.time() - start
    assert elapsed < 120
    report(2, f"torus quadrature matches the exact formula at 1e-6 ({elapsed:.1f}s)")


def test_criterion_03_monte_carlo_agreement():
    start = time.time()
    seed = 2024
    for s in (1, 2):
        for r in (0.3, 0.6):
            est = estimate_moment(6, s, r, 100_000, seed=seed, threads=2)
            exact = float(moment_exact(6, s, Fraction(r).limit_denominator(100) ** 2))
            assert abs(est.mean - exact) <= 5 * est.std_error, (s, r, est, exact)
            seed += 1
    joint = estimate_joint_moment(60, 1.0, 1.0, 0.3, 0.5j, 100_000, seed=99, threads=2)
    closed = joint_moment(1, 1, 0.3, 0.5j)
    allowance = max(5 * joint.std_error, 0.03 * closed)
    assert abs(joint.mean - closed) <= allowance, (joint, closed)
    elapsed = time.time() - start
    assert elapsed < 300
    report(3, f"MC within 5 SE of exact; joint within max(5 SE, 3%) ({elapsed:.1f}s)")


def test_criterion_04_global_limit_convergence():
    start = time.time()
    r = 0.5
    u = r * r
    for s in (1, 2):
        target = math.exp(-(s * r) ** 2) * math.gamma(s + 1) * hyp1f1(s + 1, 1, (s * r) ** 2)
        scaled = moment_exact(2000, s, u) * (1 - u) ** (s * s + 2 * s)
        assert abs(scaled - target) / target < 0.01, (s, scaled, target)
    elapsed = time.time() - start
    assert elapsed < 60
    report(4, f"N=2000 scaled moment within 1% of the hypergeometric limit ({elapsed:.1f}s)")


def test_criterion_05_microscopic_convergence():
    start = time.time()
    N = 4000
    for s in (1, 2):
        for c in (0.0, 1.0, 2.0):
            value = moment_exact(N, s, 1 - c / N) / N ** (s * s + 2 * s)
            coeff = micro_b(s, c)
            assert abs(value / coeff - 1) < 0.01, (s, c, value, coeff)
    assert micro_b(1, 0.0) == 1 / 3
    for s in (1, 2, 3):
        for c in (0.0, 1.0, 2.0):
            a, b = micro_b(s, c), micro_b_bessel(s, c)
            assert abs(a - b) <= 1e-9 * abs(a), (s, c)
    elapsed = time.time() - start
    assert elapsed < 120
    report(5, f"microscopic coefficient matched at N=4000; both kernel forms agree ({elapsed:.1f}s)")


def test_criterion_06_mesoscopic():
    start = time.time()
    N = 10**6
    u = 1 - N**-0.5
    ratio = moment_exact(N, 1, u) / (2 * N**1.5)
    assert 0.99 <= ratio <= 1.01, ratio

    N2 = 10**4
    u2 = 1 - N2**-0.5
    coeff = moment_exact(N2, 2, u2) / N2 ** (0.5 * 8)
    assert abs(coeff / 34 - 1) < 0.05, coeff
    elapsed = time.time() - start
    report(6, f"mesoscopic coefficients 2 (s=1) and 34 (s=2) reproduced ({elapsed:.1f}s)")


def test_criterion_07_zero_density_trend():
    start = time.time()
    r = math.sqrt(0.5)
    estimates = {
        N: mean_zero_counts(N, [r], 10_000, seed=31 + N, threads=2)[0]
        for N in (25, 50, 100)
    }
    deviations = {N: abs(est.mean - 2.0) for N, est in estimates.items()}
    slack = {N: 3 * estimates[N].std_error for N in estimates}
    assert deviations[100] < 0.10 * 2.0
    assert deviations[100] <= deviations[25] + slack[100] + slack[25]
    assert deviations[100] <= deviations[50] + slack[100] + slack[50]
    elapsed = time.time() - start
    assert elapsed < 600
    means = {N: round(est.mean, 3) for N, est in estimates.items()}
    report(7, f"zero counts {means} trend to 2 within 10% at N=100 ({elapsed:.1f}s)")


def test_criterion_08_combinatorial_identities():
    start = time.time()
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            if len(lam) > n:
                continue
            q = DescendingComposition.from_partition(lam, n)
            assert omega_weight(q) == syt_count(lam)
        # The orders l_i = lambda_i + n - i are the composition q itself.
        for f, _, orders in _partition_data(n):
            assert omega_weight(DescendingComposition(orders)) == f
    for m in range(9):
        assert sum(syt_count(p) ** 2 for p in enumerate_partitions(m)) == math.factorial(m)
    for s in range(1, 7):
        for x in (0.1, 1.0, 4.0, 9.0, 25.0):
            lhs = math.factorial(s) * hyp1f1(s + 1, 1, x)
            rhs = math.factorial(s) * math.exp(x) * float(laguerre(s, -x))
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)
    elapsed = time.time() - start
    report(8, f"omega=f, sum f^2 = m!, Kummer identity at 1e-11 ({elapsed:.1f}s)")


def test_criterion_09_zeta_side():
    start = time.time()
    a2 = arithmetic_factor(2.0, 10**6)
    assert abs(a2.value - 6 / math.pi**2) < 1e-8

    series = deriv_moment_series(1, 0.8, 10**6)
    assert abs(series.value - zeta_real(1.6, 2)) <= series.tail_bound

    target = a2.value * 34
    scaled = []
    for sigma in (0.75, 0.65, 0.6):
        result = deriv_moment_series(2, sigma, 10**7)
        factor = (2 * sigma - 1) ** 8
        scaled.append((factor * result.value, factor * result.tail_estimate))
    # truncated values sit below the limit; each value+tail interval reaches it
    for value, tail in scaled:
        assert value < target * 1.02
        assert value + tail >= target * 0.98
    # at the mildest sigma most of the limit is already accounted for
    assert scaled[0][0] >= 0.85 * target
    elapsed = time.time() - start
    assert elapsed < 300
    values = [round(v, 2) for v, _ in scaled]
    report(9, f"a_2=6/pi^2 at 1e-8; s=1 series = zeta''; s=2 trend {values} -> {target:.2f} ({elapsed:.1f}s)")


def test_criterion_10_cue_moment_identities():
    start = time.time()
    for s in range(5):
        for N in range(1, 21):
            exact = float(cue_moment_integer(N, s))
            assert abs(cue_moment_ks(N, s) - exact) <= 1e-10 * exact
    finite = cue_moment_radial(2000, 2, 0.5)
    limit = cue_limit(2, "global", r=0.5)
    assert abs(finite / limit - 1) < 0.01
    elapsed = time.time() - start
    report(10, f"circle product identities and the global CUE limit at 1% ({elapsed:.1f}s)")


@pytest.mark.parametrize("s", (1, 2))
@pytest.mark.parametrize("N", (5, 8))
def test_criterion_11_appendix_expansion(s, N):
    expansion = _b_expansion(s, _block_sums(N, s))[0, 0]
    rebuilt: dict[int, Fraction] = {}
    hi = (3 * s - 1) * s // 2
    for l in range(s + 1):
        for m in range(hi + 1):
            coeff = appendix_d00(m, l, s, N)
            if coeff:
                exponent = 2 * N * l - s * s + s + 2 * m
                rebuilt[exponent] = rebuilt.get(exponent, Fraction(0)) + coeff
    rebuilt = {e: c for e, c in rebuilt.items() if c}
    assert rebuilt == expansion
    report(11, f"subset-sum coefficients reproduce the expansion (s={s}, N={N})")


def test_criterion_12_non_integer_s():
    # Grid, seeds and the 5 SE bound (criterion 03's) were fixed before the
    # first run.  (1.5, 0.6) is left out: its top 1% of draws carry 0.55 of
    # the mean, so the CLT does not cover it.
    start = time.time()
    points = [(s, r) for s in (0.5, -0.25, -0.45) for r in (0.3, 0.6)] + [(1.5, 0.3)]
    for k, (s, r) in enumerate(points):
        est = estimate_moment(40, s, r, 200_000, seed=2100 + k, threads=2)
        limit = global_moment(s, r)
        assert abs(est.mean - limit) <= 5 * est.std_error, (s, r, est, limit)
        assert est.top_contribution_fraction < 0.5, (s, r, est)
    joint = estimate_joint_moment(60, 0.5, 0.5, 0.3, 0.5j, 100_000, seed=2199, threads=2)
    limit = joint_moment(0.5, 0.5, 0.3, 0.5j)
    assert abs(joint.mean - limit) <= 5 * joint.std_error, (joint, limit)
    assert joint.top_contribution_fraction < 0.5, joint
    elapsed = time.time() - start
    report(12, f"MC within 5 SE of the limits at non-integer s ({elapsed:.1f}s)")
