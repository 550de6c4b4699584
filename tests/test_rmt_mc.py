import math

import numpy as np
import pytest
import scipy.stats

from cuederiv.errors import EigenphaseCollisionError
from cuederiv.exact_moments import moment_exact
from cuederiv.rmt_mc import (
    MomentEstimate,
    SpectrumSample,
    count_zeros_inside,
    estimate_joint_moment,
    estimate_moment,
    eval_lambda_and_deriv,
    haar_phases,
    log_abs_lambda_and_deriv,
    mean_zero_counts,
    poly_coeffs,
    sample_spectrum,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestSampler:
    def test_shapes_and_range(self):
        phases = haar_phases(8, 50, rng())
        assert phases.shape == (50, 8)
        assert np.all(phases >= 0) and np.all(phases < 2 * np.pi)

    def test_single_sample(self):
        sample = sample_spectrum(5, rng())
        assert sample.N == 5 and sample.phases.shape == (5,)

    def test_u1_phase_uniform(self):
        # N = 1 Haar is the uniform phase; Kolmogorov-Smirnov at 1% level
        phases = haar_phases(1, 10_000, rng(123)).ravel()
        p_value = scipy.stats.kstest(phases / (2 * np.pi), "uniform").pvalue
        assert p_value > 0.01

    def test_trace_mean_zero(self):
        # E[tr U] = 0 under Haar; catches the uncorrected-QR bias
        phases = haar_phases(8, 10_000, rng(7))
        traces = np.sum(np.exp(1j * phases), axis=1)
        se = np.std(traces.real, ddof=1) / math.sqrt(len(traces))
        assert abs(np.mean(traces.real)) < 4 * se
        assert abs(np.mean(traces.imag)) < 4 * se

    def test_adjacent_gap_mean(self):
        # ordered adjacent gaps (with wraparound) average to 2 pi / N
        N = 64
        phases = np.sort(haar_phases(N, 1000, rng(11)), axis=1)
        gaps = np.diff(phases, axis=1)
        wrap = 2 * np.pi + phases[:, 0] - phases[:, -1]
        mean_gap = (np.sum(gaps) + np.sum(wrap)) / (1000 * N)
        assert abs(mean_gap - 2 * np.pi / N) < 0.02 * (2 * np.pi / N)

    def test_first_moment_matches_exact(self):
        est = estimate_moment(6, 1.0, 0.5, 20_000, seed=3)
        exact = float(moment_exact(6, 1, 0.25))
        assert abs(est.mean - exact) <= 4 * est.std_error


class TestEval:
    def test_z_zero(self):
        sample = sample_spectrum(5, rng(1))
        lam, dlam = eval_lambda_and_deriv(sample, 0.0)
        assert abs(lam - 1.0) < 1e-14
        assert abs(dlam + np.sum(np.exp(-1j * sample.phases))) < 1e-13

    def test_n1_closed_form(self):
        sample = SpectrumSample(1, np.array([0.0]))
        lam, dlam = eval_lambda_and_deriv(sample, 0.25)
        assert abs(lam - 0.75) < 1e-15
        assert abs(dlam + 1.0) < 1e-15

    def test_finite_difference_oracle(self):
        sample = sample_spectrum(8, rng(2))
        z = 0.4 - 0.3j
        h = 1e-6
        _, dlam = eval_lambda_and_deriv(sample, z)
        plus, _ = eval_lambda_and_deriv(sample, z + h)
        minus, _ = eval_lambda_and_deriv(sample, z - h)
        fd = (plus - minus) / (2 * h)
        assert abs(fd - dlam) <= 1e-5 * abs(dlam)

    def test_log_route_matches_product_route(self):
        sample = sample_spectrum(200, rng(3))
        z = 0.5 + 0.2j
        lam, dlam = eval_lambda_and_deriv(sample, z)
        log_lam, log_dlam = log_abs_lambda_and_deriv(sample, z)
        assert abs(log_lam - math.log(abs(lam))) <= 1e-9 * abs(log_lam)
        assert abs(log_dlam - math.log(abs(dlam))) <= 1e-9 * max(abs(log_dlam), 1)

    def test_collision_raises(self):
        sample = SpectrumSample(2, np.array([0.0, np.pi]))
        with pytest.raises(EigenphaseCollisionError):
            eval_lambda_and_deriv(sample, 1.0 + 1e-16)


class TestEstimators:
    def test_s_zero_exact(self):
        est = estimate_moment(6, 0.0, 0.5, 100, seed=0)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_seed_reproducibility_and_thread_independence(self):
        a = estimate_moment(6, 1.0, 0.5, 4000, seed=42)
        b = estimate_moment(6, 1.0, 0.5, 4000, seed=42, threads=4)
        c = estimate_moment(6, 1.0, 0.5, 4000, seed=43)
        assert a.mean == b.mean and a.std_error == b.std_error
        assert a.mean != c.mean
        assert a.generator == "pcg64" and a.seed == 42

    def test_progress_in_chunk_order(self):
        # N = 10 packs 40000 draws a chunk, so 50000 draws make two chunks.
        reports = {}
        for threads in (1, 2):
            calls = []
            estimate_moment(
                10, 1.0, 0.5, 50_000, seed=7, threads=threads,
                progress=lambda done, total: calls.append((done, total)),
            )
            reports[threads] = calls
        done = [d for d, _ in reports[2]]
        assert len(done) >= 2
        assert all(a < b for a, b in zip(done, done[1:]))
        assert done[-1] == 50_000
        assert all(total == 50_000 for _, total in reports[2])
        assert reports[2] == reports[1]

    def test_rotation_invariance(self):
        z = 0.5 * np.exp(1j * 1.234)
        a = estimate_moment(6, 1.0, z, 20_000, seed=5)
        b = estimate_moment(6, 1.0, 0.5, 20_000, seed=6)
        joint_se = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 4 * joint_se

    def test_variance_scaling(self):
        small = estimate_moment(6, 1.0, 0.5, 10_000, seed=9)
        large = estimate_moment(6, 1.0, 0.5, 20_000, seed=9)
        ratio = small.std_error**2 / large.std_error**2
        assert 2 / 1.2 <= ratio <= 2 * 1.2

    def test_negative_moment_probe(self):
        a = estimate_moment(50, -0.25, 0.5, 5000, seed=1)
        b = estimate_moment(50, -0.25, 0.5, 5000, seed=2)
        for est in (a, b):
            assert math.isfinite(est.mean)
            assert est.std_error / est.mean < 0.05
            assert est.top_contribution_fraction is not None
            assert 0 < est.top_contribution_fraction < 1
        assert abs(a.mean - b.mean) <= 5 * math.hypot(a.std_error, b.std_error)

    def test_joint_trivial(self):
        est = estimate_joint_moment(6, 0.0, 0.0, 0.3, 0.5j, 100, seed=0)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_joint_collapses_to_moment(self):
        # |L'/L|^(2s) |L|^(2s) = |L'|^(2s) pointwise: same seed, same values
        z = 0.4
        a = estimate_joint_moment(6, 1.0, 1.0, z, z, 5000, seed=12)
        b = estimate_moment(6, 1.0, z, 5000, seed=12)
        assert a.mean == b.mean

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            estimate_moment(6, 1.0, 0.5, 1, seed=0)


class TestPolyAndZeros:
    def test_coefficients_invariants(self):
        sample = sample_spectrum(7, rng(4))
        pc = poly_coeffs(sample)
        assert pc.degree == 7
        assert abs(pc.coefficients[0] - 1.0) < 1e-12
        assert abs(abs(pc.coefficients[-1]) - 1.0) < 1e-12

    def test_coefficients_evaluate_to_product(self):
        sample = sample_spectrum(6, rng(5))
        z = 0.3 + 0.1j
        direct, _ = eval_lambda_and_deriv(sample, z)
        via_coeffs = np.polyval(poly_coeffs(sample).coefficients[::-1], z)
        assert abs(direct - via_coeffs) < 1e-12

    def test_n1_has_no_zeros(self):
        sample = SpectrumSample(1, np.array([1.0]))
        for r in (0.1, 0.5, 0.9):
            assert count_zeros_inside(sample, r) == 0

    def test_count_bounded_and_monotone(self):
        sample = sample_spectrum(9, rng(6))
        counts = [count_zeros_inside(sample, r) for r in (0.2, 0.5, 0.8, 0.97)]
        assert all(0 <= c <= 8 for c in counts)
        assert counts == sorted(counts)

    def test_boundary_warning(self):
        sample = sample_spectrum(6, rng(8))
        lam = poly_coeffs(sample).coefficients
        deriv = lam[1:] * np.arange(1, 7)
        roots = np.roots(deriv[::-1])
        target = sorted(abs(roots))[0]
        if not 0 < target < 1:
            pytest.skip("no interior root in this draw")
        with pytest.warns(UserWarning, match="within 1e-8"):
            count_zeros_inside(sample, float(target) + 5e-9)

    def test_mean_zero_counts_columns(self):
        radii = [0.3, math.sqrt(0.5)]
        estimates = mean_zero_counts(10, radii, 1000, seed=3)
        assert len(estimates) == 2
        assert estimates[0].mean <= estimates[1].mean
        assert all(isinstance(e, MomentEstimate) for e in estimates)

    def test_mean_zero_counts_thread_determinism(self):
        a = mean_zero_counts(8, [0.5], 600, seed=4)[0]
        b = mean_zero_counts(8, [0.5], 600, seed=4, threads=3)[0]
        assert a.mean == b.mean and a.std_error == b.std_error
