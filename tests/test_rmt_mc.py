import math
import warnings

import numpy as np
import pytest
import scipy.stats

from cuederiv import rmt_mc
from cuederiv.errors import CapabilityError
from cuederiv.exact_moments import moment_exact
from cuederiv.rmt_mc import (
    MomentEstimate,
    estimate_joint_moment,
    estimate_moment,
    mean_zero_counts,
)
from oracles import (
    eigenphase_lambda_and_deriv,
    haar_phases,
    szego_scaled_every_step,
    verblunsky_cexp,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestSampler:
    def test_shapes_and_range(self):
        phases = haar_phases(8, 50, rng())
        assert phases.shape == (50, 8)
        assert np.all(phases >= 0) and np.all(phases < 2 * np.pi)

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


ULP = 2.0**-52  # of a unit coefficient; the tolerances below are in ULP * |alpha_k|
_EXTENDED = np.finfo(np.longdouble).nmant >= 63
_PI = np.longdouble("3.14159265358979323846264338327950288")


def _phases_extended(u):
    """(cos 2 pi u, sin 2 pi u) in long double, about 2^-63 from the true values."""
    angle = 2 * _PI * np.asarray(u, dtype=np.longdouble)
    return np.cos(angle), np.sin(angle)


def _ulps(alpha, re, im, modulus):
    return np.hypot(np.asarray(alpha.real - re, dtype=float),
                    np.asarray(alpha.imag - im, dtype=float)) / (ULP * modulus)


class _Uniforms:
    """A stand-in generator whose `random` fills its output with given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, out):
        if out.size:
            out[...] = self.values.reshape(out.shape)
        return out


class TestVerblunsky:
    # Fixed before the first run: seeds 3400 + N, and the bounds.  The complex
    # exponential form (tests/oracles.py) rounds 2 pi u, which costs up to about
    # 3.1 ULP of the angle at u near 1, and then rounds its exp and product: up
    # to about 4.6 ULP; with this sampler's 2 ULP, they may differ by 6 ULP.
    @pytest.mark.parametrize("N, count", [(1, 20_000), (2, 20_000), (6, 20_000), (60, 2000),
                                          (1100, 100)])
    def test_matches_the_complex_exponential_and_the_extended_reference(self, N, count):
        fast, slow, plain = rng(3400 + N), rng(3400 + N), rng(3400 + N)
        alpha, reference = rmt_mc._verblunsky(N, count, fast), verblunsky_cexp(N, count, slow)
        assert fast.bit_generator.state == slow.bit_generator.state
        assert alpha.shape == (count, N) and alpha.dtype == complex
        assert np.all(np.abs(alpha - reference) <= 6 * ULP * np.abs(reference))
        assert np.all(np.abs(np.abs(alpha[:, -1]) - 1) <= 2 * ULP)
        if _EXTENDED:
            v, u = 1.0 - plain.random((count, N - 1)), plain.random((count, N))
            modulus = np.ones((count, N))
            modulus[:, :-1] = np.sqrt(-np.expm1(np.log(v) / np.arange(N - 1, 0, -1)))
            cos, sin = _phases_extended(u)
            assert np.all(_ulps(alpha, modulus * cos, modulus * sin, modulus) <= 2)

    def test_phase_at_ties_quarter_turns_and_the_wrap(self):
        # q = rint(4u) rounds half to even at u = 1/8, 3/8, 5/8, 7/8 (q = 4 at
        # 7/8, which is i^0), and 1 - 2^-53 wraps from q = 4 to the phase
        # exp(-2 pi i 2^-53).
        u = np.array([k / 8 for k in range(8)] + [1 - 2.0**-53])
        alpha = rmt_mc._verblunsky(1, len(u), _Uniforms(u))[:, 0]
        assert alpha[[0, 2, 4, 6]].tolist() == [1, 1j, -1, -1j]
        assert np.all(np.abs(np.abs(alpha) - 1) <= 2 * ULP)
        assert alpha[-1].real == 1 and -2 * math.pi * 2.0**-53 * (1 + ULP) < alpha[-1].imag < 0
        if _EXTENDED:
            cos, sin = _phases_extended(u)
            assert np.all(_ulps(alpha, cos, sin, 1.0) <= 2)

    def test_law_of_the_coefficients(self):
        # Seed 3460 and the 1% level fixed before the first run.  The last
        # coefficient's phase is uniform, and |alpha_k|^2 is Beta(1, N-k-1).
        N = 6
        alpha = rmt_mc._verblunsky(N, 20_000, rng(3460))
        turns = np.angle(alpha[:, -1]) / (2 * np.pi) % 1.0
        assert scipy.stats.kstest(turns, "uniform").pvalue > 0.01
        for k in (0, N - 2):
            beta = scipy.stats.kstest(np.abs(alpha[:, k]) ** 2, "beta", args=(1, N - k - 1))
            assert beta.pvalue > 0.01


class TestEval:
    # The eigenphase product form is TestSzego's oracle; these pin it down.
    def test_z_zero(self):
        phases = haar_phases(5, 1, rng(1))[0]
        lam, dlam = eigenphase_lambda_and_deriv(phases, 0.0)
        assert abs(lam - 1.0) < 1e-14
        assert abs(dlam + np.sum(np.exp(-1j * phases))) < 1e-13

    def test_n1_closed_form(self):
        lam, dlam = eigenphase_lambda_and_deriv([0.0], 0.25)
        assert abs(lam - 0.75) < 1e-15
        assert abs(dlam + 1.0) < 1e-15

    def test_finite_difference_oracle(self):
        phases = haar_phases(8, 1, rng(2))[0]
        z = 0.4 - 0.3j
        h = 1e-6
        _, dlam = eigenphase_lambda_and_deriv(phases, z)
        plus, _ = eigenphase_lambda_and_deriv(phases, z + h)
        minus, _ = eigenphase_lambda_and_deriv(phases, z - h)
        fd = (plus - minus) / (2 * h)
        assert abs(fd - dlam) <= 1e-5 * abs(dlam)


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
        assert a.generator == "pcg64/verblunsky" and a.seed == 42
        # N = 60 packs 1111 draws a chunk, so 4000 draws make four chunks.
        j1 = estimate_joint_moment(60, 1.0, 1.0, 0.3, 0.5j, 4000, seed=42)
        j4 = estimate_joint_moment(60, 1.0, 1.0, 0.3, 0.5j, 4000, seed=42, threads=4)
        assert j1.mean == j4.mean and j1.std_error == j4.std_error

    def test_overflowing_values_are_capability_error(self):
        with pytest.raises(CapabilityError, match="overflow"):
            estimate_moment(200, 40.0, 0.99, 100, seed=1)

    def test_overflowing_mean_is_capability_error(self, monkeypatch):
        # Every value is finite, but their sum is not.
        monkeypatch.setattr(rmt_mc, "_run_chunks", lambda *args: (np.full(10, 1e308), 0))
        with pytest.raises(CapabilityError, match="overflow"):
            estimate_moment(6, 1.0, 0.5, 10, seed=0)

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

    def test_joint_on_unit_circle(self):
        est = estimate_joint_moment(6, 0, 1, 0.3, 1.0, 2000, seed=5)
        assert math.isfinite(est.mean)
        assert isinstance(est.resampled, int) and est.resampled >= 0

    def test_unresolved_draws_are_redrawn(self, monkeypatch):
        # Phi_1(z) = z - conj(alpha_0) vanishes at z2 = 1 when alpha_0 = 1.
        draw = rmt_mc._verblunsky
        calls = []

        def colliding_first(N, count, rng):
            calls.append(count)
            alpha = draw(N, count, rng)
            if len(calls) == 1:
                alpha[:3] = 1.0
            return alpha

        monkeypatch.setattr(rmt_mc, "_verblunsky", colliding_first)
        est = estimate_joint_moment(1, 0.0, 1.0, 0.3, 1.0, 10, seed=0)
        assert est.resampled == 3 and math.isfinite(est.mean)

        monkeypatch.setattr(
            rmt_mc, "_verblunsky", lambda N, count, rng: np.ones((count, N), dtype=complex)
        )
        with pytest.raises(CapabilityError, match="eigenvalue"):
            estimate_joint_moment(1, 0.0, 1.0, 0.3, 1.0, 10, seed=0)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            estimate_moment(6, 1.0, 0.5, 1, seed=0)
        for N in (1, 10):
            with pytest.raises(ValueError, match="requires samples >= 2"):
                mean_zero_counts(N, [0.5], 1, seed=0)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_nonpositive_threads_is_refused(self, threads):
        # -2 was ThreadPoolExecutor's error, which did not name threads; 0 ran one thread
        message = f"requires threads >= 1, got threads = {threads}"
        with pytest.raises(ValueError, match=message):
            estimate_moment(6, 1.0, 0.3, 10, seed=0, threads=threads)
        with pytest.raises(ValueError, match=message):
            estimate_joint_moment(6, 1.0, 1.0, 0.3, 0.5j, 10, seed=0, threads=threads)
        with pytest.raises(ValueError, match=message):
            mean_zero_counts(6, [0.5], 10, seed=0, threads=threads)

    @pytest.mark.parametrize("N", [0, -3])
    def test_nonpositive_N_is_refused(self, N):
        # N = 0 divided by zero in the chunk layout
        message = f"requires N >= 1, got N = {N}"
        with pytest.raises(ValueError, match=message):
            estimate_moment(N, 1.0, 0.3, 10, seed=0)
        with pytest.raises(ValueError, match=message):
            estimate_joint_moment(N, 1.0, 1.0, 0.3, 0.5j, 10, seed=0)
        with pytest.raises(ValueError, match=message):
            mean_zero_counts(N, [0.5], 10, seed=0)

    def test_nan_exponent_is_refused(self):
        # a nan exponent was reported as a float overflow
        with pytest.raises(ValueError, match="requires finite s, got s = nan"):
            estimate_moment(6, math.nan, 0.3, 10, seed=0)
        with pytest.raises(ValueError, match="requires finite h, got h = nan"):
            estimate_joint_moment(6, 1.0, math.nan, 0.3, 0.5j, 10, seed=0)
        with pytest.raises(ValueError, match="requires finite s, got s = nan"):
            estimate_joint_moment(6, math.nan, 1.0, 0.3, 0.5j, 10, seed=0)

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0, math.inf)])
    def test_non_finite_point_is_refused(self, z):
        # each was reported as a float overflow
        with pytest.raises(ValueError, match="requires finite z, got z = "):
            estimate_moment(6, 1.0, z, 10, seed=0)
        with pytest.raises(ValueError, match="requires finite z1, got z1 = "):
            estimate_joint_moment(6, 1.0, 1.0, z, 0.5j, 10, seed=0)
        with pytest.raises(ValueError, match="requires finite z2, got z2 = "):
            estimate_joint_moment(6, 1.0, 1.0, 0.3, z, 10, seed=0)

    def test_empty_radius_list_is_refused(self):
        with pytest.raises(ValueError, match="radii must name at least one radius"):
            mean_zero_counts(6, [], 10, seed=0)

    @pytest.mark.parametrize("radii, shown", [("0.5", "'0.5'"), (0.5, "0.5")])
    def test_radii_that_are_no_sequence_are_refused_by_name(self, radii, shown):
        # a str was walked by its characters (could not convert string to
        # float: '.'), and a float was a TypeError: 'float' object is not iterable
        message = f"^requires a sequence of radii, got radii = {shown}$"
        with pytest.raises(ValueError, match=message):
            mean_zero_counts(5, radii, 10, 0)


def szego_coefficients(alpha):
    """Coefficients of Phi_N, constant term first, by Szego's recursion."""
    phi = np.array([1.0 + 0j])
    for a in alpha:
        star = np.conj(phi[::-1])
        phi = np.concatenate([[0], phi]) - np.conj(a) * np.concatenate([star, [0]])
    return phi


class TestSzego:
    @pytest.mark.parametrize(
        "alpha",
        [
            [np.exp(0.4j)],
            [0.5 - 0.2j, np.exp(2.0j)],
            [0.3, -0.2 + 0.4j, 0.5j, -0.6, 0.1 + 0.1j, 0.7 * np.exp(1j), -0.25j,
             np.exp(-1.3j)],
        ],
        ids=["N1", "N2", "N8"],
    )
    def test_recursion_matches_eigenphase_product(self, alpha):
        roots = np.roots(szego_coefficients(alpha)[::-1])
        assert np.allclose(np.abs(roots), 1.0, atol=1e-12)
        phases = np.angle(roots)
        points = [0.0, 0.3 + 0.2j, -0.8j, np.exp(0.9j), -1.0, 1.7 - 0.4j]
        log_phi, log_dphi, unresolved = rmt_mc._szego(np.array([alpha]), points)
        assert not np.any(unresolved)
        for i, z in enumerate(points):
            lam, dlam = eigenphase_lambda_and_deriv(phases, z)
            assert abs(math.exp(log_phi[i, 0]) - abs(lam)) <= 1e-10 * max(1.0, abs(lam))
            assert abs(math.exp(log_dphi[i, 0]) - abs(dlam)) <= 1e-10 * max(1.0, abs(dlam))

    def test_zero_on_the_circle_is_flagged(self):
        alpha = np.array([[np.exp(0.7j)]])
        log_phi, _, unresolved = rmt_mc._szego(alpha, [0.3, np.conj(alpha[0, 0])])
        assert unresolved.tolist() == [[False], [True]]
        assert log_phi[1, 0] == -math.inf

    def test_large_n_stays_finite(self):
        alpha = rmt_mc._verblunsky(3000, 4, rng(13))
        points = [0.5, 1.0, 2.0, 1e12, 1 + 1e-12, 1e24]
        log_phi, log_dphi, _ = rmt_mc._szego(alpha, points)
        assert np.all(np.isfinite(log_phi)) and np.all(np.isfinite(log_dphi))
        # 1 = (|z| - 1)^N <= |Phi_N(z)| <= (|z| + 1)^N at z = 2, past 1e308
        assert np.all(log_phi[2] >= -1e-9) and np.all(log_phi[2] <= 3000 * math.log(3.0))
        assert np.all(log_phi[2] > math.log(1e308))
        # The same bounds put log|Phi_N| within N/|z| of N log|z| at z = 1e12
        # and 1e24, where Phi_k passes 1e308 within 26 and 13 steps of its last
        # renormalisation.
        for i in (3, 5):
            assert np.allclose(log_phi[i], 3000 * math.log(points[i]), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("N, haar_draws", [(6, 4000), (60, 1000)])
    def test_samplers_agree_in_distribution(self, N, haar_draws):
        z = 0.5
        w = np.exp(-1j * haar_phases(N, haar_draws, rng(21)))
        factors = 1.0 - z * w
        log_lam = np.sum(np.log(np.abs(factors)), axis=1)
        log_dlam = log_lam + np.log(np.abs(np.sum(-w / factors, axis=1)))
        log_phi, log_dphi, _ = rmt_mc._szego(rmt_mc._verblunsky(N, 20_000, rng(22)), [z])
        assert scipy.stats.ks_2samp(log_lam, log_phi[0]).pvalue > 0.01
        assert scipy.stats.ks_2samp(log_dlam, log_dphi[0]).pvalue > 0.01


def bits(values):
    """The bit patterns of a float or complex array, for exact comparison."""
    values = np.asarray(values)
    return values.view(np.int64) if values.dtype.kind in "fc" else values


SZEGO_POINTS = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.97, 1 - 1e-12, np.exp(0.9j), -1.0,
                         1 + 1e-12, 1.7 - 0.4j, 2.0, 1e12, 1e24])


class TestSzegoRenormalisation:
    """_szego_scaled renormalises only where its bound requires; every output
    must equal, bit for bit, the recursion renormalised at every step.  The
    `second` cases hold the zero counter's coefficient route to the same
    recursion carrying Phi_N'': the phase of Phi_N' within 1e-11 and the rate
    Re(z Phi_N'' / Phi_N') within 1e-10 of |z Phi_N'' / Phi_N'|."""

    @staticmethod
    def assert_bit_identical(alpha, z):
        fast = rmt_mc._szego_scaled(alpha, z)
        phi, dphi, _, exponent, unresolved = szego_scaled_every_step(alpha, z)
        for name, x, y in zip(["phi", "dphi", "exponent", "unresolved"], fast,
                              [phi, dphi, exponent, unresolved]):
            assert np.array_equal(bits(x), bits(y)), name

    @staticmethod
    def route_errors(alpha, z, dphi, z_ddphi):
        """Phase error of Phi_N' and rate error over |z Phi_N'' / Phi_N'|
        against the every-step recursion at the points z (shape (P, 1) or
        (P, B)), for route values of shape (P, B)."""
        _, exact, exact_second, _, _ = szego_scaled_every_step(alpha, z, second=True)
        quotient = z * exact_second / exact
        phase = np.abs(np.angle(dphi * exact.conj()))
        rate = np.abs(np.real(z_ddphi / dphi) - quotient.real)
        return phase, rate, np.abs(quotient)

    def circle_errors(self, alpha, radii):
        """route_errors on the FFT samples of each circle, with the floor."""
        M = max(alpha.shape[1], 32)
        dphi, z_ddphi, floor, _ = rmt_mc._circle_samples(alpha, radii, M)
        points = np.exp(2j * np.pi * np.arange(M) / M)[:, None]
        for i, r in enumerate(radii):
            yield self.route_errors(alpha, r * points, dphi[i].T, z_ddphi[i].T) + (
                np.abs(dphi[i].T) > floor[i],)

    def assert_coefficient_route_matches(self, alpha):
        radii = np.array([0.1, 0.5, 0.9, 0.97])
        for phase, rate, size, resolved in self.circle_errors(alpha, radii):
            assert np.all(resolved)
            assert np.all(phase <= 1e-11) and np.all(rate <= 1e-10 * size)
        # Horner's rule at the points in the closed disc, each for every draw.
        points = SZEGO_POINTS[np.abs(SZEGO_POINTS) <= 1]
        B, N = alpha.shape
        _, _, _, rows = rmt_mc._circle_samples(alpha, np.array([0.5]), max(N, 32))
        draw = np.tile(np.arange(B), len(points))
        dphi, z_ddphi = rmt_mc._horner(rows, draw, np.repeat(points, B))
        phase, rate, size = self.route_errors(alpha, points[:, None], dphi.reshape(-1, B),
                                              z_ddphi.reshape(-1, B))
        assert np.all(phase <= 1e-11) and np.all(rate <= 1e-10 * size)

    @pytest.mark.parametrize("second", [False, True])
    @pytest.mark.parametrize("N", [1, 2, 6, 25, 100, 300])
    def test_matches_every_step_renormalisation(self, N, second):
        alpha = rmt_mc._verblunsky(N, 5, rng(900 + N))
        if second:
            self.assert_coefficient_route_matches(alpha)
            return
        for points in (SZEGO_POINTS, SZEGO_POINTS[:4], SZEGO_POINTS[4:8], SZEGO_POINTS[-3:]):
            self.assert_bit_identical(alpha, points[:, None])
        # One point per draw.
        self.assert_bit_identical(alpha, SZEGO_POINTS[None, 3:8])

    @pytest.mark.parametrize("second", [False, True])
    def test_matches_with_coefficients_next_to_the_circle(self, second):
        # |alpha_k| = 1 - 2^-53: on the circle each step can shrink the values
        # by a factor of 2^-53, so the bound renormalises every few steps.
        phases = rng(31).uniform(0.0, 2 * np.pi, (3, 400))
        alpha = (1 - 2.0**-53) * np.exp(1j * phases)
        if not second:
            self.assert_bit_identical(alpha, SZEGO_POINTS[:, None])
            return
        # The coefficients lose the small values of Phi_N' from r = 0.5 on, so
        # the counter must leave circles uncertified rather than miscount;
        # at r = 0.1 nothing is lost.
        radii = np.array([0.1, 0.5, 0.9, 0.97])
        phase, _, _, resolved = next(self.circle_errors(alpha, radii[:1]))
        assert np.all(resolved) and np.all(phase <= 1e-11)
        counts, uncertified = rmt_mc._winding_counts(alpha, radii)
        expected = eigenphase_counts(alpha, radii)
        assert np.array_equal(counts[~uncertified], expected[~uncertified])

    def test_renormalises_only_where_the_bound_requires(self):
        alpha_abs = np.full((100, 2), 0.5)
        steps = rmt_mc._renormalised_steps(alpha_abs, np.array([[0.5], [0.9]]))
        assert steps == [False] * 99 + [True]
        # Growth by (1 + 1/2) 1e12 = 2^40.4 a step: at most six steps apart.
        steps = rmt_mc._renormalised_steps(alpha_abs, np.array([[1e12]]))
        assert np.flatnonzero(steps).tolist() == list(range(5, 99, 6)) + [99]
        # On the circle, |alpha_40| = 1 allows a shrink to 0: step 40 starts
        # from renormalised values and renormalises at once.
        alpha_abs[40] = 1.0
        steps = rmt_mc._renormalised_steps(alpha_abs, np.array([[1.0]]))
        assert np.flatnonzero(steps).tolist() == [39, 40, 99]


class TestSeededOutputs:
    """Seeded Monte Carlo results, bit for bit (float.hex), for one and two
    threads."""

    @pytest.mark.parametrize("threads", [None, 2])
    def test_zero_counts(self, threads):
        estimates = mean_zero_counts(25, [0.5, 0.7071], 1200, seed=11, threads=threads)
        assert [(e.mean.hex(), e.std_error.hex(), e.fallback) for e in estimates] == [
            ("0x1.53a06d3a06d3ap-1", "0x1.2ef7bdfd9f93ap-6", 0),
            ("0x1.fd70a3d70a3d7p+0", "0x1.b94faf0adfb4bp-6", 0),
        ]

    @pytest.mark.parametrize("threads", [None, 2])
    def test_moment(self, threads):
        est = estimate_moment(6, 2, 0.6, 20000, 3, threads=threads)
        assert (est.mean.hex(), est.std_error.hex(), est.top_contribution_fraction.hex(),
                est.resampled) == (
            "0x1.f4686352e98b8p+7", "0x1.d52b3f399223cp+4", "0x1.60eb928f1c9cdp-1", 0)

    @pytest.mark.parametrize("threads", [None, 2])
    def test_joint_moment(self, threads):
        est = estimate_joint_moment(60, 1, 1, 0.3, 0.5j, 400, 5, threads=threads)
        assert (est.mean.hex(), est.std_error.hex(), est.top_contribution_fraction.hex(),
                est.resampled) == (
            "0x1.04577602ef5f3p+1", "0x1.41c1b3bc54ec6p-3", "0x1.e793eaa6ad040p-4", 0)


class TestPolyAndZeros:
    def test_n1_has_no_zeros(self):
        for est in mean_zero_counts(1, (0.1, 0.5, 0.9), 10, seed=0):
            assert est.mean == 0.0

    def test_count_bounded_and_monotone(self):
        means = [est.mean for est in mean_zero_counts(9, (0.2, 0.5, 0.8, 0.97), 200, seed=6)]
        assert all(0 <= m <= 8 for m in means)
        assert means == sorted(means)

    def test_boundary_warning(self, monkeypatch):
        # A certifier that rejects every arc sends every draw to the eigenphase
        # route, where a root 5e-9 outside |z| = 0.5 is counted outside, with a
        # warning.
        monkeypatch.setattr(rmt_mc, "_ARC_PHASE_LIMIT", -1.0)
        monkeypatch.setattr(rmt_mc, "_BISECTION_DEPTH", 0)
        moduli = np.array([[0.2, 0.5 + 5e-9, 0.9]])
        monkeypatch.setattr(
            rmt_mc, "_critical_point_moduli",
            lambda phases: np.repeat(moduli, len(phases), axis=0),
        )
        with pytest.warns(UserWarning, match="within 1e-8"):
            (est,) = mean_zero_counts(4, [0.5], 3, seed=0)
        assert est.mean == 1.0 and est.fallback == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (est,) = mean_zero_counts(4, [0.6], 3, seed=0)
        assert est.mean == 2.0 and est.fallback == 3

    def test_forced_fallback_gives_the_same_counts(self, monkeypatch):
        radii = [0.3, 0.7071, 0.97]
        natural = mean_zero_counts(16, radii, 400, seed=8)
        assert all(est.generator == "pcg64/verblunsky" for est in natural)
        monkeypatch.setattr(rmt_mc, "_ARC_PHASE_LIMIT", -1.0)
        monkeypatch.setattr(rmt_mc, "_BISECTION_DEPTH", 0)
        forced = mean_zero_counts(16, radii, 400, seed=8)
        assert [est.fallback for est in forced] == [400] * 3
        assert [est.mean for est in forced] == [est.mean for est in natural]
        assert [est.std_error for est in forced] == [est.std_error for est in natural]

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


# Every certified winding count must equal the eigenphase count on the same
# Verblunsky coefficients, over about 12k draws.  The class runs in about 9 s
# on one core (budget 20 s), half of it the eigenvalues at N = 300 and 1100;
# fewer draws at large N keep it there.
WINDING_RADII = (0.1, 0.3, 0.5, 0.7071, 0.9, 0.97)
WINDING_DRAWS = [(2, 2000), (3, 2000), (4, 2000), (5, 2000), (7, 1000), (10, 800),
                 (16, 500), (25, 300), (40, 150), (60, 100), (100, 50)]


def eigenphase_counts(alpha, radii):
    """Zeros of Phi_N' inside each radius from the eigenphases, shape (B, R)."""
    moduli = rmt_mc._critical_point_moduli(rmt_mc._ggt_phases(alpha))
    return np.stack([np.sum(moduli < r, axis=1) for r in radii], axis=1)


class TestWindingCounts:
    @pytest.mark.parametrize("N, draws", WINDING_DRAWS + [(300, 10)])
    def test_certified_counts_match_eigenphases(self, N, draws):
        alpha = rmt_mc._verblunsky(N, draws, rng(500 + N))
        counts, uncertified = rmt_mc._winding_counts(alpha, WINDING_RADII)
        expected = eigenphase_counts(alpha, WINDING_RADII)
        assert np.array_equal(counts[~uncertified], expected[~uncertified])
        assert np.mean(uncertified) < 0.05

    def test_large_n_coefficients_are_renormalised(self):
        # alpha_k = conj(zeta_k) lambda_k, lambda_k = prod_(i<k) -conj(zeta_i),
        # gives Phi_N = prod (z - zeta_k) when |alpha_k| = 1; at |alpha_k| =
        # 1 - 2^-53 the zeros move by far less than the radii need.  Growth by
        # up to 2 a step makes the bound renormalise every few steps.  With
        # zeta_k uniform on the circle (so the alpha_k phases are too) the
        # coefficients stay near 2^76 at N = 1100; with zeta_k on half the
        # circle they pass 2^1024 at N = 1300 and overflow unless rescaled.
        def draws(low, high, shape, seed):
            zeta = np.exp(1j * rng(seed).uniform(low, high, shape))
            lam = np.cumprod(np.concatenate([np.ones(shape[:-1] + (1,)), -zeta[..., :-1].conj()],
                                            axis=-1), axis=-1)
            return zeta, (1 - 2.0**-53) * zeta.conj() * lam

        zeta, alpha = draws(0.0, 2 * np.pi, (2, 1100), 41)
        assert sum(rmt_mc._renormalised_steps(np.abs(alpha.T), np.ones(1))) > 1100 // 10
        counts, uncertified = rmt_mc._winding_counts(alpha, WINDING_RADII)
        moduli = rmt_mc._critical_point_moduli(np.angle(zeta))
        expected = np.stack([np.sum(moduli < r, axis=1) for r in WINDING_RADII], axis=1)
        assert np.array_equal(counts[~uncertified], expected[~uncertified])
        assert not np.any(uncertified[:, 0])
        _, alpha = draws(-np.pi / 2, np.pi / 2, (1300,), 43)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(szego_coefficients(alpha)))
        taylor = rmt_mc._taylor_coefficients(alpha[None, :])
        assert np.all(np.isfinite(taylor)) and np.max(np.abs(taylor)) > 0

    @pytest.mark.parametrize("N, draws", WINDING_DRAWS)
    def test_ggt_eigenvalues_are_zeros_of_phi(self, N, draws):
        alpha = rmt_mc._verblunsky(N, min(draws, 100), rng(700 + N))
        eigenvalues = np.exp(1j * rmt_mc._ggt_phases(alpha))
        for row, points in zip(alpha, eigenvalues):
            log_phi, _, _ = rmt_mc._szego(row[None, :], points)
            assert np.all(log_phi < -25)
