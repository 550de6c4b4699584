"""Monte Carlo ground truth over Haar-distributed unitary matrices.

The moment estimators draw CUE(N) through its Verblunsky coefficients, which
are independent (Killip & Nenciu, IMRN 2004): for k < N-1, |alpha_k|^2 is
Beta(1, N-k-1) with a uniform phase, and alpha_(N-1) is uniform on the unit
circle.  Szego's recursion then gives Phi_N(z) = det(z - U) and Phi_N'(z) in
O(N) per draw and point, with |Lambda_N| = |Phi_N| and |Lambda_N'| = |Phi_N'|
since |det U| = 1.  Zero counts still need eigenphases: they draw a complex
Ginibre matrix, take its QR decomposition and fix the R-diagonal phases (plain
QR is not Haar), then extract eigenphases.  Estimators work in fixed-size
chunks, each chunk owning a generator derived from (seed, chunk index), so
results are reproducible for any thread count.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import EigenphaseCollisionError

GENERATOR_NAME = "pcg64"
MOMENT_GENERATOR_NAME = "pcg64/verblunsky"
COLLISION_TOLERANCE = 1e-14
_CHUNK_ELEMENT_BUDGET = 4_000_000


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenphases of a single Haar-unitary draw."""

    N: int
    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        if phases.shape != (self.N,):
            raise ValueError(f"expected {self.N} phases, got shape {phases.shape}")
        if np.any(phases < 0) or np.any(phases >= 2 * np.pi):
            raise ValueError("phases must lie in [0, 2*pi)")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean with its standard error and reproducibility record."""

    mean: float
    std_error: float
    samples: int
    seed: int
    generator: str = GENERATOR_NAME
    top_contribution_fraction: float | None = None
    resampled: int = 0


@dataclass(frozen=True)
class PolyCoeffs:
    """Coefficients of the characteristic polynomial, constant term first."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", coeffs)
        if abs(coeffs[0] - 1.0) > 1e-9:
            raise ValueError("constant term of the characteristic polynomial must be 1")
        if abs(abs(coeffs[-1]) - 1.0) > 1e-9:
            raise ValueError("leading coefficient must have modulus 1")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def default_thread_count() -> int:
    env = os.environ.get("CUEDERIV_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer CUEDERIV_THREADS={env!r}")
    return 1


def haar_phases(N: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenphases of `count` independent Haar unitaries, shape (count, N)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    real = rng.standard_normal((count, N, N))
    imag = rng.standard_normal((count, N, N))
    ginibre = (real + 1j * imag) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.einsum("...ii->...i", r)
    q = q * (diag / np.abs(diag))[:, None, :]
    eigenvalues = np.linalg.eigvals(q)
    return np.mod(np.angle(eigenvalues), 2 * np.pi)


def sample_spectrum(N: int, rng: np.random.Generator) -> SpectrumSample:
    """One CUE spectrum via the Ginibre-QR route with phase correction."""
    return SpectrumSample(N, haar_phases(N, 1, rng)[0])


def eval_lambda_and_deriv(sample: SpectrumSample, z: complex) -> tuple[complex, complex]:
    """(Lambda(z), Lambda'(z)) from the eigenphase product form.

    Raises EigenphaseCollisionError when z is within 1e-14 of an eigenvalue,
    where the log-derivative sum is meaningless.
    """
    w = np.exp(-1j * sample.phases)
    factors = 1.0 - complex(z) * w
    if np.min(np.abs(factors)) < COLLISION_TOLERANCE:
        raise EigenphaseCollisionError(f"z = {z} collides with an eigenphase")
    lam = complex(np.prod(factors))
    log_deriv = complex(np.sum(-w / factors))
    return lam, lam * log_deriv


def log_abs_lambda_and_deriv(sample: SpectrumSample, z: complex) -> tuple[float, float]:
    """(log|Lambda(z)|, log|Lambda'(z)|) via sums of logs; safe at large N."""
    w = np.exp(-1j * sample.phases)
    factors = 1.0 - complex(z) * w
    if np.min(np.abs(factors)) < COLLISION_TOLERANCE:
        raise EigenphaseCollisionError(f"z = {z} collides with an eigenphase")
    log_lam = float(np.sum(np.log(np.abs(factors))))
    log_deriv_sum = math.log(abs(complex(np.sum(-w / factors))))
    return log_lam, log_lam + log_deriv_sum


def _chunk_layout(N: int, samples: int) -> list[tuple[int, int]]:
    """Deterministic (chunk_index, chunk_size) layout; independent of workers."""
    chunk = max(1, min(65536, _CHUNK_ELEMENT_BUDGET // (N * N)))
    layout = []
    index = 0
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        layout.append((index, size))
        done += size
        index += 1
    return layout


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    )


def _run_chunks(N, samples, seed, threads, worker, progress=None):
    """Map `worker(size, rng)` over deterministic chunks, in chunk order.

    Progress is reported from the calling thread as results arrive in chunk
    order, so the sequence of `done` counts does not depend on `threads`.
    """
    layout = _chunk_layout(N, samples)

    def run(entry):
        index, size = entry
        return worker(size, _chunk_rng(seed, index))

    threads = threads or default_thread_count()
    parts = []
    done = 0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = pool.map(run, layout) if threads > 1 else map(run, layout)
        for (_, size), part in zip(layout, results):
            parts.append(part)
            done += size
            if progress is not None:
                progress(done, samples)
    return parts


def _verblunsky(N: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Verblunsky coefficients of `count` CUE(N) draws, shape (count, N).

    |alpha_k|^2 = 1 - v^(1/(N-k-1)) with v uniform on (0, 1] is Beta(1, N-k-1);
    the last coefficient has modulus 1.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    v = 1.0 - rng.random((count, N - 1))
    modulus = np.ones((count, N))
    modulus[:, :-1] = np.sqrt(-np.expm1(np.log(v) / np.arange(N - 1, 0, -1)))
    return modulus * np.exp(2j * np.pi * rng.random((count, N)))


def _szego(alpha: np.ndarray, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log|Phi_N(z)|, log|Phi_N'(z)|, unresolved) per point and draw, shape (P, B).

    Runs Szego's recursion Phi_(k+1) = z Phi_k - conj(alpha_k) Phi_k^*,
    Phi_(k+1)^* = Phi_k^* - alpha_k z Phi_k and its z-derivative from
    Phi_0 = Phi_0^* = 1, for each row of `alpha` (shape (B, N)) and each z in
    `points`.  Every step divides all four values by the power of two that
    brings max(|Phi_k|, |Phi_k^*|) into [1/2, 1), which is exact, and carries
    the exponent, so large N cannot overflow.  `unresolved` marks a Phi_N(z) within
    COLLISION_TOLERANCE of zero relative to the two terms of the last step,
    i.e. z on an eigenvalue.
    """
    alpha = np.ascontiguousarray(np.transpose(alpha))
    z = np.asarray(points, dtype=complex)[:, None]
    shape = (len(z), alpha.shape[1])
    phi = np.ones(shape, dtype=complex)
    phi_star = np.ones(shape, dtype=complex)
    dphi = np.zeros(shape, dtype=complex)
    dphi_star = np.zeros(shape, dtype=complex)
    exponent = np.zeros(shape, dtype=np.int64)
    for k, a in enumerate(alpha, start=1):
        a_conj = a.conj()
        z_phi = z * phi
        dz_phi = phi + z * dphi
        if k == len(alpha):
            cancelled = np.abs(z_phi) + np.abs(phi_star)
        phi, phi_star = z_phi - a_conj * phi_star, phi_star - a * z_phi
        dphi, dphi_star = dz_phi - a_conj * dphi_star, dphi_star - a * dz_phi
        _, e = np.frexp(np.maximum(np.abs(phi), np.abs(phi_star)))
        scale = np.ldexp(1.0, -e)
        phi *= scale
        phi_star *= scale
        dphi *= scale
        dphi_star *= scale
        exponent += e
    unresolved = np.abs(phi) < COLLISION_TOLERANCE * cancelled * scale
    shift = exponent * math.log(2.0)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(phi)) + shift, np.log(np.abs(dphi)) + shift, unresolved


def _collect_values(N, samples, seed, threads, evaluate, progress=None):
    """Evaluate per-draw statistics from Verblunsky coefficients, redrawing
    the draws that `evaluate` flags as unresolved."""

    def worker(size, rng):
        alpha = _verblunsky(N, size, rng)
        values, bad = evaluate(alpha)
        resampled = 0
        attempts = 0
        while np.any(bad):
            attempts += 1
            if attempts > 50:
                raise EigenphaseCollisionError("persistent eigenphase collisions")
            count = int(np.sum(bad))
            resampled += count
            alpha[bad] = _verblunsky(N, count, rng)
            redone, rebad = evaluate(alpha[bad])
            values[bad] = redone
            still_bad = np.zeros(len(alpha), dtype=bool)
            still_bad[np.flatnonzero(bad)[rebad]] = True
            bad = still_bad
        return values, resampled

    parts = _run_chunks(N, samples, seed, threads, worker, progress)
    values = np.concatenate([part[0] for part in parts])
    return values, sum(part[1] for part in parts)


def _estimate_from_values(values, seed, resampled, diagnostics: bool) -> MomentEstimate:
    n = len(values)
    mean = float(np.mean(values))
    if n >= 2:
        se = float(np.std(values, ddof=1) / math.sqrt(n))
    else:
        se = math.inf
    top_fraction = None
    if diagnostics:
        k = max(1, n // 100)
        largest = np.partition(values, n - k)[n - k :]
        total = float(np.sum(values))
        top_fraction = float(np.sum(largest) / total) if total else None
    return MomentEstimate(
        mean=mean,
        std_error=se,
        samples=n,
        seed=seed,
        generator=MOMENT_GENERATOR_NAME,
        top_contribution_fraction=top_fraction,
        resampled=resampled,
    )


def estimate_moment(
    N: int,
    s: float,
    z: complex,
    samples: int,
    seed: int,
    threads: int | None = None,
    progress=None,
) -> MomentEstimate:
    """Monte Carlo estimate of E|Lambda_N'(z)|^(2s).

    Deterministic for fixed (seed, samples); s may be negative (> -1), in
    which case the estimate carries a heavy-tail diagnostic: the fraction of
    the total contributed by the top 1% of draws.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if s <= -1:
        raise ValueError("requires s > -1")
    z = complex(z)

    if s == 0:
        return MomentEstimate(mean=1.0, std_error=0.0, samples=samples, seed=seed,
                              generator=MOMENT_GENERATOR_NAME)

    def evaluate(alpha):
        _, log_dphi, _ = _szego(alpha, [z])
        return np.exp(2 * s * log_dphi[0]), np.zeros(len(alpha), dtype=bool)

    values, resampled = _collect_values(N, samples, seed, threads, evaluate, progress)
    return _estimate_from_values(values, seed, resampled, diagnostics=s < 0)


def estimate_joint_moment(
    N: int,
    s: float,
    h: float,
    z1: complex,
    z2: complex,
    samples: int,
    seed: int,
    threads: int | None = None,
    progress=None,
) -> MomentEstimate:
    """Monte Carlo estimate of E[ |Lambda'/Lambda(z2)|^(2h) |Lambda(z1)|^(2s) ].

    A draw with z2 on an eigenvalue (possible only for |z2| = 1) is redrawn
    and counted in `resampled`.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if h <= -1:
        raise ValueError("requires h > -1")
    z1 = complex(z1)
    z2 = complex(z2)

    if h == 0 and s == 0:
        return MomentEstimate(mean=1.0, std_error=0.0, samples=samples, seed=seed,
                              generator=MOMENT_GENERATOR_NAME)

    def evaluate(alpha):
        # At z1 == z2 and s == h the bracket is exactly 0, so the values equal
        # estimate_moment's draw for draw.
        log_phi, log_dphi, unresolved = _szego(alpha, [z1] if z1 == z2 else [z1, z2])
        bracket = 2 * s * log_phi[0] - 2 * h * log_phi[-1]
        return np.exp(2 * h * log_dphi[-1] + bracket), unresolved[-1]

    values, resampled = _collect_values(N, samples, seed, threads, evaluate, progress)
    return _estimate_from_values(values, seed, resampled, diagnostics=h < 0 or s < 0)


# ---------------------------------------------------------------------------
# Characteristic polynomial coefficients and zero counting
# ---------------------------------------------------------------------------


def _coeffs_from_phases(phases: np.ndarray) -> np.ndarray:
    """Batched coefficients of prod_j (1 - z e^(-i theta_j)); shape (B, N+1)."""
    batch, N = phases.shape
    coeffs = np.zeros((batch, N + 1), dtype=complex)
    coeffs[:, 0] = 1.0
    w = np.exp(-1j * phases)
    for j in range(N):
        coeffs[:, 1 : j + 2] -= w[:, j, None] * coeffs[:, : j + 1].copy()
    return coeffs


def poly_coeffs(sample: SpectrumSample) -> PolyCoeffs:
    """Coefficients of Lambda_N(z) by incremental multiplication of factors."""
    return PolyCoeffs(_coeffs_from_phases(sample.phases[None, :])[0])


def _critical_point_moduli(phases: np.ndarray) -> np.ndarray:
    """|zeros of Lambda'| per draw, shape (batch, N-1), directly from phases.

    The critical points of the monic polynomial with roots a_j are the
    eigenvalues of diag(a) (I - J/N) apart from one structural zero
    (char poly = z p'(z) / N).  This avoids the coefficient representation,
    whose middle secular coefficients overflow double precision for N ~ 100.
    """
    batch, N = phases.shape
    alpha = np.exp(1j * phases)
    matrix = np.repeat(-alpha[:, :, None] / N, N, axis=2)
    idx = np.arange(N)
    matrix[:, idx, idx] += alpha
    moduli = np.sort(np.abs(np.linalg.eigvals(matrix)), axis=1)
    structural = moduli[:, 0]
    if np.any(structural > 1e-6):
        warnings.warn("structural zero eigenvalue not cleanly separated")
    return moduli[:, 1:]


def count_zeros_inside(sample: SpectrumSample, r: float) -> int:
    """Zeros of Lambda_N'(z) with modulus < r, by eigenvalues of the
    differentiation matrix built from the eigenphases.

    Roots within 1e-8 of the circle are counted by the sign of |root| - r and
    flagged with a warning.
    """
    if not 0 < r < 1:
        raise ValueError("requires 0 < r < 1")
    if sample.N == 1:
        return 0
    moduli = _critical_point_moduli(sample.phases[None, :])[0]
    ambiguous = np.abs(moduli - r) < 1e-8
    if np.any(ambiguous):
        warnings.warn(
            f"{int(np.sum(ambiguous))} root(s) within 1e-8 of |z| = {r}; "
            "counted by the sign of |root| - r"
        )
    return int(np.sum(moduli < r))


def mean_zero_counts(
    N: int,
    radii,
    samples: int,
    seed: int,
    threads: int | None = None,
    progress=None,
) -> list[MomentEstimate]:
    """Monte Carlo mean zero count of Lambda_N' inside each radius in `radii`."""
    radii = [float(r) for r in radii]
    for r in radii:
        if not 0 < r < 1:
            raise ValueError("radii must lie in (0, 1)")
    if N == 1:
        return [
            MomentEstimate(mean=0.0, std_error=0.0, samples=samples, seed=seed)
            for _ in radii
        ]

    def worker(size, rng):
        moduli = _critical_point_moduli(haar_phases(N, size, rng))
        return np.stack([np.sum(moduli < r, axis=1) for r in radii], axis=1)

    parts = _run_chunks(N, samples, seed, threads, worker, progress)
    counts = np.concatenate(parts, axis=0).astype(float)
    out = []
    for col, _ in enumerate(radii):
        values = counts[:, col]
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        out.append(
            MomentEstimate(
                mean=float(np.mean(values)),
                std_error=se,
                samples=len(values),
                seed=seed,
            )
        )
    return out
