"""Monte Carlo ground truth over Haar-distributed unitary matrices.

Sampling draws a complex Ginibre matrix, takes its QR decomposition and fixes
the R-diagonal phases (plain QR is not Haar), then extracts eigenphases.
Estimators consume eigenphases in fixed-size chunks, each chunk owning a
generator derived from (seed, chunk index), so results are reproducible for
any thread count.
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
    """Map `worker(phases, rng)` over deterministic chunks, in chunk order.

    Progress is reported from the calling thread as results arrive in chunk
    order, so the sequence of `done` counts does not depend on `threads`.
    """
    layout = _chunk_layout(N, samples)

    def run(entry):
        index, size = entry
        rng = _chunk_rng(seed, index)
        return worker(haar_phases(N, size, rng), rng)

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


def _log_terms(phases: np.ndarray, z: complex):
    """Per-draw (log|Lambda|, log|sum of log-derivative|, collision mask)."""
    w = np.exp(-1j * phases)
    factors = 1.0 - z * w
    bad = np.min(np.abs(factors), axis=1) < COLLISION_TOLERANCE
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lam = np.sum(np.log(np.abs(factors)), axis=1)
        log_deriv_sum = np.log(np.abs(np.sum(-w / factors, axis=1)))
    return log_lam, log_deriv_sum, bad


def _collect_values(N, samples, seed, threads, evaluate, progress=None):
    """Evaluate per-draw statistics, resampling eigenphase collisions."""

    def worker(phases, rng):
        values, bad = evaluate(phases)
        resampled = 0
        attempts = 0
        while np.any(bad):
            attempts += 1
            if attempts > 50:
                raise EigenphaseCollisionError("persistent eigenphase collisions")
            count = int(np.sum(bad))
            resampled += count
            phases[bad] = haar_phases(N, count, rng)
            redone, rebad = evaluate(phases[bad])
            values[bad] = redone
            still_bad = np.zeros(len(phases), dtype=bool)
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
        return MomentEstimate(mean=1.0, std_error=0.0, samples=samples, seed=seed)

    def evaluate(phases):
        log_lam, log_deriv_sum, bad = _log_terms(phases, z)
        values = np.exp(2 * s * (log_lam + log_deriv_sum))
        return values, bad

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
    """Monte Carlo estimate of E[ |Lambda'/Lambda(z2)|^(2h) |Lambda(z1)|^(2s) ]."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if h <= -1:
        raise ValueError("requires h > -1")
    z1 = complex(z1)
    z2 = complex(z2)

    if h == 0 and s == 0:
        return MomentEstimate(mean=1.0, std_error=0.0, samples=samples, seed=seed)

    def evaluate(phases):
        log_lam1, _, bad1 = _log_terms(phases, z1)
        _, log_deriv_sum2, bad2 = _log_terms(phases, z2)
        values = np.exp(2 * h * log_deriv_sum2 + 2 * s * log_lam1)
        return values, bad1 | bad2

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

    def worker(phases, rng):
        moduli = _critical_point_moduli(phases)
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
