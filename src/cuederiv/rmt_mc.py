"""Monte Carlo ground truth over Haar-distributed unitary matrices.

Every estimator draws CUE(N) through its Verblunsky coefficients, which are
independent (Killip & Nenciu, IMRN 2004): for k < N-1, |alpha_k|^2 is
Beta(1, N-k-1) with a uniform phase, and alpha_(N-1) is uniform on the unit
circle.  For the moments, Szego's recursion gives Phi_N(z) = det(z - U) and
its derivative in O(N) per draw and point, with |Lambda_N| = |Phi_N| and
|Lambda_N'| = |Phi_N'| since |det U| = 1.  The recursion carries its values
as a mantissa and a power-of-two exponent, and rescales them only where a
bound from |alpha_k| and |z| says they could leave a fixed window: rescaling
by a power of two is exact, so the results are those of rescaling at every
step, bit for bit (see _szego_scaled).  Zero counts read the winding number
of Phi_N' around each circle |z| = r from the coefficients of Phi_N, built by
the same recursion on coefficient vectors in O(N^2) per draw: one FFT gives
Phi_N' and Phi_N'' on each circle, and Horner's rule at bisection points.  A
draw whose winding cannot be certified falls back to the eigenphases of its
GGT matrix.  Estimators work in fixed-size chunks, each chunk owning a
generator derived from (seed, chunk index), so results are reproducible for
any thread count.
"""

from __future__ import annotations

import cmath
import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

from ._numpy import np
from .errors import CapabilityError, _size

GENERATOR_NAME = "pcg64/verblunsky"
COLLISION_TOLERANCE = 1e-14
_CHUNK_ELEMENT_BUDGET = 4_000_000
# Winding certification (see _winding_counts).  The FFT samples at most
# _POINT_BUDGET (point, draw) pairs at a time, about 1 MB per complex array.
_GRID_MIN = 32
_ARC_PHASE_LIMIT = math.pi / 4
_BISECTION_DEPTH = 12
_POINT_BUDGET = 1 << 16
# _szego_scaled renormalises only where max(|Phi_k|, |Phi_k^*|) could leave
# 2**(+-_RENORM_WINDOW) of its last renormalised size (see _renormalised_steps).
_RENORM_WINDOW = 256


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean with its standard error and reproducibility record.

    `resampled` counts draws redrawn because a point hit an eigenvalue;
    `fallback` counts zero counts taken from eigenphases instead of the
    winding number.
    """

    mean: float
    std_error: float
    samples: int
    seed: int
    generator: str = GENERATOR_NAME
    top_contribution_fraction: float | None = None
    resampled: int = 0
    fallback: int = 0


def _check_counts(N, samples, seed, threads) -> tuple[int, int, int, int | None]:
    """N, samples (two at least, for a standard error), seed and threads as ints."""
    return (_size("N", N), _size("samples", samples, minimum=2), _size("seed", seed, minimum=0),
            None if threads is None else _size("threads", threads))


def _run_chunks(N, samples, seed, threads, evaluate, progress=None):
    """(per-draw values, tally) of `samples` CUE(N) draws in deterministic chunks.

    Chunk i holds at most _CHUNK_ELEMENT_BUDGET / N^2 draws (at most 65536)
    and owns a PCG64 generator seeded by (seed, i).  `evaluate(alpha, rng)`
    maps its Verblunsky coefficients (see _verblunsky) and that generator to
    (values, tally); the values are concatenated and the tallies summed in
    chunk order, so neither depends on `threads` (None means one thread).
    Progress is reported from the calling thread as chunks complete, in order.
    The generators are built in the calling thread (`Executor.map` takes its
    arguments there), so numpy is loaded before any worker starts (see _numpy).
    """
    chunk = max(1, min(65536, _CHUNK_ELEMENT_BUDGET // (N * N)))
    sizes = [min(chunk, samples - start) for start in range(0, samples, chunk)]
    rngs = (np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
            for index in range(len(sizes)))

    def run(size, rng):
        return evaluate(_verblunsky(N, size, rng), rng)

    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=threads)
        results = pool.map(run, sizes, rngs)
    else:
        pool, results = nullcontext(), map(run, sizes, rngs)
    parts, tally, done = [], 0, 0
    with pool:
        for size, (values, counted) in zip(sizes, results):
            parts.append(values)
            tally += counted
            done += size
            if progress is not None:
                progress(done, samples)
    return np.concatenate(parts), tally


def _verblunsky(N: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Verblunsky coefficients of `count` CUE(N) draws, shape (count, N).

    |alpha_k|^2 = 1 - v^(1/(N-k-1)) with v uniform on (0, 1] is Beta(1, N-k-1);
    the last coefficient has modulus 1.
    """
    v = 1.0 - rng.random((count, N - 1))
    modulus = np.ones((count, N))
    modulus[:, :-1] = np.sqrt(-np.expm1(np.log(v) / np.arange(N - 1, 0, -1)))
    return modulus * np.exp(2j * np.pi * rng.random((count, N)))


def _renormalised_steps(alpha_abs: np.ndarray, z_abs: np.ndarray) -> list[bool]:
    """Which steps of _szego_scaled renormalise, from a bound on how far
    M_k = max(|Phi_k|, |Phi_k^*|) can move; `alpha_abs` has shape (N, B).
    _taylor_coefficients applies it at |z| = 1 to the coefficient vectors.

    One step multiplies M_k by at most (1 + |alpha_k|) max(1, |z|).  Inside the
    closed disc |Phi_k| <= |Phi_k^*|, so it also multiplies M_k by at least
    1 - |alpha_k| |z|; outside, |Phi_k| >= |Phi_k^*| gives at least
    |z| - |alpha_k|.  Both are taken at the worst draw and point.  A step
    renormalises when the next one could take M_k out of 2**(+-_RENORM_WINDOW)
    of its last renormalised size, when its own factors alone could, when a
    factor is not finite, and always at the last step.
    """
    a_max = np.max(alpha_abs, axis=1, initial=0.0)
    z_max = np.max(z_abs)
    inside, outside = z_abs[z_abs <= 1], z_abs[z_abs > 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        grow = np.log2((1 + a_max) * np.maximum(1.0, z_max))
        shrink = np.full(len(a_max), np.inf)
        if inside.size:
            shrink = np.minimum(shrink, np.log2(1 - a_max * np.max(inside)))
        if outside.size:
            shrink = np.minimum(shrink, np.log2(np.min(outside) - a_max))
    steps = [False] * len(a_max)
    high = low = 0.0
    for k, (up, down) in enumerate(zip(grow.tolist(), shrink.tolist())):
        # `not (... <= ...)` is also true for nan.
        if k and not (high + up <= _RENORM_WINDOW and low + down >= -_RENORM_WINDOW):
            steps[k - 1] = True
            high = low = 0.0
        high += up
        low += down
        if not (high <= _RENORM_WINDOW and low >= -_RENORM_WINDOW):
            steps[k] = True
            high = low = 0.0
    steps[-1] = True
    return steps


def _szego_scaled(alpha: np.ndarray, z: np.ndarray):
    """(Phi_N, Phi_N', exponent, unresolved) at `z`, shape (P, B).

    Runs Szego's recursion Phi_(k+1) = z Phi_k - conj(alpha_k) Phi_k^*,
    Phi_(k+1)^* = Phi_k^* - alpha_k z Phi_k and its z-derivative from
    Phi_0 = Phi_0^* = 1, for each row of `alpha` (shape (B, N)).  `z` must
    broadcast against (1, B): a column (P, 1) of points shared by every draw,
    or a row (1, B) with one point per draw.

    The true values are the returned ones times 2**exponent.  A renormalising
    step divides all values by the power of two that brings
    max(|Phi_k|, |Phi_k^*|) into [1/2, 1) and adds it to the exponent, so large
    N cannot overflow.  The recursion is linear, and dividing by a power of two
    is exact while every value stays a normal double, so the results do not
    depend on which steps renormalise as long as the last one does: they are
    those of renormalising at every step, bit for bit.  _renormalised_steps
    picks the steps from a bound that keeps max(|Phi_k|, |Phi_k^*|) within
    2**(+-_RENORM_WINDOW) of its last renormalised size, which leaves the other
    values over 2**760 of room on either side.  The steps run on preallocated
    arrays, in the same operation order.

    `unresolved` marks a Phi_N(z) within COLLISION_TOLERANCE of zero relative
    to the two terms of the last step, i.e. z on an eigenvalue.
    """
    alpha = np.ascontiguousarray(np.transpose(alpha))
    shape = np.broadcast_shapes(z.shape, (1, alpha.shape[1]))
    renormalise = _renormalised_steps(np.abs(alpha), np.abs(z))
    phi = np.ones(shape, dtype=complex)
    phi_star = np.ones(shape, dtype=complex)
    dphi = np.zeros(shape, dtype=complex)
    dphi_star = np.zeros(shape, dtype=complex)
    z_phi = np.empty(shape, dtype=complex)
    dz_phi = np.empty(shape, dtype=complex)
    term = np.empty(shape, dtype=complex)
    exponent = np.zeros(shape, dtype=np.int64)
    for k, (a, renormalising) in enumerate(zip(alpha, renormalise), start=1):
        a_conj = a.conj()
        np.multiply(z, phi, out=z_phi)
        np.add(phi, np.multiply(z, dphi, out=term), out=dz_phi)
        if k == len(alpha):
            cancelled = np.abs(z_phi) + np.abs(phi_star)
        np.subtract(z_phi, np.multiply(a_conj, phi_star, out=term), out=phi)
        np.subtract(phi_star, np.multiply(a, z_phi, out=term), out=phi_star)
        np.subtract(dz_phi, np.multiply(a_conj, dphi_star, out=term), out=dphi)
        np.subtract(dphi_star, np.multiply(a, dz_phi, out=term), out=dphi_star)
        if renormalising:
            _, e = np.frexp(np.maximum(np.abs(phi), np.abs(phi_star)))
            scale = np.ldexp(1.0, -e)
            phi *= scale
            phi_star *= scale
            dphi *= scale
            dphi_star *= scale
            exponent += e
    unresolved = np.abs(phi) < COLLISION_TOLERANCE * cancelled * scale
    return phi, dphi, exponent, unresolved


def _szego(alpha: np.ndarray, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log|Phi_N(z)|, log|Phi_N'(z)|, unresolved) per point and draw, shape (P, B).

    See _szego_scaled; `alpha` has shape (B, N) and every draw is evaluated
    at every point.
    """
    z = np.asarray(points, dtype=complex)[:, None]
    phi, dphi, exponent, unresolved = _szego_scaled(alpha, z)
    shift = exponent * math.log(2.0)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(phi)) + shift, np.log(np.abs(dphi)) + shift, unresolved


def _estimate_from_values(values, seed, resampled=0, fallback=0) -> MomentEstimate:
    """Mean, standard error and the tail share: the fraction of the total
    contributed by the top 1% of draws, which nears 1 when the mean is
    carried by a few draws (a heavy or infinite-mean tail)."""
    n = len(values)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n))
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
        fallback=fallback,
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

    Deterministic for fixed (seed, samples); s may be negative (> -1).  The
    estimate carries the tail share `top_contribution_fraction`: the fraction
    of the total contributed by the top 1% of draws.  As in
    estimate_joint_moment, a draw with z on an eigenvalue is redrawn.
    """
    N, samples, seed, threads = _check_counts(N, samples, seed, threads)
    if not s > -1:
        raise ValueError("requires s > -1")
    if not math.isfinite(s):
        raise ValueError(f"requires finite s, got s = {s}")
    if not cmath.isfinite(z):
        raise ValueError(f"requires finite z, got z = {z}")
    # |Lambda'/Lambda|^(2s) |Lambda|^(2s) = |Lambda'|^(2s) at one point.
    return _estimate_joint(N, s, s, complex(z), complex(z), samples, seed, threads, progress)


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
    N, samples, seed, threads = _check_counts(N, samples, seed, threads)
    if not h > -1:
        raise ValueError("requires h > -1")
    if not math.isfinite(h):
        raise ValueError(f"requires finite h, got h = {h}")
    if not (math.isfinite(s) and cmath.isfinite(z1) and cmath.isfinite(z2)):
        raise ValueError(f"requires finite s, z1 and z2, got s = {s}, z1 = {z1}, z2 = {z2}")
    return _estimate_joint(N, s, h, complex(z1), complex(z2), samples, seed, threads, progress)


def _estimate_joint(N, s, h, z1, z2, samples, seed, threads, progress) -> MomentEstimate:
    """E[ |Lambda'/Lambda(z2)|^(2h) |Lambda(z1)|^(2s) ] over Verblunsky draws."""
    if h == 0 and s == 0:
        return MomentEstimate(mean=1.0, std_error=0.0, samples=samples, seed=seed)

    def at_points(alpha):
        # At z1 == z2 and s == h the bracket is exactly 0, so the values are
        # |Lambda'(z1)|^(2s) draw for draw; a draw with Phi = 0 gives nan, and is redrawn.
        log_phi, log_dphi, unresolved = _szego(alpha, [z1] if z1 == z2 else [z1, z2])
        with np.errstate(over="ignore", invalid="ignore"):
            bracket = 2 * s * log_phi[0] - 2 * h * log_phi[-1]
            return np.exp(2 * h * log_dphi[-1] + bracket), unresolved[-1]

    def evaluate(alpha, rng):
        values, bad = at_points(alpha)
        resampled = 0
        attempts = 0
        while np.any(bad):
            attempts += 1
            if attempts > 50:
                raise CapabilityError("the point stayed on an eigenvalue through 50 redraws")
            count = int(np.sum(bad))
            resampled += count
            alpha[bad] = _verblunsky(N, count, rng)
            values[bad], bad[bad] = at_points(alpha[bad])
        return values, resampled

    values, resampled = _run_chunks(N, samples, seed, threads, evaluate, progress)
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = _estimate_from_values(values, seed, resampled)
    # An infinite value makes the mean infinite.
    if not (math.isfinite(estimate.mean) and math.isfinite(estimate.std_error)):
        raise CapabilityError("float overflow: Monte Carlo moment exceeds double precision")
    return estimate


# ---------------------------------------------------------------------------
# Zero counting
# ---------------------------------------------------------------------------


def _taylor_coefficients(alpha: np.ndarray) -> np.ndarray:
    """Taylor coefficients (j + 1) c_(j+1) of Phi_N' and j (j + 1) c_(j+1) of
    z Phi_N'', j < N, per draw, shape (2, B, N).  A draw's coefficients carry
    a positive power-of-two scale, which changes neither the phase of Phi_N'
    nor Re(z Phi_N'' / Phi_N').

    Szego's recursion on coefficient vectors: Phi_(k+1)[j] = Phi_k[j-1] -
    conj(alpha_k) Phi_k^*[j], Phi_(k+1)^*[j] = Phi_k^*[j] - alpha_k Phi_k[j-1].
    A step scales the l1 norm of the coefficients by 1 +- |alpha_k| at most,
    as at a point of the unit circle, so _renormalised_steps(|alpha|, 1) says
    where to bring each draw's largest coefficient into [1/2, 1).
    """
    B, N = alpha.shape
    alpha = np.ascontiguousarray(np.transpose(alpha))
    renormalise = _renormalised_steps(np.abs(alpha), np.ones(1))
    phi = np.zeros((N + 1, B), dtype=complex)
    phi_star = np.zeros((N + 1, B), dtype=complex)
    phi[N] = phi_star[0] = 1
    for k, (a, renormalising) in enumerate(zip(alpha, renormalise)):
        # phi[N - k:] holds Phi_k, so phi[N - k - 1:] is z Phi_k, and
        # phi_star[:k + 1] holds Phi_k^*.
        term = a.conj() * phi_star[: k + 1]
        phi_star[1 : k + 2] -= a * phi[N - k :]
        phi[N - k - 1 : N] -= term
        if renormalising:
            _, e = np.frexp(np.max(np.abs(phi[N - k - 1 :]), axis=0))
            scale = np.ldexp(1.0, -e)
            phi[N - k - 1 :] *= scale
            phi_star[: k + 2] *= scale
    dc = np.arange(1, N + 1) * np.transpose(phi[1:])
    return np.stack([dc, np.arange(N) * dc])


def _horner(rows: np.ndarray, draw: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(Phi_N', z Phi_N'') of draw[p] at z[p]; rows[j] holds both j-th
    coefficients of every draw, as (2, B)."""
    B = rows.shape[1] // 2
    columns = np.concatenate([draw, draw + B])
    z = np.concatenate([z, z])
    values = rows[-1].take(columns)
    for row in rows[-2::-1]:
        values *= z
        values += row.take(columns)
    return values.reshape(2, -1)


def _arg_rates(dphi, z_ddphi, floor):
    """d/dtheta arg Phi_N'(r e^(i theta)) = Re(z Phi_N''(z) / Phi_N'(z)); nan,
    which fails every test it meets, where |Phi_N'| is not above `floor`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.real(z_ddphi / dphi)
    rate[~(np.abs(dphi) > floor)] = np.nan
    return rate


def _circle_samples(alpha: np.ndarray, radii: np.ndarray, M: int):
    """(Phi_N', z Phi_N'') at r w^m, w = exp(2 pi i / M), m < M, shape
    (R, B, M), a floor on |Phi_N'| per circle and draw, and the rows for
    _horner.  The samples are the length-M DFTs of the Taylor coefficients
    times r^j, zero-padded from N <= M terms, so nothing aliases.

    Coefficients lose the small values of Phi_N' when |alpha_k| is near 1
    over many k.  So the twin draw alpha_k w^-(k+1), whose Phi_N'(z) is a
    constant times Phi_N'(z / w), is sampled too: it rounds differently, and
    the largest difference of the two estimates their error.  The floor is
    that over sin(_ARC_PHASE_LIMIT): a sample above it has its phase within
    _ARC_PHASE_LIMIT, so an accepted step is below pi in truth.
    """
    B, N = alpha.shape
    twin = alpha * np.exp(-2j * np.pi / M * np.arange(1, N + 1))
    taylor = _taylor_coefficients(np.concatenate([alpha, twin]))
    terms = np.concatenate([taylor[:, :B], taylor[:1, B:]])
    powers = radii[:, None, None] ** np.arange(N)
    dphi, z_ddphi, d_twin = np.fft.ifft(terms[:, None] * powers, n=M, norm="forward")
    d_twin = np.roll(d_twin, -1, axis=2)
    best = np.argmax(np.abs(dphi), axis=2)[:, :, None]
    ratio = np.take_along_axis(d_twin, best, axis=2) / np.take_along_axis(dphi, best, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        error = np.max(np.abs(d_twin / ratio - dphi), axis=2)
    rows = np.ascontiguousarray(np.transpose(taylor[:, :B], (2, 0, 1))).reshape(N, 2 * B)
    return dphi, z_ddphi, error / math.sin(_ARC_PHASE_LIMIT), rows


def _winding_counts(alpha: np.ndarray, radii) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of Phi_N' inside each circle |z| = r, per draw, by the argument
    principle; returns (counts, uncertified), both of shape (B, R).

    Phi_N' is sampled at M = max(N, _GRID_MIN) equally spaced points on each
    circle.  An arc between neighbouring samples is accepted when the phase
    step of Phi_N' across it and, at both ends, the rate of that phase times
    the arc length in theta are at most _ARC_PHASE_LIMIT; the rate test keeps a
    zero close to the circle from aliasing a full turn into a small step.  A
    failing arc is halved, and its halves tested in turn, at most
    _BISECTION_DEPTH times.  The count is the sum of accepted steps over 2 pi;
    a (draw, radius) left with a failing arc is uncertified and its count is
    meaningless.  A sample not above its floor (see _circle_samples) fails
    every test; bisection points come from Horner's rule.
    """
    B, N = alpha.shape
    M = max(N, _GRID_MIN)
    batch = max(1, _POINT_BUDGET // (len(radii) * M))
    if B > batch:
        parts = [_winding_counts(alpha[i : i + batch], radii) for i in range(0, B, batch)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    radii = np.asarray(radii, dtype=float)
    length = 2 * np.pi / M
    theta = length * np.arange(M)
    dphi, z_ddphi, floor, rows = _circle_samples(alpha, radii, M)
    rate = _arg_rates(dphi, z_ddphi, floor[:, :, None])
    # Arc (i, b, j) runs from sample j to sample j + 1 (mod M) on circle i.
    circle, draw, start = (index.ravel() for index in np.indices(dphi.shape))
    theta_a = theta[start]
    d_a, d_b = dphi.ravel(), np.roll(dphi, -1, axis=2).ravel()
    rate_a, rate_b = rate.ravel(), np.roll(rate, -1, axis=2).ravel()
    winding = np.zeros(len(radii) * B)
    uncertified = np.zeros((len(radii), B), dtype=bool)
    for depth in range(_BISECTION_DEPTH + 1):
        step = np.angle(d_b * d_a.conj())
        limit = _ARC_PHASE_LIMIT / length
        passed = (
            (np.abs(step) <= _ARC_PHASE_LIMIT)
            & (np.abs(rate_a) <= limit)
            & (np.abs(rate_b) <= limit)
        )
        winding += np.bincount(circle[passed] * B + draw[passed], weights=step[passed],
                               minlength=len(winding))
        failed = ~passed
        # An arc with a nan end fails at every depth, as that end stays an end.
        dead = failed & (np.isnan(rate_a) | np.isnan(rate_b))
        uncertified[circle[dead], draw[dead]] = True
        failed &= ~dead
        circle, draw, theta_a = circle[failed], draw[failed], theta_a[failed]
        d_a, d_b, rate_a, rate_b = d_a[failed], d_b[failed], rate_a[failed], rate_b[failed]
        if depth == _BISECTION_DEPTH or not len(circle):
            break
        length /= 2
        theta_m = theta_a + length
        z_m = radii[circle] * np.exp(1j * theta_m)
        d_m, z_dd_m = _horner(rows, draw, z_m)
        rate_m = _arg_rates(d_m, z_dd_m, floor[circle, draw])
        circle, draw = np.tile(circle, 2), np.tile(draw, 2)
        theta_a = np.concatenate([theta_a, theta_m])
        d_a, d_b = np.concatenate([d_a, d_m]), np.concatenate([d_m, d_b])
        rate_a, rate_b = np.concatenate([rate_a, rate_m]), np.concatenate([rate_m, rate_b])
    uncertified[circle, draw] = True
    counts = np.rint(winding.reshape(len(radii), B) / (2 * np.pi)).astype(np.int64)
    return counts.T, uncertified.T


def _ggt_phases(alpha: np.ndarray) -> np.ndarray:
    """Eigenphases of the GGT matrices of Verblunsky coefficients `alpha`,
    shape (B, N).

    G[k, l] = -conj(alpha_l) alpha_(k-1) rho_k ... rho_(l-1) for k <= l, with
    alpha_(-1) = -1 and rho_k = sqrt(1 - |alpha_k|^2), G[l+1, l] = rho_l and
    zero below: a unitary upper-Hessenberg matrix with det(z - G) = Phi_N(z)
    (Simon, OPUC, 2005, sec. 4.1).
    """
    B, N = alpha.shape
    rho = np.sqrt(1.0 - np.abs(alpha[:, :-1]) ** 2)
    previous = np.concatenate([-np.ones((B, 1)), alpha[:, :-1]], axis=1)
    # products[b, k, l] = rho_k ... rho_(l-1), the empty product 1 for l <= k
    rho_before = np.concatenate([np.ones((B, 1)), rho], axis=1)
    above = np.triu(np.ones((N, N), dtype=bool), 1)
    products = np.cumprod(np.where(above, rho_before[:, None, :], 1.0), axis=2)
    matrix = np.triu(-alpha.conj()[:, None, :] * previous[:, :, None] * products)
    idx = np.arange(N - 1)
    matrix[:, idx + 1, idx] = rho
    return np.angle(np.linalg.eigvals(matrix))


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


def mean_zero_counts(
    N: int,
    radii,
    samples: int,
    seed: int,
    threads: int | None = None,
    progress=None,
) -> list[MomentEstimate]:
    """Monte Carlo mean zero count of Lambda_N' inside each radius in `radii`.

    Each count is the winding number of Phi_N' around |z| = r (see
    _winding_counts).  A draw whose winding is not certified at some radius is
    counted there from the eigenphases of its GGT matrix instead, and the
    estimate's `fallback` reports how many were.  On that route, roots within
    1e-8 of the circle are counted by the sign of |root| - r and flagged with
    a warning.
    """
    N, samples, seed, threads = _check_counts(N, samples, seed, threads)
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("radii must name at least one radius")
    for r in radii:
        if not 0 < r < 1:
            raise ValueError("radii must lie in (0, 1)")

    def evaluate(alpha, rng):
        counts, uncertified = _winding_counts(alpha, radii)
        redo = np.flatnonzero(np.any(uncertified, axis=1))
        if len(redo):
            moduli = _critical_point_moduli(_ggt_phases(alpha[redo]))
            for col, r in enumerate(radii):
                rows = uncertified[redo, col]
                ambiguous = int(np.sum(np.abs(moduli[rows] - r) < 1e-8))
                if ambiguous:
                    warnings.warn(
                        f"{ambiguous} root(s) within 1e-8 of |z| = {r}; "
                        "counted by the sign of |root| - r"
                    )
                counts[redo[rows], col] = np.sum(moduli[rows] < r, axis=1)
        return counts, np.sum(uncertified, axis=0)

    counts, fallback = _run_chunks(N, samples, seed, threads, evaluate, progress)
    counts = counts.astype(float)
    return [
        _estimate_from_values(counts[:, col], seed, fallback=int(fallback[col]))
        for col in range(len(radii))
    ]
