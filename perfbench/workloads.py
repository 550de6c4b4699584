"""The benchmark workloads: cuederiv CLI commands and the checks on each.

A workload is a list of tasks, built from task groups (``mc`` = the
``mc_moments`` and ``mc_zeros`` groups, ``exact-zeta`` = ``exact`` and
``zeta``).  Each task is one ``cuederiv`` command line, run through
``cuederiv.cli.main(argv)``, and belongs to one of five parts (``a`` to
``e``); the part times are end-to-end metrics.  Monte Carlo seeds are derived
from the workload seed; exact and zeta inputs are fixed.

Checks see the task's parsed JSON report and the reports of the tasks that
ran before it in the same pass, and raise ``CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SIZES = ("full", "tiny")


class CheckFailed(Exception):
    """A task's output is wrong."""


@dataclass(frozen=True)
class Task:
    key: str
    part: str
    argv: tuple[str, ...]
    check: Callable[[dict, dict], None] | None = None
    # exact, asympt and zeta reports: their JSON digests are reported
    deterministic: bool = False
    exits: tuple[int, ...] = (0,)
    # A defect known at baseline: this exception escaping cli.main is tallied
    # as a known failure, not as a failed task.
    known_defect: type[BaseException] | None = None
    N: int = 0
    draws: int = 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(report: dict, label: str) -> list[dict]:
    return [row for row in report["results"] if row["label"] == label]


def _value(row: dict) -> float:
    value = row["value"]
    return value["approx"] if isinstance(value, dict) else value


def _fraction(row: dict) -> Fraction:
    return Fraction(int(row["value"]["num"]), int(row["value"]["den"]))


def _mc_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield str(rng.randrange(2**31))


# ---------------------------------------------------------------------------
# mc-moments: the sampler and the moment evaluator, at N = 6 and N = 60
# ---------------------------------------------------------------------------


def _compare_passed(report, _):
    (row,) = _rows(report, "discrepancy")
    _require(row["passed"], f"compare failed: {row['se_normalized']:.2f} SE")


def _joint_check(report, done):
    (row,) = _rows(report, "mc_mean")
    (closed,) = _rows(done["joint.closed"], "joint_moment")
    closed = _value(closed)
    allowance = max(5 * row["std_error"], 0.03 * closed)
    _require(abs(row["value"] - closed) <= allowance,
             f"joint {row['value']} vs closed form {closed} (allowance {allowance})")


def mc_moments(seed: int, size: str) -> list[Task]:
    """compare --routes exact,mc at N=6 (part a), the joint moment at N=60 (b)."""
    draws6, draws60 = (20_000, 400) if size == "full" else (1_000, 20)
    seeds = _mc_seeds("mc-moments", seed)
    tasks = []
    for s in (1, 2):
        for r in ("0.3", "0.6"):
            tasks.append(Task(
                f"compare.s{s}.r{r}", "a",
                ("compare", "--routes", "exact,mc", "--N", "6", "--s", str(s), "--r", r,
                 "--samples", str(draws6), "--seed", next(seeds)),
                check=_compare_passed, N=6, draws=draws6,
            ))
    joint = ("--s", "1", "--h", "1", "--z1", "0.3", "--z2", "0.5j")
    tasks.append(Task("joint.closed", "b", ("asympt", "--regime", "joint") + joint,
                      deterministic=True))
    tasks.append(Task(
        "joint.mc", "b",
        ("mc", "--what", "joint", "--N", "60") + joint + ("--samples", str(draws60), "--seed", next(seeds)),
        check=_joint_check, N=60, draws=draws60,
    ))
    return tasks


# ---------------------------------------------------------------------------
# mc-zeros: the sampler and the critical-point zero counter
# ---------------------------------------------------------------------------

ZERO_RADII = "0.5,0.7071"


def _zero_rows_check(N):
    def check(report, _):
        for row in _rows(report, "zero_count"):
            _require(0 <= row["value"] <= N - 1 and row["std_error"] >= 0,
                     f"zero count {row['value']} +- {row['std_error']} at N={N}")
    return check


def _zero_trend_check(report, done):
    """Criterion 07's rule on the r = 0.7071 counts against their limit (~2).

    The criterion uses 10k draws per N; at the benchmark's draw counts its
    10% tolerance and 3 SE slack are below 3 SE of the N=100 count, so each
    is widened to at least 5 SE (as criterion 03 does for the joint moment).
    """
    _zero_rows_check(100)(report, done)

    def deviation(zeros_report):
        (row,) = [r for r in _rows(zeros_report, "zero_count") if r["r"] == 0.7071]
        return abs(row["value"] - row["limit"]), row["std_error"], row["limit"]

    dev100, se100, limit = deviation(report)
    _require(dev100 <= max(0.10 * limit, 5 * se100),
             f"N=100 count is {dev100:.3f} from {limit:.4f} (SE {se100:.3f})")
    for key in ("zeros.n25", "zeros.n60"):
        dev, se, _ = deviation(done[key])
        _require(dev100 <= dev + 5 * (se100 + se),
                 f"N=100 deviation {dev100:.3f} exceeds {key} deviation {dev:.3f} + slack")


def mc_zeros(seed: int, size: str) -> list[Task]:
    """zeros --N {25, 100, 60} --radii 0.5,0.7071 as parts c, d and e."""
    counts = {25: 1_200, 100: 60, 60: 200} if size == "full" else {25: 60, 100: 4, 60: 10}
    seeds = _mc_seeds("mc-zeros", seed)
    return [
        Task(f"zeros.n{N}", part,
             ("zeros", "--N", str(N), "--radii", ZERO_RADII,
              "--samples", str(counts[N]), "--seed", next(seeds)),
             check=_zero_rows_check(N) if N != 100 else _zero_trend_check,
             N=N, draws=counts[N])
        # N=100 runs last so its check can see the other two.
        for N, part in ((25, "c"), (60, "e"), (100, "d"))
    ]


# ---------------------------------------------------------------------------
# exact: the determinant and structure routes, rational and float
# ---------------------------------------------------------------------------


def _positive_moment(report, _):
    for row in _rows(report, "moment"):
        _require(_value(row) > 0, f"moment {_value(row)} is not positive")


def _structure_equals(det_key):
    def check(report, done):
        (structure,) = _rows(report, "moment")
        (determinant,) = _rows(done[det_key], "moment")
        _require(structure["value"] == determinant["value"],
                 f"structure {structure['value']} != determinant {determinant['value']}")
    return check


def _float_matches(rational_key):
    def check(report, done):
        _positive_moment(report, done)
        if rational_key is None:
            return
        (row,) = _rows(report, "moment")
        exact = float(_fraction(_rows(done[rational_key], "moment")[0]))
        _require(abs(row["value"] - exact) <= 1e-9 * abs(exact),
                 f"float {row['value']!r} vs rational {exact!r}")
    return check


def _kernel_forms_agree(report, _):
    a, b = (row["value"] for row in _rows(report, "coefficient"))
    _require(abs(a - b) <= 1e-9 * abs(a), f"kernel forms {a!r} and {b!r} differ")


def _microscopic_limit(s, c, N):
    def check(report, done):
        (row,) = _rows(report, "moment")
        coeff = _rows(done[f"micro.s{s}.c{c}"], "coefficient")[0]["value"]
        ratio = row["value"] / N ** (s * s + 2 * s) / coeff
        _require(abs(ratio - 1) < 0.01, f"N={N} s={s} c={c}: ratio to micro_b is {ratio}")
    return check


def exact(seed: int, size: str) -> list[Task]:
    """Rational determinant route (a), rational structure route (b), float and asymptotics (c)."""
    del seed  # exact inputs are fixed
    full = size == "full"
    # (s, u) points of the rational routes; the structure route runs on the
    # points with s <= 4, and must equal the determinant route there.
    rational = [(s, "1/2") for s in ((3, 4, 5, 6, 7, 8) if full else (3, 5, 8))]
    rational += [(4, "1/3")] if full else []
    # s=12 costs the same at both N (77^2 determinants), so it runs at N=10 only.
    float_points = [(10, 8), (1000, 8), (10, 10), (1000, 10), (10, 12)] if full else [(10, 8)]
    tasks = [
        Task(f"det.s{s}.u{u}", "a",
             ("exact", "--N", "10", "--s", str(s), "--u", u, "--route", "determinant"),
             check=_positive_moment, deterministic=True)
        for s, u in rational
    ]
    tasks += [
        Task(f"structure.s{s}.u{u}", "b",
             ("exact", "--N", "10", "--s", str(s), "--u", u, "--route", "structure"),
             check=_structure_equals(f"det.s{s}.u{u}"), deterministic=True)
        for s, u in rational if s <= 4
    ]
    tasks += [
        Task(f"float.n{N}.s{s}", "c",
             ("exact", "--N", str(N), "--s", str(s), "--u", "1/2", "--mode", "float",
              "--route", "determinant"),
             check=_float_matches("det.s8.u1/2" if N == 10 and s == 8 else None),
             deterministic=True)
        for N, s in float_points
    ]
    tasks += [
        Task(f"micro.s{s}.c{c}", "c", ("asympt", "--regime", "micro", "--s", str(s), "--c", str(c)),
             check=_kernel_forms_agree, deterministic=True)
        for s in (1, 2, 3) for c in (0, 1, 2)
    ]
    N = 4000
    tasks += [
        Task(f"crit05.s{s}.c{c}", "c",
             ("exact", "--N", str(N), "--s", str(s), "--u", f"{N - c}/{N}", "--mode", "float",
              "--route", "determinant"),
             check=_microscopic_limit(s, c, N), deterministic=True)
        for s in (1, 2) for c in (0, 1, 2)
    ]
    # Passes on a positive finite result (exit 0) or a clean capability exit 2.
    tasks.append(Task(
        "overflow", "c",
        ("exact", "--N", "200", "--s", "12", "--u", "0.998001", "--mode", "float",
         "--route", "determinant"),
        check=_positive_moment, deterministic=True, exits=(0, 2),
        known_defect=OverflowError,
    ))
    return tasks


# ---------------------------------------------------------------------------
# zeta: sieve tables and truncated series, and the Euler product
# ---------------------------------------------------------------------------

A2 = 6 / math.pi**2
H2 = 34.0


def _arithmetic_factor_check(expected, tolerance):
    def check(report, _):
        (row,) = _rows(report, "arithmetic_factor")
        _require(abs(row["value"] - expected) < tolerance, f"a_s = {row['value']!r}, not {expected!r}")
    return check


def _conjecture_check(report, _):
    (moment,) = _rows(report, "conjectured_moment")
    (coefficient,) = _rows(report, "rmt_coefficient")
    _require(abs(coefficient["value"] - H2) <= 1e-9 * H2, f"h_2 = {coefficient['value']!r}")
    expected = A2 * H2 / 0.2**8  # (2 sigma - 1)^(s^2 + 2s) at s=2, sigma=0.6
    _require(abs(moment["value"] - expected) <= 1e-6 * expected,
             f"conjectured moment {moment['value']!r} vs {expected!r}")


def _series(report):
    (row,) = _rows(report, "series")
    _require(math.isfinite(row["value"]) and row["value"] > 0, f"series value {row['value']!r}")
    return row


def _criterion09_trend(n_max, sigmas):
    """Criterion 09: (2 sigma - 1)^8 times the s=2 series approaches 34 a_2."""
    target = H2 * A2

    def check(report, done):
        scaled = []
        for sigma in sigmas:
            row = _series(report if sigma == sigmas[-1] else done[f"deriv2.sigma{sigma}"])
            factor = (2 * sigma - 1) ** 8
            value, tail = factor * row["value"], factor * row["tail_estimate"]
            _require(value < 1.02 * target, f"sigma={sigma}: {value} above the limit {target}")
            _require(value + tail >= 0.98 * target, f"sigma={sigma}: {value}+{tail} below {target}")
            scaled.append(value)
        if n_max >= 10**7:  # the criterion states this floor at n_max = 10^7 only
            _require(scaled[0] >= 0.85 * target, f"sigma={sigmas[0]}: {scaled[0]} < 0.85 x {target}")

    return check


def _within_tail(reference):
    def check(report, _):
        row = _series(report)
        _require(abs(row["value"] - reference) <= row["tail_bound"],
                 f"{row['value']!r} not within {row['tail_bound']!r} of {reference!r}")
    return check


def _lindelof_check(reference):
    """sum d(n)^2 n^(-w) = zeta(w)^4 / zeta(2w), here at w = 1.5."""
    def check(report, _):
        row = _series(report)
        _require(row["value"] < reference <= row["value"] + row["tail_bound"],
                 f"{row['value']!r} + tail {row['tail_bound']!r} does not bracket {reference!r}")
        _require(abs(row["value"] + row["tail_estimate"] - reference) <= 0.02 * reference,
                 f"tail estimate {row['tail_estimate']!r} misses {reference - row['value']!r}")
    return check


def zeta(seed: int, size: str) -> list[Task]:
    """Sieve tables and truncated series (part d), the Euler product (e)."""
    del seed  # zeta inputs are fixed
    # Reference values are computed here, before any pass is traced.
    from cuederiv.specfun import zeta_real

    n_max = 10**7 if size == "full" else 10**6
    sigmas = (0.75, 0.65, 0.6)
    tasks = [
        Task("arithmetic_factor.s2", "e",
             ("zeta", "--what", "arithmetic-factor", "--s", "2", "--p-max", "1000000"),
             check=_arithmetic_factor_check(A2, 1e-8), deterministic=True),
        # a_1 = 1 exactly; 664,579 primes give the Euler loop a steady share of the pass.
        Task("arithmetic_factor.s1", "e",
             ("zeta", "--what", "arithmetic-factor", "--s", "1", "--p-max", str(n_max)),
             check=_arithmetic_factor_check(1.0, 1e-10), deterministic=True),
        Task("conjecture", "e", ("zeta", "--what", "conjecture", "--s", "2", "--sigma", "0.6"),
             check=_conjecture_check, deterministic=True),
    ]
    tasks += [
        Task(f"deriv2.sigma{sigma}", "d",
             ("zeta", "--what", "deriv-series", "--s", "2", "--sigma", str(sigma),
              "--n-max", str(n_max)),
             check=_criterion09_trend(n_max, sigmas) if sigma == sigmas[-1] else None,
             deterministic=True)
        for sigma in sigmas
    ]
    tasks += [
        Task("deriv1.sigma0.8", "d",
             ("zeta", "--what", "deriv-series", "--s", "1", "--sigma", "0.8", "--n-max", "1000000"),
             check=_within_tail(zeta_real(1.6, 2)), deterministic=True),
        Task("lindelof2.sigma0.75", "d",
             ("zeta", "--what", "lindelof-series", "--s", "2", "--sigma", "0.75",
              "--n-max", str(n_max)),
             check=_lindelof_check(zeta_real(1.5) ** 4 / zeta_real(3.0)), deterministic=True),
    ]
    return tasks


# Two workloads, each running two task groups back to back (see README.md).
WORKLOADS = {"mc": (mc_moments, mc_zeros), "exact-zeta": (exact, zeta)}


def tasks_for(workload: str, seed: int, size: str) -> list[Task]:
    return [task for group in WORKLOADS[workload] for task in group(seed, size)]


def named_metrics(workload: str, tasks: list[Task], part_s: dict[str, float]) -> dict[str, float]:
    """The parts under the names the design uses (reported, not gated)."""
    if workload == "mc":
        def draws_per_s(N, part):
            return sum(t.draws for t in tasks if t.N == N and t.part == part) / part_s[part]

        return {"draws_per_s.n6": draws_per_s(6, "a"), "draws_per_s.n60": draws_per_s(60, "b"),
                "draws_per_s.n25": draws_per_s(25, "c"), "draws_per_s.n100": draws_per_s(100, "d"),
                "draws_per_s.zeros_n60": draws_per_s(60, "e")}
    return {"exact.rational_s": part_s["a"], "exact.structure_s": part_s["b"],
            "exact.float_s": part_s["c"], "zeta.sieve_s": part_s["d"], "zeta.euler_s": part_s["e"]}
