"""Command-line front end.

Subcommands run single evaluations (exact / asymptotic / Monte Carlo / zeta
side), cross-route comparisons, and zero-count sweeps, and emit reports as
JSON (canonical) or CSV (lossy projection).  Identical config and seed give
byte-identical JSON apart from the timestamp field.

Exit codes: 0 ok, 1 usage error, 2 capability limit, 3 comparison failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .asymptotics import (
    _scaled,
    cue_limit,
    expected_log_integral,
    expected_zero_count,
    global_moment,
    joint_moment,
    meso_moment,
    micro_b,
    micro_b_bessel,
)
from .errors import CapabilityError
from .exact_moments import (
    FLOAT_S_CAP,
    cue_moment_integer,
    cue_moment_ks,
    cue_moment_radial,
    moment_exact,
    moment_structure,
)
from .rmt_mc import estimate_joint_moment, estimate_moment, mean_zero_counts
from .zeta import (
    arithmetic_factor,
    conjecture_rhs,
    deriv_moment_series,
    divisor_table,
    lindelof_series,
    log_convolution_table,
    rmt_leading_coefficient,
)

USAGE_EXIT = 1
CAPABILITY_EXIT = 2
COMPARISON_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit2(f"{self.prog}: error: {message}")


class SystemExit2(Exception):
    """Usage error carrying a message; mapped to exit code 1."""


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def _finite(convert):
    """Flag type `convert` that also refuses nan and inf."""

    def parse(text):
        value = convert(text)
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_REGIME_ALIASES = {"meso": "mesoscopic", "micro": "microscopic", "zeros": "zero-density"}


def _radii(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad radius list: {text!r}") from exc


def _need(args, what, *flags):
    """Usage error naming the flags among `flags` that `what` needs and args lacks."""
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise SystemExit2(f"{what} needs {', '.join(missing)}")


def _integer_s(args) -> int:
    """--s for a formula defined at integer s only; a fraction is a usage error."""
    if not float(args.s).is_integer():
        raise SystemExit2(f"{args.command} needs an integer --s here, got {args.s}")
    return int(args.s)


def _jsonable(value):
    """JSON form of a value: Fraction as num/den/approx, complex as re/im, lists by item.

    num and den go through Decimal, which prints every digit; str() of an int
    stops at sys.get_int_max_str_digits() (4,300 by default).
    """
    if isinstance(value, Fraction):
        return {"num": str(Decimal(value.numerator)), "den": str(Decimal(value.denominator)),
                "approx": float(value)}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _result(label: str, value, provenance: str, **extra):
    row = {"label": label, "value": _jsonable(value), "provenance": provenance}
    row.update(extra)
    return row


def _mc_row(label, est, **extra):
    """A Monte Carlo estimate's row, with the fields every such row carries."""
    return _result(label, est.mean, "monte-carlo-verblunsky", std_error=est.std_error,
                   samples=est.samples, seed=est.seed, generator=est.generator, **extra)


def _mc_options(args):
    """Thread count and progress callback for a Monte Carlo call."""

    def show(done, total):
        print(f"progress: {done}/{total} draws", file=sys.stderr)

    return {"threads": args.threads, "progress": show if args.progress else None}


def build_parser() -> _Parser:
    parser = _Parser(prog="cuederiv", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads for Monte Carlo (default: 1)")
    common.add_argument("--progress", action="store_true",
                        help="print Monte Carlo progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("exact", help="finite-N moment formulas", parents=[common])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--u", type=str, help="|z|^2 (rational like 1/2 in exact mode)")
    group.add_argument("--r", type=str, help="|z| (rational in exact mode)")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument(
        "--route",
        choices=("determinant", "structure", "both", "cue-circle", "cue-radial"),
        default="both",
    )

    p = sub.add_parser("asympt", help="large-N regime formulas", parents=[common])
    p.add_argument("--regime", required=True,
                   type=lambda text: _REGIME_ALIASES.get(text.strip().lower(), text.strip().lower()),
                   choices=("global", "mesoscopic", "microscopic", "joint", "zero-density"),
                   help="global | mesoscopic (meso) | microscopic (micro) | joint | zero-density (zeros)")
    p.add_argument("--s", type=_finite(float), default=None)
    p.add_argument("--h", type=_finite(float), default=None)
    p.add_argument("--r", type=_finite(float), default=None)
    p.add_argument("--alpha", type=_finite(float), default=None)
    p.add_argument("--c", type=_finite(float), default=None)
    p.add_argument("--N", type=_finite(float), default=None)
    p.add_argument("--z1", type=_finite(_complex), default=None)
    p.add_argument("--z2", type=_finite(_complex), default=None)
    p.add_argument("--of", choices=("derivative", "polynomial"), default="derivative",
                   help="moments of the derivative or of the polynomial itself")

    p = sub.add_parser("mc", help="Monte Carlo estimators", parents=[common])
    p.add_argument("--what", choices=("moment", "joint"), default="moment")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=_finite(float), required=True)
    p.add_argument("--h", type=_finite(float), default=None)
    p.add_argument("--z", type=_finite(_complex), default=None)
    p.add_argument("--z1", type=_finite(_complex), default=None)
    p.add_argument("--z2", type=_finite(_complex), default=None)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("zeta", help="Dirichlet series, Euler products, conjectured asymptotics", parents=[common])
    p.add_argument("--what", required=True,
                   choices=("divisor-table", "log-table", "deriv-series",
                            "lindelof-series", "arithmetic-factor", "conjecture"))
    p.add_argument("--s", type=_finite(float), required=True)
    p.add_argument("--sigma", type=_finite(float), default=None)
    p.add_argument("--n-max", type=int, default=100000)
    p.add_argument("--p-max", type=int, default=100000)
    p.add_argument("--csv-out", type=str, default=None,
                   help="write the full table to this CSV file (table subcommands)")

    p = sub.add_parser("compare", help="run two routes on one point and compare", parents=[common])
    p.add_argument("--routes", required=True,
                   help="comma pair from exact,structure,closed-s1,mc,global")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--s", type=_finite(float), required=True)
    p.add_argument("--r", type=_finite(float), required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=_finite(float), default=1e-9,
                   help="relative tolerance for deterministic route pairs")
    p.add_argument("--se-multiplier", type=_finite(float), default=5.0,
                   help="allowed discrepancy in standard errors when MC is involved")

    p = sub.add_parser("zeros", help="Monte Carlo zero-count sweep with the limit overlay", parents=[common])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--radii", type=_radii, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _run_exact(args):
    number = _fraction if args.mode == "exact" else (lambda text: float(_fraction(text)))
    r = number(args.r) if args.r is not None else None
    u = number(args.u) if args.u is not None else r ** 2
    if r is None and args.mode == "float":
        r = math.sqrt(u)
    if args.route == "cue-circle":
        return [_result("cue_moment", cue_moment_integer(args.N, args.s),
                        "selberg-product-circle"),
                _result("cue_moment", cue_moment_ks(args.N, args.s),
                        "gamma-product-circle")]
    if args.route == "cue-radial":
        if r is None:
            raise SystemExit2("cue-radial needs --r (rational in exact mode)")
        return [_result("cue_moment", cue_moment_radial(args.N, args.s, r),
                        "block-determinant-ratio")]
    rows = []
    for route, name in (("determinant", "exact"), ("structure", "structure")):
        if args.route in (route, "both"):
            provenance, evaluate = _ROUTES[name]
            try:
                rows.append(_result("moment", evaluate(args, u)[0], provenance))
            except CapabilityError as exc:
                # both routes reach the structure route's cap only in float mode, s = 9..12
                if args.route == "both":
                    raise CapabilityError(f"{exc}; --route determinant reaches "
                                          f"s <= {FLOAT_S_CAP} in float mode") from None
                raise
    return rows


def _run_asympt(args):
    regime = args.regime
    if regime == "zero-density":
        _need(args, regime, "r")
        return [
            _result("expected_zeros", expected_zero_count(args.r), "zero-density-limit"),
            _result("log_integral", expected_log_integral(args.r),
                    "integrated-zero-density"),
        ]
    _need(args, regime, "s")
    if regime == "joint":
        _need(args, regime, "h", "z1", "z2")
        return [_result("joint_moment", joint_moment(args.s, args.h, args.z1, args.z2),
                        "gaussian-joint-limit")]
    if args.of == "polynomial":
        limit = cue_limit(args.s, regime, r=args.r, alpha=args.alpha, c=args.c, N=args.N)
        return [_result("cue_moment_limit", limit, "polynomial-moment-limit")]
    if regime == "global":
        _need(args, regime, "r")
        return [_result("moment_limit", global_moment(args.s, args.r),
                        "hypergeometric-global-limit")]
    if regime == "mesoscopic":
        _need(args, regime, "alpha", "N")
        return [_result("moment_asymptotic", meso_moment(_integer_s(args), args.alpha, args.N),
                        "laguerre-mesoscopic")]
    # microscopic
    _need(args, regime, "c")
    s = _integer_s(args)
    coeff, bessel = micro_b(s, args.c), micro_b_bessel(s, args.c)
    # Both forms lose accuracy as s grows or c falls; neither is trusted where they disagree.
    if not abs(bessel - coeff) <= 1e-6 * abs(coeff):
        raise CapabilityError(f"the two microscopic forms differ by more than 1e-6 at s={s}, "
                              f"c={args.c}: {coeff:.6g} and {bessel:.6g}")
    rows = [_result("coefficient", coeff, "exp-moment-determinant"),
            _result("coefficient", bessel, "bessel-kernel-determinant")]
    if args.N is not None:
        rows.append(_result("moment_asymptotic",
                            _scaled(coeff, args.N, s * s + 2 * s, "microscopic moment"),
                            "exp-moment-determinant"))
    return rows


def _run_mc(args):
    if args.what == "moment":
        _need(args, "mc moment", "z")
        est = estimate_moment(args.N, args.s, args.z, args.samples, args.seed,
                              **_mc_options(args))
    else:
        _need(args, "mc joint", "h", "z1", "z2")
        est = estimate_joint_moment(args.N, args.s, args.h, args.z1, args.z2,
                                    args.samples, args.seed, **_mc_options(args))
    extra = {"resampled": est.resampled}
    if est.top_contribution_fraction is not None:
        extra["top_contribution_fraction"] = est.top_contribution_fraction
    return [_mc_row("mc_mean", est, **extra)]


def _run_zeta(args):
    what = args.what
    if what in ("divisor-table", "log-table"):
        s = _integer_s(args)
        if what == "divisor-table":
            table, label = divisor_table(s, args.n_max), f"d_{s}"
        else:
            table, label = log_convolution_table(s, args.n_max), f"log*^{s}"
        rows = [_result("table_head", table[1:11].tolist(), "dirichlet-sieve",
                        n_max=args.n_max, table_label=label)]
        if args.csv_out:
            # Rows `n,value` with repr'd floats and CRLF line ends, byte for
            # byte what the csv module writes.
            with open(args.csv_out, "w", newline="") as handle:
                handle.write("n,value\r\n")
                handle.writelines(f"{n},{v!r}\r\n" for n, v in enumerate(table[1:].tolist(), 1))
            rows.append(_result("csv_path", args.csv_out, "dirichlet-sieve"))
        return rows
    if what in ("deriv-series", "lindelof-series"):
        _need(args, what, "sigma")
        fn = deriv_moment_series if what == "deriv-series" else lindelof_series
        res = fn(_integer_s(args), args.sigma, args.n_max)
        return [_result("series", res.value,
                        "log-convolution-series" if what == "deriv-series" else "divisor-series",
                        tail_bound=res.tail_bound, tail_estimate=res.tail_estimate,
                        n_max=res.n_max)]
    if what == "arithmetic-factor":
        res = arithmetic_factor(args.s, args.p_max)
        return [_result("arithmetic_factor", res.value, "euler-product",
                        tail_bound=res.tail_bound, p_max=res.n_max)]
    # conjecture
    _need(args, what, "sigma")
    return [
        _result("conjectured_moment", conjecture_rhs(args.s, args.sigma, args.p_max),
                "conjectured-asymptotic"),
        _result("rmt_coefficient", rmt_leading_coefficient(args.s),
                "hypergeometric-circle-coefficient"),
    ]


def _route_n(args, name):
    _need(args, f"route {name!r}", "N")
    return args.N


def _closed_s1(args, u):
    N = _route_n(args, "closed-s1")
    if _integer_s(args) != 1:
        raise SystemExit2("route 'closed-s1' is the s=1 squares sum")
    return sum(j * j * u ** (j - 1) for j in range(1, N + 1)), {}


def _mc_route(args, u):
    est = estimate_moment(_route_n(args, "mc"), args.s, args.r, args.samples, args.seed,
                          **_mc_options(args))
    return est.mean, {"std_error": est.std_error}


# route -> (provenance, evaluate(args, u) -> (value, extra row fields)).  The
# evaluators look library functions up when called, so a patched module
# attribute (monkeypatch, tracing) takes effect.
_ROUTES = {
    "exact": ("partition-determinant", lambda args, u: (
        moment_exact(_route_n(args, "exact"), _integer_s(args), u), {})),
    "structure": ("structure-expansion", lambda args, u: (
        moment_structure(_route_n(args, "structure"), _integer_s(args), u), {})),
    "closed-s1": ("squares-geometric-sum", _closed_s1),
    "mc": ("monte-carlo-verblunsky", _mc_route),
    "global": ("hypergeometric-global-limit", lambda args, u: (
        global_moment(args.s, args.r), {})),
}


def _compare_routes(args):
    names = [part.strip() for part in args.routes.split(",") if part.strip()]
    if len(names) != 2:
        raise SystemExit2("compare needs exactly two routes")
    u = args.r * args.r
    rows = []
    for name in names:
        if name not in _ROUTES:
            raise SystemExit2(f"unknown route {name!r}")
        provenance, evaluate = _ROUTES[name]
        value, extra = evaluate(args, u)
        rows.append(_result(name, float(value), provenance, **extra))
    a, b = (row["value"] for row in rows)
    absolute = abs(a - b)
    relative = absolute / max(abs(a), abs(b), 1e-300)
    ses = {row["label"]: row["std_error"] for row in rows if "std_error" in row}
    if ses:
        combined_se = math.sqrt(sum(se * se for se in ses.values()))
        normalized = absolute / combined_se if combined_se else math.inf
        check = {"se_normalized": normalized, "criterion": f"<= {args.se_multiplier} SE",
                 "passed": normalized <= args.se_multiplier}
    else:
        check = {"criterion": f"relative <= {args.tolerance}",
                 "passed": relative <= args.tolerance}
    rows.append(_result("discrepancy", absolute, "cross-route", relative=relative, **check))
    return rows


def _run_zeros(args):
    estimates = mean_zero_counts(args.N, args.radii, args.samples, args.seed,
                                 **_mc_options(args))
    return [_mc_row("zero_count", est, r=r, fallback=est.fallback, limit=expected_zero_count(r))
            for r, est in zip(args.radii, estimates)]


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print("label,value,provenance")
    for row in report["results"]:
        value = row["value"]
        if isinstance(value, dict):
            value = value["approx"]
        print(f"{row['label']},{value!r},{row['provenance']}")


_COMMANDS = {
    "exact": _run_exact,
    "asympt": _run_asympt,
    "mc": _run_mc,
    "zeta": _run_zeta,
    "compare": _compare_routes,
    "zeros": _run_zeros,
}


# Built once per process and shared by every main() call.  Reuse is safe:
# parse_args builds a fresh Namespace on each call and never changes the
# parser; the `type` callables (_finite's, _complex, _radii, the --regime
# lambda) return new objects each time; _Parser.error raises and stores nothing.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        results = _COMMANDS[args.command](args)
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_EXIT
    except CapabilityError as exc:
        print(f"capability limit: {exc}", file=sys.stderr)
        return CAPABILITY_EXIT
    except OverflowError as exc:
        print(f"capability limit: float overflow ({exc})", file=sys.stderr)
        return CAPABILITY_EXIT
    except MemoryError as exc:
        print(f"capability limit: not enough memory ({exc})", file=sys.stderr)
        return CAPABILITY_EXIT
    except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return USAGE_EXIT

    config = {key: _jsonable(value) for key, value in vars(args).items()}
    report = {
        "command": args.command,
        "config": config,
        "library_version": __version__,
        "results": results,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _emit(report, args.format)
    return 0 if all(row.get("passed", True) for row in results) else COMPARISON_EXIT


if __name__ == "__main__":
    sys.exit(main())
