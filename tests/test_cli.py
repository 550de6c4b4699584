import json
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cuederiv import cli, cue_limit, rmt_mc
from cuederiv.cli import main
from cuederiv.exact_moments import cue_moment_radial, moment_exact, moment_structure


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    return json.loads(out)


class TestExactCommand:
    def test_spec_point_is_five(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--N", "2", "--s", "1", "--u", "1",
            "--mode", "exact", "--route", "determinant",
        )
        assert code == 0
        report = parse_report(out)
        (row,) = report["results"]
        assert row["value"] == {"num": "5", "den": "1", "approx": 5.0}
        assert row["provenance"] == "partition-determinant"

    def test_both_routes_agree(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--N", "4", "--s", "2", "--u", "1/2")
        assert code == 0
        rows = parse_report(out)["results"]
        assert len(rows) == 2
        assert rows[0]["value"] == rows[1]["value"]
        assert {rows[0]["provenance"], rows[1]["provenance"]} == {
            "partition-determinant",
            "structure-expansion",
        }

    @pytest.mark.parametrize("route", ["determinant", "structure"])
    def test_result_past_the_int_digit_limit(self, capsys, route):
        # 4,826 and 4,776 digits: str() of either int stops at 4,300 by default.
        code, out, err = run_cli(
            capsys, "exact", "--N", "400", "--s", "4", "--u", "0.999", "--route", route,
        )
        assert (code, err) == (0, "")
        (row,) = parse_report(out)["results"]
        num, den = row["value"]["num"], row["value"]["den"]
        assert (len(num), len(den)) == (4826, 4776)
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == moment_exact(
            400, 4, Fraction(999, 1000))

    def test_r_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--N", "3", "--s", "1", "--r", "1/2",
            "--route", "determinant",
        )
        value = parse_report(out)["results"][0]["value"]
        # sum j^2 (1/4)^(j-1) = 1 + 4/4 + 9/16
        assert value["num"] == "41" and value["den"] == "16"

    def test_float_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--N", "5", "--s", "1", "--u", "0.25",
            "--mode", "float", "--route", "determinant",
        )
        assert code == 0
        value = parse_report(out)["results"][0]["value"]
        assert isinstance(value, float)

    def test_capability_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--N", "2", "--s", "9", "--u", "1/2")
        assert code == 2
        assert "capability" in err

    def test_structure_route_reaches_the_exact_cap(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--N", "6", "--s", "5", "--u", "1/2")
        assert code == 0
        rows = parse_report(out)["results"]
        assert [row["label"] for row in rows] == ["moment", "moment"]
        assert rows[0]["value"] == rows[1]["value"]

    @pytest.mark.parametrize("argv, limit", [
        (("--s", "5", "--mode", "float"), None),
        (("--s", "9", "--route", "structure"), "the structure route supports s <= 8, got 9"),
        (("--s", "9", "--mode", "float", "--route", "structure"),
         "the structure route supports s <= 8, got 9"),
        (("--s", "9", "--mode", "float"), "the structure route supports s <= 8, got 9; "
                                          "--route determinant reaches s <= 12 in float mode"),
    ], ids=["float-s5", "structure-s9", "float-structure-s9", "float-both-s9"])
    def test_structure_capability_limits(self, capsys, argv, limit):
        code, out, err = run_cli(capsys, "exact", "--N", "6", "--u", "1/2", *argv)
        if limit is None:
            # float mode evaluates the structure route exactly and rounds once
            assert code == 0
            (row,) = [row for row in parse_report(out)["results"]
                      if row["provenance"] == "structure-expansion"]
            assert row["value"] == float(moment_structure(6, 5, Fraction(1, 2)))
            return
        assert code == 2
        assert out == ""
        assert limit in err and err.count("\n") == 1

    def test_float_overflow_is_capability_exit(self, capsys):
        code, out, err = run_cli(
            capsys, "exact", "--N", "200", "--s", "12", "--u", "0.998001",
            "--mode", "float", "--route", "determinant",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("capability limit:") and "overflow" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_usage_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--N", "2")
        assert code == 1
        assert "error" in err

    def test_cue_routes(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--N", "2", "--s", "1", "--u", "1", "--route", "cue-circle"
        )
        assert code == 0
        rows = parse_report(out)["results"]
        assert rows[0]["value"]["num"] == "3"

    @pytest.mark.parametrize("r", ("0.9999999999", "0.99999999999999"))
    def test_float_radial_near_the_circle(self, capsys, r):
        code, out, err = run_cli(
            capsys, "exact", "--N", "10", "--s", "5", "--r", r,
            "--mode", "float", "--route", "cue-radial",
        )
        assert code == 0 and err == ""
        assert "Infinity" not in out and "NaN" not in out
        (row,) = parse_report(out)["results"]
        exact = cue_moment_radial(10, 5, Fraction(float(Fraction(r))))
        assert row["value"] == float(exact) > 0


class TestAsymptCommand:
    def test_micro_spec_example(self, capsys):
        code, out, _ = run_cli(capsys, "asympt", "--regime", "micro", "--s", "1", "--c", "0")
        assert code == 0
        rows = parse_report(out)["results"]
        assert abs(rows[0]["value"] - 1 / 3) < 1e-12
        assert rows[0]["provenance"] == "exp-moment-determinant"
        assert abs(rows[1]["value"] - 1 / 3) < 1e-12
        assert rows[1]["provenance"] == "bessel-kernel-determinant"

    def test_global(self, capsys):
        code, out, _ = run_cli(capsys, "asympt", "--regime", "global", "--s", "1", "--r", "0.5")
        value = parse_report(out)["results"][0]["value"]
        assert abs(value - (1 + 0.25) / 0.75**3) < 1e-12

    def test_zero_density(self, capsys):
        code, out, _ = run_cli(capsys, "asympt", "--regime", "zero-density", "--r", "0.5")
        rows = parse_report(out)["results"]
        assert abs(rows[0]["value"] - 2 * 0.25 / 0.75) < 1e-12
        assert abs(rows[1]["value"] + math.log(0.75)) < 1e-12

    def test_polynomial_moments(self, capsys):
        code, out, _ = run_cli(
            capsys, "asympt", "--regime", "global", "--s", "2", "--r", "0.5",
            "--of", "polynomial",
        )
        value = parse_report(out)["results"][0]["value"]
        assert abs(value - 0.75**-4) < 1e-12

    @pytest.mark.parametrize("regime, flags, N", [
        ("mesoscopic", ["--alpha", "0.5"], "100.7"),
        ("microscopic", ["--c", "1"], "0.5"),
    ], ids=["meso-N-100.7", "micro-N-0.5"])
    def test_polynomial_takes_N_as_given(self, capsys, regime, flags, N):
        # --N was cut to an int: 100.7 printed the value at N = 100, and 0.5
        # failed with "requires N > 0, got N = 0"
        code, out, _ = run_cli(capsys, "asympt", "--regime", regime, "--of", "polynomial",
                               "--s", "2", *flags, "--N", N)
        assert code == 0
        expected = cue_limit(2.0, regime, alpha=0.5, c=1.0, N=float(N))
        assert parse_report(out)["results"][0]["value"] == expected

    @pytest.mark.parametrize("s, r", [("30", "0.9"), ("20", "0.99")])
    def test_global_overflow_is_capability_exit(self, capsys, s, r):
        # At s=30 the 1F1 series overflows; at s=20, r=0.99 the (1-r^2) power
        # underflows to 0 while the quotient exceeds 1e308.
        code, out, err = run_cli(capsys, "asympt", "--regime", "global", "--s", s, "--r", r)
        assert code == 2 and out == ""
        assert err.startswith("capability limit:") and err.count("\n") == 1

    @pytest.mark.parametrize("s, c", [("8", "0"), ("10", "-40")])
    def test_disagreeing_micro_forms_are_capability_exit(self, capsys, s, c):
        # micro_b_bessel is off by a factor 2.9 at (8, 0); micro_b is off by a
        # factor 10 or more at (8, -40) and (10, -40).
        code, out, err = run_cli(capsys, "asympt", "--regime", "micro", "--s", s, "--c", c)
        assert code == 2 and out == ""
        assert err.startswith("capability limit:") and "microscopic forms differ" in err
        assert err.count("\n") == 1

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "asympt", "--regime", "global", "--s", "1")
        assert code == 1
        assert "needs --r" in err

    def test_float_overflow_is_capability_exit(self, capsys):
        # N^(alpha (s^2 + 2s)) = 1e1200 raises OverflowError in float power.
        code, out, err = run_cli(
            capsys, "asympt", "--regime", "meso", "--s", "2", "--alpha", "0.5", "--N", "1e300"
        )
        assert code == 2 and out == ""
        assert err.startswith("capability limit: float overflow") and err.count("\n") == 1

    def test_uncaught_overflow_error_is_capability_exit(self, capsys, monkeypatch):
        # main's last guard: an OverflowError that no library check turned
        # into a CapabilityError
        def overflow(s, r):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "global_moment", overflow)
        code, out, err = run_cli(capsys, "asympt", "--regime", "global", "--s", "1", "--r", "0.5")
        assert code == 2 and out == ""
        assert err == "capability limit: float overflow (math range error)\n"

    @pytest.mark.parametrize("argv, name", [
        ("zeta --what deriv-series --s 2 --sigma 0.6 --n-max 1000000000000", "deriv_moment_series"),
        ("zeta --what arithmetic-factor --s 2 --p-max 100000000000000", "arithmetic_factor"),
    ])
    def test_memory_error_is_capability_exit(self, capsys, monkeypatch, argv, name):
        # numpy raises MemoryError for a table it cannot allocate.  Patched
        # here: under memory overcommit a real oversized allocation can
        # succeed, and touching it can get the process killed.
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, name, out_of_memory)
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err == "capability limit: not enough memory (Unable to allocate 7.28 TiB for an array)\n"

    @pytest.mark.parametrize("argv", [
        "asympt --regime meso --s 7 --alpha 0.5 --N 5e9",
        "asympt --regime micro --s 1 --c -600 --N 1e50",
        "asympt --regime micro --s 1 --c -600 --N 1e300 --of polynomial",
    ])
    def test_infinite_result_is_capability_exit(self, capsys, argv):
        # Every factor is finite; the product leaves double precision.
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err.startswith("capability limit: float overflow") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "asympt --regime meso --s 1 --alpha 0.5 --N -5",
        "asympt --regime micro --s 1 --c 1 --N -5",
        "asympt --regime meso --s 1 --alpha 0.5 --N 0",
        "asympt --regime meso --s 1 --alpha 0.5 --N -5 --of polynomial",
    ])
    def test_nonpositive_N_is_usage_error(self, capsys, argv):
        # these printed a traceback, a negative moment (-20.075) and 0.0
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err.startswith("invalid parameters:") and "requires N > 0" in err
        assert err.count("\n") == 1

    def test_polynomial_micro_rounding_is_capability_exit(self, capsys):
        # The Hankel determinant is a Gram determinant, positive in exact
        # arithmetic; here it rounds to -2.9e61.
        code, out, err = run_cli(
            capsys, "asympt", "--regime", "micro", "--of", "polynomial", "--s", "8", "--c", "-40"
        )
        assert code == 2 and out == ""
        assert err.startswith("capability limit:") and "Hankel determinant" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    ("asympt --regime zero-density", "--r"),
    ("asympt --regime global --r 0.5", "--s"),
    ("asympt --regime joint --s 1 --h 1 --z1 0.3", "--z2"),
    ("asympt --regime global --s 1", "--r"),
    ("asympt --regime meso --s 2 --N 100", "--alpha"),
    ("asympt --regime micro --s 2", "--c"),
    ("mc --N 6 --s 1 --samples 100", "--z"),
    ("mc --what joint --N 6 --s 1 --z1 0.3 --z2 0.5 --samples 100", "--h"),
    ("zeta --what deriv-series --s 2", "--sigma"),
    ("zeta --what conjecture --s 2", "--sigma"),
    ("compare --routes exact,structure --s 2 --r 0.5", "--N"),
])
def test_missing_flag_is_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.endswith(f" needs {flag}\n")


class TestMcCommand:
    def test_persistent_collision_is_capability_exit(self, capsys, monkeypatch):
        # alpha_0 = 1 puts z = 1 on the eigenvalue of every redraw.
        monkeypatch.setattr(
            rmt_mc, "_verblunsky", lambda N, count, rng: np.ones((count, N), dtype=complex)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "mc", "--N", "1", "--s", "1", "--z", "1", "--samples", "10",
            )
        assert code == 2 and out == ""
        assert err.startswith("capability limit:") and err.count("\n") == 1

    def test_moment(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--N", "6", "--s", "1", "--z", "0.5",
            "--samples", "2000", "--seed", "11",
        )
        assert code == 0
        (row,) = parse_report(out)["results"]
        assert row["seed"] == 11 and row["samples"] == 2000
        assert row["generator"] == "pcg64/verblunsky"
        assert row["provenance"] == "monte-carlo-verblunsky"
        assert row["std_error"] > 0
        assert 0 < row["top_contribution_fraction"] < 1

    def test_tail_share_flags_infinite_mean(self, capsys):
        # E|Lambda'/Lambda(z2)|^2 is infinite at |z2| = 1: a few draws carry
        # nearly all of the finite-sample total.
        code, out, _ = run_cli(
            capsys, "mc", "--what", "joint", "--N", "6", "--s", "0", "--h", "1",
            "--z1", "0.3", "--z2", "1", "--samples", "20000", "--seed", "1",
        )
        assert code == 0
        (row,) = parse_report(out)["results"]
        assert row["top_contribution_fraction"] > 0.9

    def test_joint(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--what", "joint", "--N", "8", "--s", "1", "--h", "1",
            "--z1", "0.3", "--z2", "0.5j", "--samples", "1000", "--seed", "3",
        )
        assert code == 0

    def test_overflowing_moment_is_capability_exit(self, capsys):
        # |Lambda'(0.99)|^80 leaves double precision on some draws; no
        # Infinity or NaN may reach the report.
        code, out, err = run_cli(
            capsys, "mc", "--N", "200", "--s", "40", "--z", "0.99",
            "--samples", "100", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("capability limit:") and "overflow" in err
        assert err.count("\n") == 1

    def test_progress_goes_to_stderr_only(self, capsys):
        argv = ["mc", "--N", "6", "--s", "1", "--z", "0.5", "--samples", "2000", "--seed", "3"]
        code, out, err = run_cli(capsys, *argv, "--progress")
        assert code == 0
        # N = 6 packs 65536 draws a chunk, so one line; chunk order across
        # several chunks is checked in test_rmt_mc.
        assert err == "progress: 2000/2000 draws\n"
        _, quiet, quiet_err = run_cli(capsys, *argv)
        assert quiet_err == ""
        loud, quiet = parse_report(out), parse_report(quiet)
        assert loud["config"].pop("progress") and not quiet["config"].pop("progress")
        assert loud.pop("timestamp") and quiet.pop("timestamp")
        assert loud == quiet

    def test_reports_are_deterministic(self, capsys):
        argv = ["mc", "--N", "6", "--s", "1", "--z", "0.5",
                "--samples", "1500", "--seed", "7"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        a = {k: v for k, v in parse_report(out1).items() if k != "timestamp"}
        b = {k: v for k, v in parse_report(out2).items() if k != "timestamp"}
        assert a == b


class TestZetaCommand:
    def test_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeta", "--what", "deriv-series", "--s", "1",
            "--sigma", "0.8", "--n-max", "20000",
        )
        (row,) = parse_report(out)["results"]
        assert row["tail_bound"] > 0
        assert row["provenance"] == "log-convolution-series"

    @pytest.mark.parametrize("what, n_max", [("deriv-series", "2"), ("lindelof-series", "1")])
    def test_too_short_series_is_usage_error(self, capsys, what, n_max):
        code, out, err = run_cli(
            capsys, "zeta", "--what", what, "--s", "2", "--sigma", "0.8", "--n-max", n_max,
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "n_max" in err

    def test_table_csv_export(self, capsys, tmp_path):
        path = tmp_path / "d2.csv"
        code, out, _ = run_cli(
            capsys, "zeta", "--what", "divisor-table", "--s", "2",
            "--n-max", "20", "--csv-out", str(path),
        )
        assert code == 0
        assert path.exists()
        assert parse_report(out)["results"][0]["value"][:6] == [1, 2, 2, 3, 2, 4]

    def test_conjecture(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeta", "--what", "conjecture", "--s", "2",
            "--sigma", "0.6", "--p-max", "10000",
        )
        rows = parse_report(out)["results"]
        ref = (6 / math.pi**2) * 34 / 0.2**8
        assert abs(rows[0]["value"] - ref) < 1e-3 * ref
        assert abs(rows[1]["value"] - 34.0) < 1e-9

    @pytest.mark.parametrize("argv", [
        "arithmetic-factor --s 600 --p-max 100",
        "arithmetic-factor --s 1000 --p-max 100",
        "arithmetic-factor --s 2000 --p-max 100",
        "arithmetic-factor --s 300 --p-max 100",
        "arithmetic-factor --s 25 --p-max 1000",
        "conjecture --s 22 --sigma 0.99 --p-max 1000",
        "conjecture --s 20 --sigma 0.99 --p-max 100",
        "conjecture --s 10 --sigma 0.99 --p-max 100",
    ])
    def test_euler_product_out_of_range_is_capability_exit(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "zeta", "--what", *argv.split())
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("capability limit: ")


class TestCompareCommand:
    def test_exact_vs_structure_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--routes", "exact,structure",
            "--N", "4", "--s", "2", "--r", "0.5",
        )
        assert code == 0
        rows = parse_report(out)["results"]
        assert rows[-1]["passed"] is True

    def test_exact_vs_mc_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--routes", "exact,mc", "--N", "6", "--s", "1",
            "--r", "0.5", "--samples", "20000", "--seed", "7",
        )
        assert code == 0
        rows = parse_report(out)["results"]
        assert "se_normalized" in rows[-1]

    def test_failing_comparison_exits_3(self, capsys):
        # finite-N exact vs the N -> infinity limit at tiny tolerance
        code, out, _ = run_cli(
            capsys, "compare", "--routes", "exact,global",
            "--N", "3", "--s", "1", "--r", "0.5", "--tolerance", "1e-12",
        )
        assert code == 3
        rows = parse_report(out)["results"]
        assert rows[-1]["passed"] is False


class TestZerosCommand:
    def test_sweep_with_overlay(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--N", "10", "--radii", "0.3,0.7071067811865476",
            "--samples", "500", "--seed", "2",
        )
        assert code == 0
        rows = parse_report(out)["results"]
        assert len(rows) == 2
        assert abs(rows[1]["limit"] - 2.0) < 1e-9
        assert rows[0]["value"] <= rows[1]["value"]
        for row in rows:
            assert row["generator"] == "pcg64/verblunsky"
            assert row["provenance"] == "monte-carlo-verblunsky"
            assert isinstance(row["fallback"], int) and 0 <= row["fallback"] <= 500


    def test_one_sample_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "zeros", "--N", "10", "--radii", "0.5", "--samples", "1",
        )
        assert code == 1
        assert out == ""
        assert "requires samples >= 2" in err


@pytest.mark.parametrize("argv", [
    "asympt --regime micro --s 1.5 --c 1",
    "asympt --regime meso --s 1.5 --alpha 0.5 --N 100",
    "zeta --what divisor-table --s 2.5 --n-max 10",
    "zeta --what log-table --s 2.5 --n-max 10",
    "zeta --what deriv-series --s 1.5 --sigma 0.8 --n-max 100",
    "zeta --what lindelof-series --s 1.5 --sigma 0.8 --n-max 100",
    "compare --routes exact,structure --N 4 --s 1.5 --r 0.5",
    "compare --routes exact,closed-s1 --N 4 --s 1.5 --r 0.5",
])
def test_fractional_s_is_usage_error(argv, capsys):
    # these formulas are defined at integer s only; truncating would report
    # the value at another s under a config that names this one
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert "needs an integer --s" in err


_REGIMES = "'global', 'mesoscopic', 'microscopic', 'joint', 'zero-density'"


@pytest.mark.parametrize("argv, message", [
    ("exact --N 5 --s 2 --u x", "invalid parameters: not a rational number: 'x'"),
    ("exact --N 5 --s 2 --u x --mode float", "invalid parameters: not a rational number: 'x'"),
    ("exact --N 5 --s 2 --u 1/0", "invalid parameters: not a rational number: '1/0'"),
    ("exact --N 5 --s 2 --u 1/0 --mode float", "invalid parameters: not a rational number: '1/0'"),
    ("mc --N 6 --s 1 --z abc --samples 10", "argument --z: not a complex number: 'abc'"),
    ("zeros --N 10 --radii 0.5,x --samples 10", "argument --radii: bad radius list: '0.5,x'"),
    ("compare --routes exact --N 4 --s 1 --r 0.5", "compare needs exactly two routes"),
    ("compare --routes exact,nope --N 4 --s 1 --r 0.5", "unknown route 'nope'"),
    ("exact --N 5 --s 2 --route cue-radial --u 1/2", "cue-radial needs --r (rational in exact mode)"),
    ("compare --routes closed-s1,exact --N 4 --s 2 --r 0.5", "route 'closed-s1' is the s=1 squares sum"),
    ("asympt --regime foo --s 1 --r 0.5",
     f"argument --regime: invalid choice: 'foo' (choose from {_REGIMES})"),
    ("exact --N 2", "the following arguments are required: --s"),
    ("zeta --what deriv-series --s 2 --sigma nan --n-max 100",
     "argument --sigma: not a finite number: 'nan'"),
    ("zeta --what lindelof-series --s 2 --sigma inf --n-max 100",
     "argument --sigma: not a finite number: 'inf'"),
    ("asympt --regime global --s nan --r 0.5", "argument --s: not a finite number: 'nan'"),
    ("asympt --regime joint --s 1 --h 1 --z1 nan --z2 0.5j",
     "argument --z1: not a finite number: 'nan'"),
    ("asympt --regime global --s abc --r 0.5", "argument --s: invalid float value: 'abc'"),
    ("mc --N 0 --s 1 --z 0.3 --samples 10", "invalid parameters: requires N >= 1, got N = 0"),
    ("zeros --N 0 --radii 0.5 --samples 10", "invalid parameters: requires N >= 1, got N = 0"),
    ("zeros --N 6 --radii= --samples 10", "invalid parameters: radii must name at least one radius"),
    ("mc --N 6 --s 1 --z 0.3 --samples 10 --threads -2",
     "invalid parameters: requires threads >= 1, got threads = -2"),
    ("zeros --N 6 --radii 0.5 --samples 10 --threads 0",
     "invalid parameters: requires threads >= 1, got threads = 0"),
    ("compare --routes exact,mc --N 6 --s 1 --r 0.5 --samples 10 --threads 0",
     "invalid parameters: requires threads >= 1, got threads = 0"),
    # numpy's "expected non-negative integer" did not name the flag
    ("mc --N 6 --s 1 --z 0.3 --samples 10 --seed -1",
     "invalid parameters: requires seed >= 0, got seed = -1"),
])
def test_bad_input_is_one_line_usage_error(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    # argparse's own errors name the subcommand first, with no usage lines
    argparse_line = f"cuederiv {argv.split()[0]}: error: {message}"
    assert err in (message + "\n", argparse_line + "\n")


# A sequence that would show state left in the shared parser: an error found
# by argparse, --u then --r in one exclusive group (a stale u would show in
# config), a list type, an aliased choice and the csv format.
_STATELESS_SEQUENCE = [
    ["asympt", "--regime", "foo", "--s", "1", "--r", "0.5"],
    ["exact", "--N", "3", "--s", "1", "--u", "1/2"],
    ["exact", "--N", "3", "--s", "1", "--r", "1/2"],
    ["zeros", "--N", "6", "--radii", "0.5,0.7", "--samples", "20", "--seed", "3"],
    ["asympt", "--regime", "MICRO", "--s", "1", "--c", "1"],
    ["exact", "--N", "2", "--s", "1", "--u", "1", "--route", "determinant", "--format", "csv"],
]


def test_shared_parser_keeps_no_state_between_calls(capsys):
    def one_pass():
        runs = []
        for argv in _STATELESS_SEQUENCE:
            code, out, err = run_cli(capsys, *argv)
            runs.append((code, re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out), err))
        return runs

    first = one_pass()
    assert [code for code, _, _ in first] == [1, 0, 0, 0, 0, 0]
    assert '"u": "1/2"' in first[1][1] and '"u": null' in first[2][1]
    assert one_pass() == first


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out, _ = run_cli(capsys, "asympt", "--regime", "global", "--s", "1", "--r", "0.5")
    assert code == 0 and parse_report(out)["results"][0]["label"] == "moment_limit"


def test_regime_aliases_are_case_blind(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--regime", "MICRO", "--s", "1", "--c", "1")
    assert code == 0
    assert parse_report(out)["config"]["regime"] == "microscopic"


class TestCsvFormat:
    def test_csv_projection(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--N", "2", "--s", "1", "--u", "1",
            "--route", "determinant", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "label,value,provenance"
        assert lines[1].startswith("moment,5.0,partition-determinant")
