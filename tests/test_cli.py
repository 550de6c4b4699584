import json
import math

import pytest

from cuederiv.cli import main


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

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "asympt", "--regime", "global", "--s", "1")
        assert code == 1
        assert "needs --r" in err


class TestMcCommand:
    def test_moment(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--N", "6", "--s", "1", "--z", "0.5",
            "--samples", "2000", "--seed", "11",
        )
        assert code == 0
        (row,) = parse_report(out)["results"]
        assert row["seed"] == 11 and row["samples"] == 2000
        assert row["generator"] == "pcg64/verblunsky"
        assert row["std_error"] > 0

    def test_joint(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--what", "joint", "--N", "8", "--s", "1", "--h", "1",
            "--z1", "0.3", "--z2", "0.5j", "--samples", "1000", "--seed", "3",
        )
        assert code == 0

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


class TestCsvFormat:
    def test_csv_projection(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--N", "2", "--s", "1", "--u", "1",
            "--route", "determinant", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "label,value,provenance"
        assert lines[1].startswith("moment,5.0,partition-determinant")
