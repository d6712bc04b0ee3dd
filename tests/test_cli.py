"""Tests for the command-line interface and table writer."""

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from spinboost import cli, verify
from spinboost.cli import main, write_table
from spinboost.relkin import eta_max, eta_profile


def run_cli(argv):
    return main(argv)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        comments = []
        rows = []
        header = None
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            elif header is None:
                header = line.rstrip("\n").split(",")
            else:
                rows.append(line.rstrip("\n").split(","))
    return comments, header, rows


class TestWriteTable:
    def test_empty_records_header_only(self):
        buf = io.StringIO()
        write_table(np.empty((0, 2)), buf, "csv", ("xi", "eta"))
        assert buf.getvalue() == "xi,eta\n"

    def test_single_record(self):
        buf = io.StringIO()
        write_table(np.zeros((1, 2)), buf, "csv", ("xi", "eta"))
        assert buf.getvalue() == "xi,eta\n0,0\n"

    def test_round_trip_at_twelve_digits(self):
        rows = np.array([[math.pi, 1.0 / 3.0], [6.132289479663686, 1e-12]])
        buf = io.StringIO()
        write_table(rows, buf, "csv", ("a", "b"))
        parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
        for orig, back in zip(rows, parsed):
            for value, key in zip(orig, ("a", "b")):
                assert abs(float(back[key]) - value) <= abs(value) * 1e-11

    def test_csv_matches_twelve_digit_format(self):
        rows = np.array([[-0.0, 5e-324, 1e22], [math.pi, -1.0 / 3.0, 2.5e-310]])
        buf = io.StringIO()
        write_table(rows, buf, "csv", ("a", "b", "c"))
        body = buf.getvalue().splitlines()[1:]
        assert body == [",".join(format(x, ".12g") for x in row) for row in rows.tolist()]

    def test_json_round_trip(self):
        rows = np.array([[0.5, 0.25], [1.0, 0.5]])
        buf = io.StringIO()
        write_table(rows, buf, "json", ("xi", "eta"))
        assert json.loads(buf.getvalue()) == [{"xi": 0.5, "eta": 0.25}, {"xi": 1.0, "eta": 0.5}]

    def test_column_count_mismatch_rejected(self):
        # one input form only: a 2-D array with one column per field name
        for rows in (np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2, 2)), [[0.0, 0.0]]):
            with pytest.raises(ValueError, match="shape"):
                write_table(rows, io.StringIO(), "csv", ("a", "b"))

    def test_unwritable_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            write_table(np.ones((1, 1)), "/no/such/dir/table.csv", "csv", ("a",))


def _reference_csv(rows, fieldnames):
    lines = [",".join(fieldnames)] + [",".join(format(x, ".12g") for x in row)
                                      for row in rows.tolist()]
    return "".join(line + "\n" for line in lines)


def _reference_json(rows, fieldnames):
    buf = io.StringIO()
    json.dump([dict(zip(fieldnames, row)) for row in rows.tolist()], buf, indent=2)
    return buf.getvalue() + "\n"


class TestWriteTableBlocks:
    """The block formatter against per-record reference encoders."""

    SPECIAL = [-0.0, 0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7e308, 1e22, 1e16, 0.1, -1.0 / 3.0, math.pi, 123456789012.5]
    NAMES = ("a%b", 'q"u', "\u00e9", "%s")

    @classmethod
    def _rows(cls, n, k):
        """n random records over magnitudes 1e-320..1e300, led by the special floats."""
        rng = np.random.default_rng(n)
        sign = np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
        rows = sign * 10.0 ** rng.uniform(-320.0, 300.0, size=(n, k))
        flat = rows.reshape(-1)
        count = min(flat.size, len(cls.SPECIAL))
        flat[:count] = cls.SPECIAL[:count]
        return rows

    @pytest.mark.parametrize("fmt, reference", [("csv", _reference_csv),
                                                ("json", _reference_json)])
    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_matches_reference_at_block_edges(self, fmt, reference, blocks, extra):
        rows = self._rows(blocks * cli._BLOCK_ROWS + extra, len(self.NAMES))
        buf = io.StringIO()
        write_table(rows, buf, fmt, self.NAMES)
        assert buf.getvalue() == reference(rows, self.NAMES)

    @pytest.mark.parametrize("fmt, reference", [("csv", _reference_csv),
                                                ("json", _reference_json)])
    def test_zero_columns_match_reference(self, fmt, reference):
        buf = io.StringIO()
        write_table(np.empty((3, 0)), buf, fmt, ())
        assert buf.getvalue() == reference(np.empty((3, 0)), ())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_comments_precede_csv_header_only(self, fmt):
        buf = io.StringIO()
        write_table(np.ones((2, 1)), buf, fmt, ("a",), ["seed = 1", "100% done"])
        expected = "# seed = 1\n# 100% done\na\n1\n1\n" if fmt == "csv" else \
            _reference_json(np.ones((2, 1)), ("a",))
        assert buf.getvalue() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_before_writing(self, tmp_path, fmt, bad):
        rows = np.zeros((cli._BLOCK_ROWS + 5, 3))
        rows[-1, 2] = bad
        rows[cli._BLOCK_ROWS + 1, 1] = bad
        buf = io.StringIO()
        with pytest.raises(ValueError, match="'theta'"):
            write_table(rows, buf, fmt, ("xi", "theta", "eta"))
        assert buf.getvalue() == ""
        path = tmp_path / f"table.{fmt}"
        with pytest.raises(ValueError, match="non-finite"):
            write_table(rows, path, fmt, ("xi", "theta", "eta"))
        assert not path.exists()

    def test_non_finite_table_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "eta_profile", lambda xi, theta: np.full(np.shape(xi), np.nan))
        assert run_cli(["scan-eta", "--xi-steps", "2", "--theta-steps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ValueError: column 'eta'")


class TestScanEta:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "eta.csv"
        code = run_cli(
            ["scan-eta", "--xi-max", "3", "--xi-steps", "60", "--theta-steps", "90",
             "--out", str(out)]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["xi", "theta", "eta"]
        assert len(rows) == 60 * 90

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli(["scan-eta", "--xi-steps", "10", "--theta-steps", "10",
                            "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOffdiag:
    def test_final_row_saturation(self, tmp_path):
        out = tmp_path / "offdiag.csv"
        code = run_cli(["offdiag", "--xi", "2.5", "--gamma-t2-max", "4", "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["gamma_t2", "rho_ud_boosted", "rho_ud_rest"]
        final = rows[-1]
        assert abs(float(final[0]) - 4.0) < 1e-12
        assert abs(float(final[1]) - 0.2589) < 2e-4
        assert abs(float(final[2]) - math.exp(-4) / 2) < 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli(["offdiag", "--points", "50", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEvolve:
    def test_paired_columns_and_summary(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert run_cli(["evolve", "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert header == [
            "gamma_t2",
            "rho_uu_analytic", "rho_uu_oracle",
            "re_rho_ud_analytic", "re_rho_ud_oracle",
            "im_rho_ud_analytic", "im_rho_ud_oracle",
        ]
        assert len(rows) == 200
        summary = [c for c in comments if "max_analytic_oracle_diff" in c]
        assert len(summary) == 1
        assert float(summary[0].split("=")[1]) < 1e-8

    def test_general_bloch_vector(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert run_cli(
            ["evolve", "--bloch", "0.3,-0.4,0.5", "--phi", "1.2", "--points", "20",
             "--out", str(out)]
        ) == 0
        comments, _, _ = read_csv(out)
        summary = [c for c in comments if "max_analytic_oracle_diff" in c]
        assert float(summary[0].split("=")[1]) < 1e-8

    def test_bad_bloch_rejected(self, tmp_path, capsys):
        code = run_cli(["evolve", "--bloch", "2,0,0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--bloch" in capsys.readouterr().err


class TestConcurrenceCommand:
    def test_columns_and_references(self, tmp_path):
        out = tmp_path / "conc.csv"
        assert run_cli(
            ["concurrence", "--xi", "2.5", "--gamma-t2-max", "0.5", "--points", "6",
             "--out", str(out)]
        ) == 0
        _, header, rows = read_csv(out)
        assert header == ["gamma_t2", "concurrence", "reference_rest", "reference_boosted"]
        first = rows[0]
        assert abs(float(first[1]) - 1.0) < 1e-10
        for row in rows:
            g_t2 = float(row[0])
            assert abs(float(row[2]) - math.exp(-4 * g_t2)) < 1e-12


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 1.5\npoints = 25   # small grid\ngamma-t2-max = 2\n")
        out = tmp_path / "o.csv"
        assert run_cli(["offdiag", "--config", str(cfg), "--out", str(out)]) == 0
        comments, _, rows = read_csv(out)
        assert any("xi = 1.5" in c for c in comments)
        assert len(rows) == 25

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 1.5\n")
        out = tmp_path / "o.csv"
        assert run_cli(["offdiag", "--config", str(cfg), "--xi", "2.0", "--points", "10",
                        "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert any("xi = 2" in c for c in comments)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli(["offdiag", "--config", str(cfg)]) == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["command", "func", "config", "mu", "vartheta"])
    def test_non_option_keys_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = evolve\n")
        assert run_cli(["offdiag", "--config", str(cfg)]) == 2
        assert "--config" in capsys.readouterr().err

    def test_bad_value_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = abc\n")
        assert run_cli(["offdiag", "--config", str(cfg)]) == 2
        assert "xi" in capsys.readouterr().err

    def test_typed_entries_match_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 7\ngamma-t2-max = 2.5\nbloch = 0,0.6,0.8\n")
        from_config, from_flags = tmp_path / "c.csv", tmp_path / "f.csv"
        assert run_cli(["evolve", "--config", str(cfg), "--out", str(from_config)]) == 0
        assert run_cli(["evolve", "--points", "7", "--gamma-t2-max", "2.5",
                        "--bloch", "0,0.6,0.8", "--out", str(from_flags)]) == 0
        comments, _, rows = read_csv(from_config)
        assert len(rows) == 7 and "# bloch = 0,0.6,0.8" in comments
        assert from_config.read_bytes() == from_flags.read_bytes()


class TestDefaults:
    def test_per_command_defaults_do_not_leak(self, tmp_path):
        counts = []
        for cmd in ("evolve", "concurrence", "evolve"):
            out = tmp_path / f"{cmd}.csv"
            assert run_cli([cmd, "--out", str(out)]) == 0
            counts.append(len(read_csv(out)[2]))
        assert counts == [200, 50, 200]

    def test_import_does_not_load_scipy(self):
        code = "import sys, spinboost.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run_cli(["offdiag", "--frequency", "3"]) == 2

    def test_out_of_domain_named_flag(self, capsys):
        assert run_cli(["offdiag", "--xi", "-1"]) == 2
        assert "--xi" in capsys.readouterr().err

    def test_conflicting_noise_flags(self, capsys):
        # --gamma is the only noise flag; --vartheta is not one
        assert run_cli(["offdiag", "--gamma", "1", "--vartheta", "0.5"]) == 2
        assert "unrecognized arguments: --vartheta 0.5" in capsys.readouterr().err

    def test_noise_flags_other_than_gamma_unrecognised(self, capsys):
        for argv in (["offdiag", "--mu", "2"], ["offdiag", "--vartheta", "0.5"],
                     ["evolve", "--vartheta", "1e-100", "--mu", "1e-60"], ["concurrence", "--mu", "1"]):
            assert run_cli(argv) == 2
            assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_missing_subcommand(self):
        assert run_cli([]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["offdiag", "--xi", "inf"], "--xi"),
        (["offdiag", "--vartheta", "inf"], "--vartheta"),
        (["evolve", "--gamma-t2-max", "inf"], "--gamma-t2-max"),
        (["evolve", "--bloch=nan,0,0"], "--bloch"),
        (["verify", "--seed", "-1"], "--seed"),
        (["offdiag", "--gamma", "1e-307", "--gamma-t2-max", "100"], "--gamma-t2-max"),
    ])
    def test_bad_value_names_flag(self, capsys, argv, flag):
        assert run_cli(argv) == 2
        assert flag in capsys.readouterr().err


class TestRuntimeErrors:
    def test_value_error_exits_one(self, monkeypatch, capsys):
        def broken(xi, theta):
            raise ValueError("injected")

        monkeypatch.setattr(cli, "eta_profile", broken)
        assert run_cli(["scan-eta", "--xi-steps", "2", "--theta-steps", "2"]) == 1
        assert capsys.readouterr().err == "error: ValueError: injected\n"

    def test_overflow_exits_one_without_traceback(self):
        # kappa overflows, so the oracle's rotation angle 2 kappa mu t B has no value
        proc = subprocess.run([sys.executable, "-m", "spinboost.cli", "evolve", "--xi", "1000",
                               "--theta", "0.5", "--points", "3"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""
        assert "rapidity" in proc.stderr

    @pytest.mark.parametrize("argv, flag", [
        (["offdiag", "--gamma", "1e-320"], "--gamma"),
        (["offdiag", "--gamma", "5e-324"], "--gamma"),
        (["concurrence", "--gamma", "0"], "--gamma"),
        (["evolve", "--gamma", "-1"], "--gamma"),
    ])
    def test_subnormal_rate_rejected(self, capsys, argv, flag):
        assert run_cli(argv + ["--points", "3"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: must be a normal float > 0")


class TestRapidityRange:
    def test_eta_max_exact_at_tiny_rapidity(self, tmp_path):
        out = tmp_path / "etamax.json"
        assert run_cli(["eta-max", "--xi-max", "1e-7", "--xi-steps", "11", "--format", "json",
                        "--out", str(out)]) == 0
        for row in json.loads(out.read_text())[1:]:
            exact = math.tanh(row["xi"] / 2) ** 4
            assert abs(row["eta_max"] - exact) <= 1e-12 * exact

    def test_scan_eta_at_huge_rapidity(self, tmp_path):
        out = tmp_path / "eta.csv"
        assert run_cli(["scan-eta", "--xi-max", "1000", "--xi-steps", "3", "--theta-steps", "3",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        values = [[float(v) for v in row] for row in rows]
        assert len(values) == 9 and all(math.isfinite(v) for row in values for v in row)
        assert all(eta == 0.0 for _, theta, eta in values if theta == 0.0)

    @pytest.mark.parametrize("xi, theta", [(400, 0.5), (1000, 0.5), (1e6, None), (1000, 0.0),
                                           (1e6, 1e-300)])
    def test_offdiag_at_every_finite_rapidity(self, tmp_path, xi, theta):
        out = tmp_path / "offdiag.json"
        argv = ["offdiag", "--xi", str(xi), "--points", "5", "--format", "json", "--out", str(out)]
        assert run_cli(argv + ([] if theta is None else ["--theta", str(theta)])) == 0
        # sech(5e5) underflows, so theta_opt at xi = 1e6 is 0: the axis is ez, and
        # the boosted spin dephases exactly as at rest
        eta = eta_profile(xi, eta_max(xi).theta_opt if theta is None else theta)
        rows = json.loads(out.read_text())
        assert all(math.isfinite(v) for row in rows for v in row.values())
        assert rows[0]["rho_ud_boosted"] == 0.5
        for row in rows[1:]:
            if eta > 0:  # gamma' t**2 overflows: the coherence sits at eta/2
                assert abs(row["rho_ud_boosted"] - eta / 2) <= 1e-15
            else:
                assert row["rho_ud_boosted"] == row["rho_ud_rest"]

    def test_evolve_where_gamma_prime_overflows(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert run_cli(["evolve", "--xi", "400", "--theta", "0.5", "--points", "3",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 3 and all(math.isfinite(float(v)) for row in rows for v in row)


class TestOracleWarning:
    def test_under_resolved_oracle_warns(self, tmp_path, capsys):
        out = tmp_path / "evolve.csv"
        assert run_cli(["evolve", "--xi", "2.9", "--theta", "1.5", "--phi", "1.0",
                        "--bloch=0.3,-0.5,0.6", "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: ") and "--nodes" in err[0]
        assert len(read_csv(out)[2]) == 200

    def test_defaults_do_not_warn(self, tmp_path, capsys):
        assert run_cli(["evolve", "--out", str(tmp_path / "evolve.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_under_resolved_concurrence_warns(self, tmp_path, capsys):
        # at gamma_t2 = 10, kappa^2 ~ 100 puts gamma' t^2 beyond 201 nodes;
        # exp(-4 gamma' t^2) is 0 there, and the oracle writes 6.28e-05
        out = tmp_path / "conc.csv"
        assert run_cli(["concurrence", "--xi", "3", "--theta", "1.5", "--gamma-t2-max", "40",
                        "--points", "5", "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: ") and "--nodes" in err[0]
        assert "reference_boosted" in err[0]
        rows = read_csv(out)[2]
        assert len(rows) == 5 and float(rows[1][1]) > 1e-5  # the table is not altered

    def test_concurrence_defaults_do_not_warn(self, tmp_path, capsys):
        assert run_cli(["concurrence", "--out", str(tmp_path / "conc.csv")]) == 0
        assert capsys.readouterr().err == ""


class TestVerifyFormat:
    RESULTS = [verify.CheckResult("first_check", np.True_, "x=1 (tol 2)"),
               verify.CheckResult("second_check", False, "y=3 (tol 2)")]

    @pytest.fixture(autouse=True)
    def _stub_checks(self, monkeypatch):
        monkeypatch.setattr(verify, "run_checks", lambda seed: self.RESULTS)

    def test_json_report(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--seed", "7", "--format", "json", "--out", str(out)]) == 1
        assert json.loads(out.read_text()) == {
            "seed": 7, "passed": 1, "total": 2,
            "checks": [{"name": "first_check", "passed": True, "detail": "x=1 (tol 2)"},
                       {"name": "second_check", "passed": False, "detail": "y=3 (tol 2)"}],
        }
        assert out.read_text().endswith("}\n")

    @pytest.mark.parametrize("argv", [[], ["--format", "csv"]])
    def test_text_report_otherwise(self, capsys, argv):
        assert run_cli(["verify", "--seed", "7", *argv]) == 1
        assert capsys.readouterr().out == (
            "# verification suite, seed = 7\n"
            "PASS first_check: x=1 (tol 2)\n"
            "FAIL second_check: y=3 (tol 2)\n"
            "verify: 1/2 checks passed\n")


class TestJsonOutput:
    def test_json_format(self, tmp_path):
        out = tmp_path / "eta.json"
        assert run_cli(["scan-eta", "--xi-steps", "3", "--theta-steps", "3",
                        "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 9
        assert set(data[0]) == {"xi", "theta", "eta"}
