"""Tests for the command-line interface and table writer."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from reference import assert_same_text
from spinboost import cli, oracle, verify
from spinboost.cli import main, write_table
from spinboost.relkin import Scenario, eta_max, eta_profile
from spinboost.spinalg import require_valid


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
        write_table((np.empty(0), np.empty(0)), buf, "csv", ("xi", "eta"))
        assert buf.getvalue() == "xi,eta\n"

    def test_single_record(self):
        buf = io.StringIO()
        write_table((np.zeros(1), np.zeros(1)), buf, "csv", ("xi", "eta"))
        assert buf.getvalue() == "xi,eta\n0,0\n"

    def test_round_trip_at_twelve_digits(self):
        rows = np.array([[math.pi, 1.0 / 3.0], [6.132289479663686, 1e-12]])
        buf = io.StringIO()
        write_table(tuple(rows.T), buf, "csv", ("a", "b"))
        parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
        for orig, back in zip(rows, parsed):
            for value, key in zip(orig, ("a", "b")):
                assert abs(float(back[key]) - value) <= abs(value) * 1e-11

    def test_csv_matches_twelve_digit_format(self):
        rows = np.array([[-0.0, 5e-324, 1e22], [math.pi, -1.0 / 3.0, 2.5e-310]])
        buf = io.StringIO()
        write_table(tuple(rows.T), buf, "csv", ("a", "b", "c"))
        body = buf.getvalue().split("\n", 1)[1]
        assert_same_text(body, "".join(",".join(format(x, ".12g") for x in row) + "\n"
                                       for row in rows.tolist()))

    def test_json_round_trip(self):
        rows = np.array([[0.5, 0.25], [1.0, 0.5]])
        buf = io.StringIO()
        write_table(tuple(rows.T), buf, "json", ("xi", "eta"))
        assert json.loads(buf.getvalue()) == [{"xi": 0.5, "eta": 0.25}, {"xi": 1.0, "eta": 0.5}]

    def test_column_count_mismatch_rejected(self, tmp_path):
        # one float array per field name, of the records' shape (n,) or (outer, inner),
        # or a grid axis (outer, 1) or (1, inner); an array of rows is no tuple of fields
        z = np.zeros
        for rows in ((z(2), z(2), z(2)), (z(2),), (z(2), z(3)), (z((3, 4)), z((3, 2))),
                     (z((3, 4)), z((3, 4, 1))), (z((2, 2, 2, 2)), z((2, 2, 2, 2))),
                     (z(4), z((3, 4))), (z(2, dtype=int), z(2)), (z((3, 1), complex), z((3, 4))),
                     (z(()), z(())), ([0.0, 0.0], [0.0, 0.0]), z((2, 2)), z((2, 3))):
            buf = io.StringIO()
            with pytest.raises(ValueError, match="shape"):
                write_table(rows, buf, "csv", ("a", "b"))
            assert buf.getvalue() == ""
            with pytest.raises(ValueError, match="shape"):
                write_table(rows, tmp_path / "table.csv", "csv", ("a", "b"))
            assert not (tmp_path / "table.csv").exists()

    def test_unwritable_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            write_table((np.ones(1),), "/no/such/dir/table.csv", "csv", ("a",))


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
    @pytest.mark.parametrize("blocks, extra", [
        (0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3),
        (0, cli._SHORT_COLUMN - 1), (0, cli._SHORT_COLUMN), (0, cli._SHORT_COLUMN + 1),
        (1, cli._SHORT_COLUMN), (1, cli._SHORT_COLUMN + 1)])
    def test_matches_reference_at_block_edges(self, monkeypatch, fmt, reference, blocks, extra):
        n = blocks * cli._BLOCK_ROWS + extra
        rows = self._rows(n, len(self.NAMES))
        kernel, calls = cli._vector_cells, []
        monkeypatch.setattr(cli, "_vector_cells", lambda *a: calls.append(1) or kernel(*a))
        buf = io.StringIO()
        write_table(tuple(rows.T), buf, fmt, self.NAMES)
        assert_same_text(buf.getvalue(), reference(rows, self.NAMES))
        # a column longer than _SHORT_COLUMN goes through the kernel, a shorter one does not
        sizes = [min(cli._BLOCK_ROWS, n - i) for i in range(0, n, cli._BLOCK_ROWS)]
        assert len(calls) == len(self.NAMES) * sum(size > cli._SHORT_COLUMN for size in sizes)

    @pytest.mark.parametrize("fmt, reference", [("csv", _reference_csv),
                                                ("json", _reference_json)])
    def test_reused_block_buffer_matches_reference(self, fmt, reference):
        # the first block's longest texts are followed by short ones in the
        # second block, which reuses its buffer, and in the tail: 0 from the
        # kernel and 1e-300 from Python's formatter
        rows = np.zeros((2 * cli._BLOCK_ROWS + 3, len(self.NAMES)))
        rows[:cli._BLOCK_ROWS] = -1.23456789012e-300
        rows[cli._BLOCK_ROWS:, 1::2] = 1e-300
        buf = io.StringIO()
        write_table(tuple(rows.T), buf, fmt, self.NAMES)
        assert_same_text(buf.getvalue(), reference(rows, self.NAMES))

    @pytest.mark.parametrize("fmt, reference", [("csv", _reference_csv),
                                                ("json", _reference_json)])
    def test_zero_columns_match_reference(self, fmt, reference):
        # no fields: their broadcast shape is (), one record
        buf = io.StringIO()
        write_table((), buf, fmt, ())
        assert_same_text(buf.getvalue(), reference(np.empty((1, 0)), ()))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_comments_precede_csv_header_only(self, fmt):
        buf = io.StringIO()
        write_table((np.ones(2),), buf, fmt, ("a",), ["seed = 1", "100% done"])
        expected = "# seed = 1\n# 100% done\na\n1\n1\n" if fmt == "csv" else \
            _reference_json(np.ones((2, 1)), ("a",))
        assert_same_text(buf.getvalue(), expected)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_before_writing(self, tmp_path, fmt, bad):
        rows = np.zeros((cli._BLOCK_ROWS + 5, 3))
        rows[-1, 2] = bad
        rows[cli._BLOCK_ROWS + 1, 1] = bad
        buf = io.StringIO()
        with pytest.raises(ValueError, match="'theta'"):
            write_table(tuple(rows.T), buf, fmt, ("xi", "theta", "eta"))
        assert buf.getvalue() == ""
        path = tmp_path / f"table.{fmt}"
        with pytest.raises(ValueError, match="non-finite"):
            write_table(tuple(rows.T), path, fmt, ("xi", "theta", "eta"))
        assert not path.exists()

    def test_non_finite_table_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "eta_profile", lambda xi, theta: np.full(np.shape(xi), np.nan))
        assert run_cli(["scan-eta", "--xi-steps", "2", "--theta-steps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ValueError: column 'eta'")


class TestWriteTableGrid:
    """Grid fields (outer, inner), axes among them, against the reference encoders of
    their records."""

    NAMES = ("x%s", "y", "z", '"w"')
    FORMATS = [("csv", _reference_csv), ("json", _reference_json)]

    @classmethod
    def _grid(cls, outer, inner):
        """Field 0 an axis (outer, 1), field 1 an axis (1, inner), the rest full.

        Every column is led by the special floats of TestWriteTableBlocks.
        """
        rows = TestWriteTableBlocks._rows
        full = rows(outer * inner, len(cls.NAMES)).reshape(outer, inner, len(cls.NAMES))
        return (rows(outer, 1), rows(inner, 1).T, *np.moveaxis(full[:, :, 2:], -1, 0))

    def _check(self, fields, fmt, reference):
        buf = io.StringIO()
        write_table(fields, buf, fmt, self.NAMES)
        records = np.stack(np.broadcast_arrays(*fields), axis=-1).reshape(-1, len(self.NAMES))
        assert_same_text(buf.getvalue(), reference(records, self.NAMES))

    @pytest.mark.parametrize("fmt, reference", FORMATS)
    @pytest.mark.parametrize("outer, inner", [
        # (1, n) and (n, 1): one axis holds one value, (1, 1)
        (1, 1), (1, 9), (9, 1), (2, 2), (0, 3), (3, 0), (64, 64), (63, 65), (17, 241),
        # square: the axes have one length, and only their shapes tell them apart
        (3, 3), (300, 300),
        # about half a block and about a block
        *[shape for b in (cli._BLOCK_ROWS // 2, cli._BLOCK_ROWS) for shape in (
            (1, b - 1), (b - 1, 1), (3, b // 3), (3, b // 3 + 1), (1, b + 1), (2, b + 1),
            (b + 1, 1))]])
    def test_matches_reference(self, fmt, reference, outer, inner):
        self._check(self._grid(outer, inner), fmt, reference)

    @pytest.mark.parametrize("fmt, reference", FORMATS)
    def test_random_shapes_match_reference(self, fmt, reference):
        rng = np.random.default_rng(5)
        for outer, inner in rng.integers(1, 40, size=(20, 2)).tolist():
            self._check(self._grid(outer, inner), fmt, reference)

    @pytest.mark.parametrize("outer, inner", [(300, 300), (40, cli._BLOCK_ROWS // 4),
                                              (40, cli._BLOCK_ROWS // 2),
                                              (2, cli._BLOCK_ROWS + 5),
                                              (2, 2 * cli._BLOCK_ROWS + 5)])
    def test_each_write_covers_up_to_a_block(self, outer, inner):
        # whole outer rows up to _BLOCK_ROWS records, or _BLOCK_ROWS of a longer row
        writes = []
        stream = io.StringIO()
        stream.write = lambda text: writes.append(text.count("\n"))
        write_table(self._grid(outer, inner), stream, "csv", self.NAMES)
        rows_per_write = cli._BLOCK_ROWS // inner
        if rows_per_write:
            expected = [rows_per_write * inner] * (outer // rows_per_write)
            expected += [outer % rows_per_write * inner] if outer % rows_per_write else []
        else:
            expected = ([cli._BLOCK_ROWS] * (inner // cli._BLOCK_ROWS)
                        + [inner % cli._BLOCK_ROWS]) * outer
        assert writes[1:-1] == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_before_writing(self, tmp_path, fmt, bad):
        fields = self._grid(4, 5)
        fields[1][:, 2] = bad  # a value of the axis (1, inner)
        buf = io.StringIO()
        with pytest.raises(ValueError, match="'y'"):
            write_table(fields, buf, fmt, self.NAMES)
        assert buf.getvalue() == ""
        path = tmp_path / f"grid.{fmt}"
        with pytest.raises(ValueError, match="non-finite"):
            write_table(fields, path, fmt, self.NAMES)
        assert not path.exists()

    @pytest.mark.parametrize("fmt, reference", FORMATS)
    @pytest.mark.parametrize("xi_steps, theta_steps", [(60, 90), (1, 5), (5, 1), (3, 4097)])
    def test_scan_eta_matches_reference(self, tmp_path, fmt, reference, xi_steps, theta_steps):
        out = tmp_path / f"eta.{fmt}"
        assert run_cli(["scan-eta", "--xi-max", "4.3", "--theta-max", "1.4", "--xi-steps",
                        str(xi_steps), "--theta-steps", str(theta_steps), "--format", fmt,
                        "--out", str(out)]) == 0
        xi, theta = np.meshgrid(np.linspace(0.0, 4.3, xi_steps),
                                np.linspace(0.0, 1.4, theta_steps), indexing="ij")
        rows = np.column_stack([xi.ravel(), theta.ravel(), eta_profile(xi, theta).ravel()])
        text = out.read_text(encoding="utf-8")
        if fmt == "csv":
            text = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
        assert_same_text(text, reference(rows, ("xi", "theta", "eta")))


def _cell_text(cells):
    """The text of NUL-padded cells, one per line."""
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def _families():
    """Seeded families of floats, each at least 100,000 values unless it is a complete set."""
    rng = np.random.default_rng(23)
    n = 100_000
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    tiny, huge = math.log(5e-324), math.log(sys.float_info.max)
    digits = rng.integers(0, 17, n)
    short = np.rint(rng.uniform(0.0, 1e3, n) * 10.0**digits) / 10.0**digits
    twelve = rng.integers(0, 10**12, n) + 0.5
    # 100 * (k + odd/8) and 10 * (k + odd/4) end in .5 at 17 digits
    eighths = rng.integers(10**14, 10**15, n // 2) + (2 * rng.integers(0, 4, n // 2) + 1) / 8
    quarters = rng.integers(10**15, 2**51, n // 2) + (2 * rng.integers(0, 2, n // 2) + 1) / 4
    edges = np.array([float(f"1e{e}") for e in range(-5, 17)])
    switches = np.array([float(f"1e{e}") for e in (*range(-11, -3), 12, 16)])
    steps = np.arange(-50, 51)
    # scaled by 10**16..10**22 (10**19..10**21 for 17 digits): written with an exponent
    small_twelve = (rng.integers(10**11, 10**12, n) + 0.5) / 10.0 ** rng.integers(16, 23, n)
    small_eighths = eighths / 10.0 ** rng.integers(19, 21, n // 2)
    small_quarters = quarters / 10.0 ** rng.integers(20, 22, n // 2)
    return {
        "uniform": rng.uniform(-10.0, 10.0, n),
        "log-uniform": sign * np.exp(rng.uniform(tiny, huge, n)),
        "short decimals": sign * short,
        "short decimals, one ulp up": np.nextafter(short, np.inf),
        "short decimals, one ulp down": np.nextafter(short, -np.inf),
        "12-digit ties": twelve / 10.0 ** rng.integers(0, 13, n),
        "17-digit ties": np.concatenate([eighths, quarters]),
        "powers of two and ten, and zeros": np.concatenate([
            np.ldexp(1.0, np.arange(-1074, 1024)), -np.ldexp(1.0, np.arange(-1074, 1024)),
            [float(f"1e{e}") for e in range(-323, 309)], [0.0, -0.0]]),
        "50 ulps about each power of ten from 1e-5 to 1e16": (
            edges[:, None] + np.spacing(edges)[:, None] * steps).ravel(),
        "12-digit ties from 1e-11 to 1e-4": sign * small_twelve,
        "17-digit ties from 1e-6 to 1e-4": np.concatenate([small_eighths, -small_quarters]),
        "50 ulps about each power of ten from 1e-11 to 1e-4, 1e12 and 1e16": (
            switches[:, None] + np.spacing(switches)[:, None] * steps).ravel(),
    }


class TestCellKernel:
    """Kernel and fallback together against Python's own formatter, value by value.

    pyproject turns a RuntimeWarning into an error, so these also check
    that no float makes the kernel's arithmetic warn.
    """

    FAMILIES = _families()

    @pytest.mark.parametrize("shortest, spec", [(False, "%.12g"), (True, "%r")])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_python(self, family, shortest, spec):
        values = self.FAMILIES[family]
        assert values.size > cli._SHORT_COLUMN  # so the kernel writes it, not the fallback alone
        expected = "".join(spec % v + "\n" for v in values.tolist())
        assert_same_text(_cell_text(cli._cells(values, shortest)), expected)

    @pytest.mark.parametrize("shortest", [False, True])
    def test_certified_share_of_the_figure_tables(self, shortest):
        # Below this floor the output would still be right, only slow: a drift
        # to the per-value fallback shows here, not only in the benchmark. The
        # kernel writes every '%.12g' cell of these tables but a few near-ties;
        # repr's fallback keeps the grid's eta below 1e-6, about 1% of its cells.
        floor = 0.985 if shortest else 0.999
        tables = []
        for xi_max, theta_max in ((3.0, math.pi / 2), (5.75, 1.4)):  # default, benchmark
            xi = np.linspace(0.0, xi_max, 300)[:, None]
            theta = np.linspace(0.0, theta_max, 300)[None, :]
            tables.append(np.stack(np.broadcast_arrays(xi, theta, eta_profile(xi, theta)),
                                   axis=-1))
        opt = eta_max(np.linspace(0.0, 10.0, 20_000))
        tables.append(np.column_stack([np.linspace(0.0, 10.0, 20_000), opt.eta_max,
                                       opt.theta_opt, opt.chi_at_opt]))
        for table in tables:
            values = table.ravel()
            certified = [cli._vector_cells(values[i:i + cli._BLOCK_ROWS], shortest)[1]
                         for i in range(0, values.size, cli._BLOCK_ROWS)]
            assert np.concatenate(certified).mean() >= floor


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
        assert_same_text(a.read_bytes(), b.read_bytes())


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
        assert_same_text(a.read_bytes(), b.read_bytes())


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

    def test_oracle_columns_are_the_per_time_oracle(self, tmp_path):
        # the one stacked call gives each time the bits of average_quadrature
        out = tmp_path / "evolve.json"
        assert run_cli(["evolve", "--bloch", "0.3,-0.4,0.5", "--phi", "1.2", "--points", "70",
                        "--nodes", "150", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        rho0 = 0.5 * np.array([[1.5, 0.3 + 0.4j], [0.3 - 0.4j, 0.5]])
        s = Scenario(2.5, float(eta_max(2.5).theta_opt), 1.2, gamma=1.0)
        for row in rows:
            m = oracle.average_quadrature(rho0, s, math.sqrt(row["gamma_t2"]),
                                          oracle.QuadratureSpec(nodes=150))
            require_valid(m)
            assert [row["rho_uu_oracle"], row["re_rho_ud_oracle"], row["im_rho_ud_oracle"]] == \
                [m[0, 0].real, m[0, 1].real, m[0, 1].imag]

    def test_refused_time_is_named(self, capsys):
        # t = 0 is fine; sqrt(2) is the first time whose angle overflows
        assert run_cli(["evolve", "--xi", "709", "--theta", "1", "--points", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: the oracle's rotation angle") and err.count("\n") == 1
        assert "xi = 709.0, angle theta = 1.0 and time t = 1.4142135623730951 " in err

    def test_invalid_analytic_state_exits_one(self, monkeypatch, capsys):
        evolve_elementwise = cli.evolve_elementwise

        def stretched(*args):
            out = evolve_elementwise(*args)
            out[2] *= 1.001
            return out

        monkeypatch.setattr(cli, "evolve_elementwise", stretched)
        assert run_cli(["evolve", "--points", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DensityMatrixError: trace differs from 1") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["evolve", "concurrence"])
    @pytest.mark.parametrize("nodes", ["1", str(cli.MAX_NODES + 1), "100000"])
    def test_nodes_out_of_range_is_usage_error(self, monkeypatch, capsys, command, nodes):
        def never(n):
            raise AssertionError(f"built {n} nodes")

        monkeypatch.setattr(oracle, "gauss_hermite_nodes", never)
        assert run_cli([command, "--nodes", nodes, "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --nodes: must lie in [2, {cli.MAX_NODES}], got {nodes}\n"

    @pytest.mark.parametrize("command", ["evolve", "concurrence"])
    def test_largest_nodes_accepted(self, tmp_path, command):
        out = tmp_path / "x.csv"
        assert run_cli([command, "--nodes", str(cli.MAX_NODES), "--points", "3",
                        "--out", str(out)]) == 0
        assert oracle.gauss_hermite_nodes(cli.MAX_NODES)[0].shape == (cli.MAX_NODES,)
        assert len([line for line in out.read_text().splitlines()
                    if not line.startswith("#")]) == 4  # the header and three rows

    def test_bad_bloch_rejected(self, tmp_path, capsys):
        code = run_cli(["evolve", "--bloch", "2,0,0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--bloch" in capsys.readouterr().err
        for bloch in ("1,0", "1,0,0,0"):
            assert run_cli(["evolve", "--bloch", bloch, "--out", str(tmp_path / "x.csv")]) == 2
            assert capsys.readouterr().err == "error: --bloch: need exactly three components\n"
        # float() strips the line break, but the echo in the comment block would not
        for bloch in ("1,0,0\n", "0,\n0,1"):
            out = tmp_path / "y.csv"
            assert run_cli(["evolve", "--bloch", bloch, "--points", "2", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --bloch: must be printable text, got {bloch!r}\n"
            assert not out.exists()


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

    @pytest.mark.parametrize("argv", [["--gamma", "1e308", "--gamma-t2-max", "1e308"],
                                      ["--gamma-t2-max", "1e308"]])
    def test_references_where_the_exponent_overflows(self, tmp_path, capsys, argv):
        # 4 gamma t^2 overflows past t = 0, and so does 4 gamma itself at
        # gamma = 1e308: both references are exactly 1, 0, 0
        out = tmp_path / "conc.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(["concurrence", *argv, "--points", "3", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        assert [row[2:] for row in rows] == [["1", "1"], ["0", "0"], ["0", "0"]]
        err = capsys.readouterr().err.splitlines()  # the --nodes warning at most
        assert len(err) <= 1 and all(line.startswith("warning: ") for line in err)

    def test_refused_time_is_named(self, capsys):
        # t = 0 is fine; 1/sqrt(2) is the first time whose angle overflows
        assert run_cli(["concurrence", "--xi", "709", "--theta", "1", "--points", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: the oracle's rotation angle")
        assert err.count("\n") == 1
        assert "xi = 709.0, angle theta = 1.0 and time t = 0.7071067811865476 " in err


class TestConfigFile:
    @pytest.mark.parametrize("cmd", ["scan-eta", "eta-max", "offdiag", "evolve", "concurrence"])
    def test_seed_only_on_verify(self, tmp_path, capsys, cmd):
        # table commands draw nothing: no --seed flag, config key or header line
        out = tmp_path / "o.csv"
        assert run_cli([cmd, "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert comments[0] == f"# command = {cmd}"
        assert not any("seed" in c for c in comments)
        assert run_cli([cmd, "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        assert run_cli([cmd, "--config", str(cfg)]) == 2
        assert "--config" in capsys.readouterr().err

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a run\n\nxi = 1.5\npoints = 25   # small grid\ngamma-t2-max = 2\n")
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
        # a line with no '=' names no key at all
        cfg.write_text("xi 1.5\n")
        assert run_cli(["offdiag", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == ("error: --config: line 1 is not 'key = value': "
                                           "'xi 1.5'\n")

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
        assert_same_text(from_config.read_bytes(), from_flags.read_bytes())


class TestConfigParsedAsFlags:
    """Config entries are parsed as flags of the one parser, which no call changes."""

    def test_a_config_does_not_outlive_its_call(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 1.5\n")
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run_cli(["offdiag", "--config", str(cfg), "--points", "3",
                        "--out", str(first)]) == 0
        assert run_cli(["offdiag", "--points", "3", "--out", str(second)]) == 0
        assert "# xi = 1.5" in read_csv(first)[0]
        assert "# xi = 2.5" in read_csv(second)[0]
        assert cli._build_parser() is cli._build_parser()

    def test_config_format_is_checked_by_its_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        assert run_cli(["evolve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "--format" in err and "'xml'" in err
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            write_table((np.ones(1),), io.StringIO(), "xml", ("a",))

    def test_config_format_json_writes_json(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\npoints = 4\n")
        out = tmp_path / "evolve.json"
        assert run_cli(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        assert len(records) == 4 and "rho_uu_analytic" in records[0]

    def test_command_line_format_is_checked_too(self, capsys):
        assert run_cli(["scan-eta", "--format", "xml"]) == 2
        assert "--format" in capsys.readouterr().err


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
        (["offdiag", "--config", os.path.join("no-such-dir", "run.cfg")], "--config"),
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

    @pytest.mark.parametrize("argv", [
        ["scan-eta", "--xi-steps", str(10**15), "--theta-steps", "1"],
        ["offdiag", "--points", str(10**15)],
    ])
    def test_a_grid_too_large_to_allocate_exits_one(self, capsys, argv):
        # 10**15 floats are 7 PiB, more than a 47-bit address space: the
        # allocation is refused before any memory is touched
        assert run_cli(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: MemoryError: ") and err.count("\n") == 1

    def test_overflow_exits_one_without_traceback(self):
        # kappa overflows, so the oracle's rotation angle 2 kappa t sqrt(gamma/2) z has no value
        proc = subprocess.run([sys.executable, "-m", "spinboost.cli", "evolve", "--xi", "1000",
                               "--theta", "0.5", "--points", "3"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""
        assert "rapidity" in proc.stderr

    def test_oracle_angle_overflow_exits_one_without_warning(self):
        # kappa is finite at xi = 700, but kappa t sqrt(gamma/2) z is not at t = 1e5
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "spinboost.cli", "evolve",
                               "--xi", "700", "--theta", "0.5", "--gamma-t2-max", "1e10",
                               "--points", "3"], capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ValueError: ") and proc.stderr.count("\n") == 1
        assert all(name in proc.stderr for name in ("xi = 700.0", "theta = 0.5", "t = 70710."))
        assert "gamma = " in proc.stderr and "mu" not in proc.stderr

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

    @pytest.mark.parametrize("xi, theta", [(400, 0.5), (1000, 0.5), (1400, None), (1000, 0.0),
                                           (1e6, 1e-300)])
    def test_offdiag_at_every_finite_rapidity(self, tmp_path, xi, theta):
        out = tmp_path / "offdiag.json"
        argv = ["offdiag", "--xi", str(xi), "--points", "5", "--format", "json", "--out", str(out)]
        assert run_cli(argv + ([] if theta is None else ["--theta", str(theta)])) == 0
        # at theta = 0 the axis is ez, and the boosted spin dephases exactly as at rest
        eta = eta_profile(xi, eta_max(xi).theta_opt if theta is None else theta)
        rows = json.loads(out.read_text())
        assert all(math.isfinite(v) for row in rows for v in row.values())
        assert rows[0]["rho_ud_boosted"] == 0.5
        for row in rows[1:]:
            if eta > 0:  # gamma' t**2 overflows: the coherence sits at eta/2
                assert abs(row["rho_ud_boosted"] - eta / 2) <= 1e-15
            else:
                assert row["rho_ud_boosted"] == row["rho_ud_rest"]

    @pytest.mark.parametrize("xi", ["1e6", "1450"])
    @pytest.mark.parametrize("command", ["offdiag", "evolve", "concurrence"])
    def test_underflowing_default_theta_is_usage_error(self, capsys, command, xi):
        # theta_opt = asin(sech(xi/2)/sqrt 2) is 0 at 1e6 and subnormal at 1450
        assert run_cli([command, "--xi", xi, "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --theta: ") and err.count("\n") == 1
        assert f"xi = {float(xi)!r}" in err

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

    def test_concurrence_near_one_does_not_warn(self, tmp_path, capsys):
        # C within 2.5e-7 of 1: a clamp of small Wootters eigenvalues wrote
        # 0.999999938677 at gamma_t2 = 5e-9, where the reference is 0.999999877354
        out = tmp_path / "conc.csv"
        assert run_cli(["concurrence", "--gamma-t2-max", "1e-08", "--points", "3",
                        "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(out)[2]
        assert [row[1] for row in rows] == [row[3] for row in rows]

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

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_names_its_path(self, monkeypatch, capsys, tmp_path, where):
        # every check passes, so the exit code 1 is the write's
        monkeypatch.setattr(verify, "run_checks", lambda seed: self.RESULTS[:1])
        path = str(tmp_path / "no" / "x.txt" if where == "missing_dir" else tmp_path)
        assert run_cli(["verify", "--out", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: OSError: cannot write report to {path!r}: ")


class TestJsonOutput:
    def test_json_format(self, tmp_path):
        out = tmp_path / "eta.json"
        assert run_cli(["scan-eta", "--xi-steps", "3", "--theta-steps", "3",
                        "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 9
        assert set(data[0]) == {"xi", "theta", "eta"}


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, on file descriptor ``fd``: ``write`` fails as a
    closed pipe does, or, with ``buffered``, the ``flush`` that would send the text."""

    def __init__(self, fd, buffered):
        super().__init__()
        self.fd, self.buffered = fd, buffered

    def write(self, text):
        if not self.buffered:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.buffered:
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestClosedStdout:
    """A reader that closes stdout early is no failure: the command's own exit code,
    nothing on stderr, and stdout's descriptor sent to devnull only where it broke."""

    def run_closed(self, argv, tmp_path, buffered):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(ClosedPipe(fd, buffered)), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            redirected = os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        return code, err.getvalue(), redirected

    @pytest.mark.parametrize("buffered", [False, True])
    def test_a_table_exits_zero(self, tmp_path, buffered):
        code, err, redirected = self.run_closed(["eta-max", "--xi-steps", "5"], tmp_path,
                                                buffered)
        assert (code, err, redirected) == (0, "", True)

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("passed", [True, False])
    def test_verify_keeps_its_exit_code(self, monkeypatch, tmp_path, buffered, passed):
        results = [verify.CheckResult("only_check", passed, "x=1 (tol 2)")]
        monkeypatch.setattr(verify, "run_checks", lambda seed: results)
        code, err, redirected = self.run_closed(["verify"], tmp_path, buffered)
        # the report is one write: unbuffered, it fails there and nothing is left to flush
        assert (code, err, redirected) == (0 if passed else 1, "", buffered)

    def test_an_open_stdout_is_only_flushed(self):
        # a StringIO has no descriptor: asking for one would raise, and main exit 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["eta-max", "--xi-steps", "5"]) == 0
        assert out.getvalue().count("\n") == 9

    def test_a_pipe_closed_after_one_line(self):
        proc = subprocess.Popen([sys.executable, "-m", "spinboost.cli", "scan-eta",
                                 "--xi-steps", "300", "--theta-steps", "300"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"# command = scan-eta\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (0, b"")
