"""Command-line front end: figure data generation and cross-validation.

Subcommands
-----------
scan-eta     grid of the modulation factor eta over (xi, theta)
eta-max      eta_max(xi) with theta_opt and chi at the optimum
offdiag      off-diagonal trajectory rho_ud(t) for a boosted spin vs rest
evolve       full single-qubit trajectory, analytic next to oracle columns
concurrence  two-qubit concurrence series with both reference curves
verify       full verification suite; exit 0 iff every check passes

Tables are written as CSV (12 significant digits, '#' comment header
carrying the parameters) or JSON (array of objects). Time grids
are specified on the dimensionless axis gamma*t**2 via --gamma-t2-max
and --points. Exit codes: 0 success, 1 verification/runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from . import verify as verify_mod
from .channel import Scenario, evolve_elementwise, plus_state
from .entangle import concurrence_trajectory
from .oracle import ORACLE_TOL, QuadratureSpec, _require_quadrature, average_quadrature
from .relkin import BoostParams, eta_max, eta_profile
from .spinalg import DensityMatrix, require_valid

USAGE_ERROR = 2
# Largest --nodes: the Golub-Welsch solve is a dense n x n eigenproblem,
# which at 2048 nodes takes about 2 s and raises peak RSS by about 170 MB
# (from 29 to 198 MB) on a 2-core VM.
MAX_NODES = 2048


def _fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


# Records per ``%`` call of ``write_table``: one template over a block's
# flat tuple costs far less than one ``%`` per record, and the block
# bounds the memory the formatted text takes.
_BLOCK_ROWS = 4096


def write_table(rows: np.ndarray, path, fmt: str, fieldnames: Sequence[str],
                comments: Iterable[str] = ()) -> None:
    """Write a table of finite float records as CSV or JSON.

    ``rows`` is a float array with one column per field name on its last
    axis: 2-D, one record per row, or a 3-D grid ``(outer, inner,
    fields)`` whose records are written in row-major order, as those of
    ``rows.reshape(-1, len(fieldnames))``. A grid field that is bit for
    bit constant along one axis (both axes longer than 1) is formatted
    once per value and baked into the record template. CSV: optional '#'
    comment lines, a header of field names, then the records at 12
    significant digits with '\\n' line endings. JSON: an array of objects
    keyed by the field names, as ``json.dump(..., indent=2)`` writes it.
    ``path`` may be a filesystem path or an open text stream. A
    non-finite entry raises ``ValueError`` naming its column before
    anything is written.
    """
    k = len(fieldnames)
    if not (isinstance(rows, np.ndarray) and np.issubdtype(rows.dtype, np.floating)
            and rows.ndim in (2, 3) and rows.shape[-1] == k):
        raise ValueError(f"rows must be a float array of shape (records, {k}) or "
                         f"(outer, inner, {k}), got {type(rows).__name__} of shape "
                         f"{np.shape(rows)}")
    grid = (rows if rows.ndim == 3 else rows[None]).astype(np.float64, copy=False)
    outer, inner = grid.shape[:2]
    finite = np.isfinite(grid)
    if not finite.all():
        bad = ~finite.all(axis=(0, 1))
        raise ValueError(f"column {fieldnames[int(bad.argmax())]!r} has a non-finite entry; "
                         "tables hold finite numbers only")
    if fmt == "csv":
        head = "".join(f"# {comment}\n" for comment in comments) + ",".join(fieldnames) + "\n"
        spec, keys, fsep, sep, tail = "%.12g", [""] * k, ",", "", ""
        opening, closing = "", "\n"
    elif fmt == "json":
        # %r of a finite float is float.__repr__, which is what json writes
        spec, fsep = "%r", ",\n"
        keys = [f"    {json.dumps(name).replace('%', '%%')}: " for name in fieldnames]
        opening, closing = ("  {\n", "\n  }") if k else ("  {", "}")
        head, sep, tail = ("[\n", ",\n", "\n]\n") if outer * inner else ("[]\n", "", "")
    else:
        raise ValueError(f"unknown format {fmt!r}")

    # Text of the grid fields constant along one axis, by field: one per
    # inner index, baked into every template, or one per outer row, put in
    # at each row. Comparing bits keeps -0.0, which %.12g writes as -0,
    # apart from 0.0.
    col_text: dict[int, list[str]] = {}
    row_text: dict[int, list[str]] = {}
    if outer > 1 and inner > 1:
        bits = grid.view(np.int64)
        for j in range(k):
            if (bits[:, :, j] == bits[:1, :, j]).all():
                col_text[j] = [spec % v for v in grid[0, :, j].tolist()]
            elif (bits[:, :, j] == bits[:, :1, j]).all():
                row_text[j] = [spec % v for v in grid[:, 0, j].tolist()]
    free = [j for j in range(k) if j not in col_text and j not in row_text]
    # NUL never occurs in a template: json.dumps escapes it in names
    marks = {j: f"\0{j}\0" for j in row_text}
    slots = [marks.get(j, spec) for j in range(k)]

    def _record(texts) -> str:
        return opening + fsep.join([key + text for key, text in zip(keys, texts)]) + closing

    def _template(j0: int, j1: int) -> str:
        """Records j0..j1 of one outer row, with per-row fields left as marks."""
        if not col_text:  # every record alike: 2-D tables take this
            return sep.join([_record(slots)] * (j1 - j0))
        columns = [col_text[j][j0:j1] if j in col_text else repeat(slots[j]) for j in range(k)]
        return sep.join([_record(texts) for texts in zip(*columns)])

    def _fill(template: str, i: int) -> str:
        for j, mark in marks.items():
            template = template.replace(mark, row_text[j][i])
        return template

    # Whole outer rows make up a block of up to _BLOCK_ROWS records; a
    # longer outer row is split into blocks of _BLOCK_ROWS.
    spans = [(j0, min(j0 + _BLOCK_ROWS, inner)) for j0 in range(0, inner, _BLOCK_ROWS)]
    templates = [_template(j0, j1) for j0, j1 in spans]
    step = max(1, _BLOCK_ROWS // inner) if inner else 1

    def _render(stream):
        stream.write(head)
        for o0 in range(0, outer, step):
            o1 = min(o0 + step, outer)
            for (j0, j1), template in zip(spans, templates):
                text = sep.join([_fill(template, i) for i in range(o0, o1)])
                values = grid[o0:o1, j0:j1][..., free].ravel().tolist()
                stream.write((sep if o0 or j0 else "") + text % tuple(values))
        stream.write(tail)

    if hasattr(path, "write"):
        _render(path)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            _render(stream)
    except OSError as exc:
        raise OSError(f"cannot write table to {path!r}: {exc}") from exc


class _CliError(Exception):
    """Usage error carrying the offending flag name."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")
        self.flag = flag


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _table_format(text: str) -> str:
    """argparse type of --format; unlike ``choices`` it also checks config entries."""
    if text not in ("csv", "json"):
        raise argparse.ArgumentTypeError(f"expected csv or json, got {text!r}")
    return text


def _read_config(path: str) -> dict[str, str]:
    """Parse a 'key = value' file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _CliError("--config", f"line {lineno} is not 'key = value': {raw.strip()!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _CliError("--config", str(exc)) from exc
    return values


def _apply_config(p: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's entries the defaults of subcommand ``p``.

    The next parse converts and checks them with each flag's own type;
    explicit flags still win.
    """
    entries = _read_config(path)
    options = {a.dest for a in p._actions if a.option_strings} - {"help", "config"}
    for key in entries:
        if key not in options:
            raise _CliError("--config", f"unknown key {key!r}")
    p.set_defaults(**entries)


def _require(condition: bool, flag: str, message: str) -> None:
    if not condition:
        raise _CliError(flag, message)


def _scenario_from_args(args, phi: float) -> Scenario:
    xi = args.xi
    _require(xi >= 0, "--xi", f"must be >= 0, got {xi}")
    theta = args.theta
    if theta is None:
        theta = float(eta_max(xi).theta_opt)
        # asin(sech(xi/2)/sqrt 2) is subnormal from xi ~ 1418 and 0, where eta is 0, from ~1490
        _require(theta >= sys.float_info.min, "--theta",
                 f"the default theta maximising eta underflows to {theta!r} at rapidity "
                 f"xi = {xi!r}; pass --theta")
    _require(0.0 <= theta <= math.pi, "--theta", f"must lie in [0, pi], got {theta}")
    _require(0.0 <= phi < 2.0 * math.pi, "--phi", f"must lie in [0, 2*pi), got {phi}")
    gamma = 1.0 if args.gamma is None else args.gamma
    # a subnormal rate carries too few digits, and its times overflow
    _require(gamma >= sys.float_info.min, "--gamma",
             f"must be a normal float > 0 (at least {sys.float_info.min!r}), got {gamma!r}")
    return Scenario(BoostParams(xi=xi, theta=theta, phi=phi), gamma)


def _quadrature_from_args(args) -> QuadratureSpec:
    _require(2 <= args.nodes <= MAX_NODES, "--nodes",
             f"must lie in [2, {MAX_NODES}], got {args.nodes}")
    return QuadratureSpec(nodes=args.nodes)


def _time_grid(args, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_t2 grid, times) from --gamma-t2-max/--points at dephasing rate ``gamma``."""
    g_max = args.gamma_t2_max
    points = args.points
    _require(g_max > 0, "--gamma-t2-max", f"must be > 0, got {g_max}")
    _require(points >= 2, "--points", f"must be >= 2, got {points}")
    _require(g_max / gamma < math.inf, "--gamma-t2-max",
             f"times sqrt({g_max} / gamma) overflow at gamma = {gamma!r}")
    grid = np.linspace(0.0, g_max, points)
    return grid, np.sqrt(grid / gamma)


def _echo_params(args, keys: Sequence[str]) -> list[str]:
    parts = [f"command = {args.command}"]
    parts.extend(f"{k.replace('_', '-')} = {_fmt(getattr(args, k))}" for k in keys
                 if getattr(args, k) is not None)
    return parts


def _cmd_scan_eta(args) -> int:
    _require(args.xi_max > 0, "--xi-max", f"must be > 0, got {args.xi_max}")
    _require(args.xi_steps >= 1, "--xi-steps", f"must be >= 1, got {args.xi_steps}")
    _require(args.theta_steps >= 1, "--theta-steps", f"must be >= 1, got {args.theta_steps}")
    _require(0 < args.theta_max <= math.pi, "--theta-max", f"must lie in (0, pi], got {args.theta_max}")
    xi = np.linspace(0.0, args.xi_max, args.xi_steps)[:, None]
    theta = np.linspace(0.0, args.theta_max, args.theta_steps)[None, :]
    grid = np.stack(np.broadcast_arrays(xi, theta, eta_profile(xi, theta)), axis=-1)
    comments = _echo_params(args, ("xi_max", "xi_steps", "theta_steps", "theta_max"))
    write_table(grid, args.out, args.format, ("xi", "theta", "eta"), comments)
    return 0


def _cmd_eta_max(args) -> int:
    _require(args.xi_max > 0, "--xi-max", f"must be > 0, got {args.xi_max}")
    _require(args.xi_steps >= 2, "--xi-steps", f"must be >= 2, got {args.xi_steps}")
    xi = np.linspace(0.0, args.xi_max, args.xi_steps)
    opt = eta_max(xi)
    rows = np.column_stack([xi, opt.eta_max, opt.theta_opt, opt.chi_at_opt])
    write_table(rows, args.out, args.format, ("xi", "eta_max", "theta_opt", "chi_at_opt"),
                _echo_params(args, ("xi_max", "xi_steps")))
    return 0


def _cmd_offdiag(args) -> int:
    s = _scenario_from_args(args, phi=0.0)
    args.theta = s.boost.theta  # echo the resolved angle
    grid, times = _time_grid(args, s.gamma)

    def coherence(scenario):
        return evolve_elementwise(plus_state().matrix, scenario, times)[:, 0, 1].real

    at_rest = Scenario(BoostParams(xi=0.0), s.gamma)
    rows = np.column_stack([grid, coherence(s), coherence(at_rest)])
    comments = _echo_params(args, ("xi", "theta", "gamma", "gamma_t2_max", "points"))
    write_table(rows, args.out, args.format, ("gamma_t2", "rho_ud_boosted", "rho_ud_rest"),
                comments)
    return 0


def _warn_unresolved(label: str, worst: float) -> None:
    """One stderr warning naming --nodes when the oracle misses an exact value by > ORACLE_TOL."""
    if not worst <= ORACLE_TOL:
        print(f"warning: {label} = {_fmt(worst)} exceeds {ORACLE_TOL:g}; "
              f"the quadrature oracle may be under-resolved, try a larger --nodes",
              file=sys.stderr)


def _cmd_evolve(args) -> int:
    s = _scenario_from_args(args, args.phi)
    args.theta = s.boost.theta  # echo the resolved angle
    quad = _quadrature_from_args(args)
    try:
        bloch = [float(x) for x in args.bloch.split(",")]
        if len(bloch) != 3:
            raise ValueError("need exactly three components")
        if not np.linalg.norm(bloch) <= 1.0 + 1e-12:
            raise ValueError("Bloch vector must be finite with norm <= 1")
    except ValueError as exc:
        raise _CliError("--bloch", str(exc)) from exc
    rx, ry, rz = bloch
    rho0 = DensityMatrix(0.5 * np.array([[1 + rz, rx - 1j * ry], [rx + 1j * ry, 1 - rz]]))
    grid, times = _time_grid(args, s.gamma)
    ana = evolve_elementwise(rho0.matrix, s, times)
    require_valid(ana)
    _require_quadrature(s, times, quad.nodes)  # names the first time the oracle refuses
    num = average_quadrature(rho0.matrix, s, times, quad)
    require_valid(num)
    worst = float(np.abs(ana - num).max())
    rows = np.column_stack([grid, ana[:, 0, 0].real, num[:, 0, 0].real, ana[:, 0, 1].real,
                            num[:, 0, 1].real, ana[:, 0, 1].imag, num[:, 0, 1].imag])
    comments = _echo_params(args, ("xi", "theta", "phi", "gamma", "gamma_t2_max", "points",
                                   "nodes", "bloch"))
    comments.append(f"max_analytic_oracle_diff = {_fmt(worst)}")
    write_table(rows, args.out, args.format,
                ("gamma_t2", "rho_uu_analytic", "rho_uu_oracle", "re_rho_ud_analytic",
                 "re_rho_ud_oracle", "im_rho_ud_analytic", "im_rho_ud_oracle"), comments)
    _warn_unresolved("max_analytic_oracle_diff", worst)
    return 0


def _cmd_concurrence(args) -> int:
    s = _scenario_from_args(args, phi=0.0)
    args.theta = s.boost.theta  # echo the resolved angle
    quad = _quadrature_from_args(args)
    grid, times = _time_grid(args, s.gamma)
    series = concurrence_trajectory(s, times, quad)
    rows = np.column_stack([grid, series.values, series.reference_rest, series.reference_boosted])
    comments = _echo_params(args, ("xi", "theta", "gamma", "gamma_t2_max", "points", "nodes"))
    write_table(rows, args.out, args.format,
                ("gamma_t2", "concurrence", "reference_rest", "reference_boosted"), comments)
    # at phi = 0 the boosted reference is exact for every theta (see ``entangle``)
    _warn_unresolved("max|concurrence - reference_boosted|",
                     float(np.abs(series.values - series.reference_boosted).max()))
    return 0


def _cmd_verify(args) -> int:
    _require(0 <= args.seed < 2**64, "--seed", f"must lie in [0, 2**64), got {args.seed}")
    results = verify_mod.run_checks(seed=args.seed)
    render = verify_mod.format_json if args.format == "json" else verify_mod.format_report
    report = render(results, seed=args.seed)
    if args.out is not sys.stdout:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return 0 if all(r.passed for r in results) else 1


def _add_common(p: argparse.ArgumentParser, func) -> None:
    p.add_argument("--config", help="key = value file of flag values; explicit flags override it")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", type=_table_format, default="csv", metavar="{csv,json}",
                   help="table format (default %(default)s)")
    p.set_defaults(func=func)


def _add_scenario_flags(p: argparse.ArgumentParser, gamma_t2_max: float, points: int) -> None:
    p.add_argument("--xi", type=_finite_float, default=2.5)
    p.add_argument("--theta", type=_finite_float, help="default: theta maximising eta")
    p.add_argument("--gamma-t2-max", type=_finite_float, default=gamma_t2_max)
    p.add_argument("--points", type=int, default=points)
    p.add_argument("--gamma", type=_finite_float, help="rest-frame dephasing rate (default 1)")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand by name.

    Every subcommand declares its own flags: argparse ``parents=`` would
    share one Action per flag, so a per-command default set on one
    subcommand would leak into the others.
    """
    parser = argparse.ArgumentParser(
        prog="spinboost",
        description="Decoherence of a boosted spin-1/2 in Gaussian magnetic noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-eta", help="eta over a (xi, theta) grid")
    p.add_argument("--xi-max", type=_finite_float, default=3.0)
    p.add_argument("--xi-steps", type=int, default=60)
    p.add_argument("--theta-steps", type=int, default=90)
    p.add_argument("--theta-max", type=_finite_float, default=math.pi / 2)
    _add_common(p, _cmd_scan_eta)

    p = sub.add_parser("eta-max", help="eta_max, theta_opt and chi over a xi grid")
    p.add_argument("--xi-max", type=_finite_float, default=10.0)
    p.add_argument("--xi-steps", type=int, default=101)
    _add_common(p, _cmd_eta_max)

    p = sub.add_parser("offdiag", help="rho_ud(t) boosted vs rest (coherent initial state)")
    _add_scenario_flags(p, gamma_t2_max=4.0, points=200)
    _add_common(p, _cmd_offdiag)

    p = sub.add_parser("evolve", help="single-qubit trajectory, analytic + oracle columns")
    _add_scenario_flags(p, gamma_t2_max=4.0, points=200)
    p.add_argument("--phi", type=_finite_float, default=0.0)
    p.add_argument("--nodes", type=int, default=201,
                   help=f"Gauss-Hermite nodes of the oracle, 2 to {MAX_NODES} (default %(default)s)")
    p.add_argument("--bloch", default="1,0,0",
                   help="initial Bloch vector 'x,y,z' (default %(default)s)")
    _add_common(p, _cmd_evolve)

    p = sub.add_parser("concurrence", help="two-qubit concurrence under the common bath")
    _add_scenario_flags(p, gamma_t2_max=1.0, points=50)
    p.add_argument("--nodes", type=int, default=201,
                   help=f"Gauss-Hermite nodes of the oracle, 2 to {MAX_NODES} (default %(default)s)")
    _add_common(p, _cmd_concurrence)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--seed", type=int, default=42,
                   help="seed for randomized checks (default %(default)s)")
    _add_common(p, _cmd_verify)

    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(commands[args.command], args.config)
            args = parser.parse_args(argv)
        if args.out is None:
            args.out = sys.stdout
        return args.func(args)
    except SystemExit as exc:
        # argparse exits with 0 after --help and 2 on usage errors
        return 0 if exc.code == 0 else USAGE_ERROR
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises its own subclass for an array too large
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
