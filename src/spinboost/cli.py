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
carrying the parameters and seed) or JSON (array of objects). Time grids
are specified on the dimensionless axis gamma*t**2 via --gamma-t2-max
and --points. Exit codes: 0 success, 1 verification/runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import verify as verify_mod
from .channel import NoiseSpec, Scenario, evolve_elementwise, example_trajectory
from .entangle import concurrence_trajectory
from .oracle import QuadratureSpec, average_quadrature
from .relkin import BoostParams, eta_max, eta_profile
from .spinalg import DensityMatrix

USAGE_ERROR = 2
# The analytic-vs-quadrature tolerance of ``spinboost verify``.
ORACLE_TOL = 1e-8


def _fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


# Records per ``%`` call of ``write_table``: one template over a block's
# flat tuple costs far less than one ``%`` per record, and the block
# bounds the memory the formatted text takes.
_BLOCK_ROWS = 4096


def write_table(rows: np.ndarray, path, fmt: str, fieldnames: Sequence[str],
                comments: Iterable[str] = ()) -> None:
    """Write a table of finite float records as CSV or JSON.

    ``rows`` is a 2-D float array, one record per row and one column per
    field name. CSV: optional '#' comment lines, a header of field
    names, then the records at 12 significant digits with '\\n' line
    endings. JSON: an array of objects keyed by the field names, as
    ``json.dump(..., indent=2)`` writes it. ``path`` may be a filesystem
    path or an open text stream. A non-finite entry raises ``ValueError``
    naming its column before anything is written.
    """
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] == len(fieldnames)):
        raise ValueError(f"rows must be a float array of shape (records, {len(fieldnames)}), "
                         f"got {type(rows).__name__} of shape {np.shape(rows)}")
    bad = ~np.isfinite(rows).all(axis=0)
    if bad.any():
        raise ValueError(f"column {fieldnames[int(bad.argmax())]!r} has a non-finite entry; "
                         "tables hold finite numbers only")
    if fmt == "csv":
        head = "".join(f"# {comment}\n" for comment in comments) + ",".join(fieldnames) + "\n"
        record, sep, tail = ",".join(["%.12g"] * len(fieldnames)) + "\n", "", ""
    elif fmt == "json":
        # %r of a finite float is float.__repr__, which is what json writes
        items = ",\n".join(f"    {json.dumps(name).replace('%', '%%')}: %r" for name in fieldnames)
        record = "  {\n" + items + "\n  }" if fieldnames else "  {}"
        head, sep, tail = ("[\n", ",\n", "\n]\n") if len(rows) else ("[]\n", "", "")
    else:
        raise ValueError(f"unknown format {fmt!r}")

    def _render(stream):
        stream.write(head)
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            stream.write((sep if start else "") + sep.join([record] * len(block))
                         % tuple(block.ravel().tolist()))
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


def _noise_from_args(args) -> NoiseSpec:
    gamma = 1.0 if args.gamma is None else args.gamma
    # a subnormal rate carries too few digits, and its times overflow
    _require(gamma >= sys.float_info.min, "--gamma",
             f"must be a normal float > 0 (at least {sys.float_info.min!r}), got {gamma!r}")
    return NoiseSpec.from_gamma(gamma)


def _scenario_from_args(args, phi: float) -> Scenario:
    xi = args.xi
    _require(xi >= 0, "--xi", f"must be >= 0, got {xi}")
    theta = args.theta if args.theta is not None else eta_max(xi).theta_opt
    _require(0.0 <= theta <= math.pi, "--theta", f"must lie in [0, pi], got {theta}")
    _require(0.0 <= phi < 2.0 * math.pi, "--phi", f"must lie in [0, 2*pi), got {phi}")
    return Scenario(BoostParams(xi=xi, theta=theta, phi=phi), _noise_from_args(args))


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
    parts.append(f"seed = {args.seed}")
    return parts


def _cmd_scan_eta(args) -> int:
    _require(args.xi_max > 0, "--xi-max", f"must be > 0, got {args.xi_max}")
    _require(args.xi_steps >= 1, "--xi-steps", f"must be >= 1, got {args.xi_steps}")
    _require(args.theta_steps >= 1, "--theta-steps", f"must be >= 1, got {args.theta_steps}")
    _require(0 < args.theta_max <= math.pi, "--theta-max", f"must lie in (0, pi], got {args.theta_max}")
    xi, theta = np.meshgrid(np.linspace(0.0, args.xi_max, args.xi_steps),
                            np.linspace(0.0, args.theta_max, args.theta_steps), indexing="ij")
    rows = np.stack([xi, theta, eta_profile(xi, theta)], axis=-1).reshape(-1, 3)
    comments = _echo_params(args, ("xi_max", "xi_steps", "theta_steps", "theta_max"))
    write_table(rows, args.out, args.format, ("xi", "theta", "eta"), comments)
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
    grid, times = _time_grid(args, s.noise.gamma)
    _, boosted = example_trajectory(s, times)
    _, at_rest = example_trajectory(Scenario(BoostParams(xi=0.0), s.noise), times)
    rows = np.column_stack([grid, boosted.real, at_rest.real])
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
    _require(args.nodes >= 2, "--nodes", f"must be >= 2, got {args.nodes}")
    quad = QuadratureSpec(nodes=args.nodes)
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
    grid, times = _time_grid(args, s.noise.gamma)
    ana = np.array([evolve_elementwise(rho0, s, t).matrix for t in times.tolist()])
    num = np.array([average_quadrature(rho0, s, t, quad).matrix for t in times.tolist()])
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
    _require(args.nodes >= 2, "--nodes", f"must be >= 2, got {args.nodes}")
    grid, times = _time_grid(args, s.noise.gamma)
    series = concurrence_trajectory(s, times, QuadratureSpec(nodes=args.nodes))
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
    p.add_argument("--seed", type=int, default=42,
                   help="seed for randomized checks (default %(default)s)")
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
    p.add_argument("--nodes", type=int, default=201)
    p.add_argument("--bloch", default="1,0,0",
                   help="initial Bloch vector 'x,y,z' (default %(default)s)")
    _add_common(p, _cmd_evolve)

    p = sub.add_parser("concurrence", help="two-qubit concurrence under the common bath")
    _add_scenario_flags(p, gamma_t2_max=1.0, points=50)
    p.add_argument("--nodes", type=int, default=201)
    _add_common(p, _cmd_concurrence)

    p = sub.add_parser("verify", help="run the verification suite")
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


if __name__ == "__main__":
    sys.exit(main())
