"""Output checks, made apart from the program.

Every check recomputes what it compares against from the paper's
formulas and the benchmark's own Lorentz transform, or tests a property
the method must have; none reads the library's closed forms. A check
returns the number of records in the output and the names of the
properties that failed (empty when the output is right).
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from workloads import Op


def boosted_axis(xi, theta, phi=0.0):
    """Lorentz transform of B = ez (E = 0), divided by cosh(xi).

    B' = B_par + cosh(xi) B_perp for a boost along v, so B'/cosh(xi) =
    B_perp + sech(xi) B_par stays finite for every rapidity. Returns
    (b, gamma) with b = B'/(B cosh xi) as an array of shape (..., 3).
    """
    xi = np.asarray(xi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    e = np.exp(-xi)
    sech = 2.0 * e / (1.0 + e * e)
    v = np.stack(np.broadcast_arrays(np.sin(theta) * np.cos(phi),
                                     np.sin(theta) * np.sin(phi), np.cos(theta)), axis=-1)
    ez = np.array([0.0, 0.0, 1.0])
    b_par = np.cos(theta)[..., None] * v
    return ez - b_par + sech[..., None] * b_par, np.cosh(xi)


def eta_of(xi, theta):
    """eta = 1 - n_z**2, taken as the in-plane weight of the boosted axis."""
    b, _ = boosted_axis(xi, theta)
    perp2 = b[..., 0] ** 2 + b[..., 1] ** 2
    return perp2 / (perp2 + b[..., 2] ** 2)


def axis_and_kappa_sq(xi: float, theta: float, phi: float):
    """Unit axis n and amplification kappa**2 = |B'/B|**2."""
    b, ch = boosted_axis(xi, theta, phi)
    norm2 = float(b @ b)
    return b / math.sqrt(norm2), float(ch) ** 2 * norm2


def _csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    comments = lines[:start]
    header = lines[start].split(",")
    body = "\n".join(lines[start + 1:])
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return comments, header, data


def _json(text: str, fields: tuple[str, ...]) -> np.ndarray:
    records = json.loads(text)
    return np.array([[r[f] for f in fields] for r in records], dtype=float).reshape(-1, len(fields))


def _grid(column, stop, steps) -> tuple[np.ndarray, bool]:
    """The exact grid the CLI was asked for, and whether the printed column
    (12 significant digits in CSV) matches it. References are computed on
    the exact grid, so that rounding of the printed abscissa does not count."""
    exact = np.linspace(0.0, float(stop), int(steps))
    return exact, len(column) == len(exact) and bool(np.all(
        np.abs(column - exact) <= 1e-11 * abs(float(stop))))


def check_scan_eta(op: Op, text: str) -> tuple[int, list[str]]:
    _, header, d = _csv(text)
    p = op.params
    xi_steps, theta_steps, theta_max = p["xi_steps"], p["theta_steps"], p["theta_max"]
    bad = []
    if header != ["xi", "theta", "eta"] or len(d) != xi_steps * theta_steps:
        return len(d), ["shape"]
    xi_col, theta_col, eta = d.T
    xis, xi_ok = _grid(xi_col[::theta_steps], p["xi_max"], xi_steps)
    thetas, theta_ok = _grid(theta_col[:theta_steps], theta_max, theta_steps)
    xi, theta = np.repeat(xis, theta_steps), np.tile(thetas, xi_steps)
    if not (xi_ok and theta_ok and np.all(np.abs(xi_col - xi) <= 1e-11 * xis[-1])
            and np.all(np.abs(theta_col - theta) <= 1e-11 * theta_max)):
        bad.append("grid")
    ref = eta_of(xi, theta)
    if not np.all(np.abs(eta - ref) <= 1e-12 + 1e-9 * ref):
        bad.append("eta_lorentz")
    if not np.all((eta >= 0.0) & (eta <= np.tanh(0.5 * xi) ** 4 * (1 + 1e-9) + 1e-15)):
        bad.append("eta_bounds")
    return len(d), bad


def check_eta_max(op: Op, text: str) -> tuple[int, list[str]]:
    d = _json(text, ("xi", "eta_max", "theta_opt", "chi_at_opt"))
    p = op.params
    if len(d) != p["xi_steps"]:
        return len(d), ["shape"]
    xi_col, eta, theta, chi = d.T
    bad = []
    xi, ok = _grid(xi_col, p["xi_max"], p["xi_steps"])
    if not ok:
        bad.append("grid")
    t2 = np.tanh(0.5 * xi) ** 2
    # full relative accuracy on the edge grid; elsewhere room for the
    # cosh(xi) - 1 cancellation at the grid's smallest rapidity, xi ~ 4e-4
    rel_tol = 1e-12 if op.edge else 1e-7
    if not np.all(np.abs(eta - t2 * t2) <= rel_tol * t2 * t2):
        bad.append("eta_max_tanh")
    if not np.all(np.abs(np.cos(2.0 * theta) - t2) <= 1e-12):
        bad.append("theta_opt")
    # at the optimum n_z**2 = 1 - eta, so chi = n_z |n_perp| = sqrt(eta (1 - eta))
    if not np.all(np.abs(chi - np.sqrt(eta * (1.0 - eta))) <= 1e-9):
        bad.append("chi_at_opt")
    return len(d), bad


def check_offdiag(op: Op, text: str) -> tuple[int, list[str]]:
    _, header, d = _csv(text)
    p = op.params
    if header != ["gamma_t2", "rho_ud_boosted", "rho_ud_rest"] or len(d) != p["points"]:
        return len(d), ["shape"]
    g_col, boosted, rest = d.T
    eta = float(eta_of(p["xi"], p["theta"]))
    _, k2 = axis_and_kappa_sq(p["xi"], p["theta"], 0.0)
    bad = []
    g, ok = _grid(g_col, p["gamma_t2_max"], p["points"])
    if not ok:
        bad.append("grid")
    if not np.all(np.abs(rest - 0.5 * np.exp(-g)) <= 1e-12):
        bad.append("rest_gaussian")
    if not np.all(np.diff(boosted) <= 1e-12):
        bad.append("boosted_monotone")
    if not np.all(boosted >= 0.5 * eta - 1e-12):
        bad.append("saturation_floor")
    if not np.all(np.abs(boosted - 0.5 * ((1 - eta) * np.exp(-k2 * g) + eta)) <= 1e-11):
        bad.append("boosted_closed_form")
    return len(d), bad


_EVOLVE_FIELDS = ["gamma_t2", "rho_uu_analytic", "rho_uu_oracle", "re_rho_ud_analytic",
                  "re_rho_ud_oracle", "im_rho_ud_analytic", "im_rho_ud_oracle"]


def check_evolve(op: Op, text: str) -> tuple[int, list[str]]:
    comments, header, d = _csv(text)
    p = op.params
    if header != _EVOLVE_FIELDS or len(d) != p["points"]:
        return len(d), ["shape"]
    g_col, uu, uu_o, re, re_o, im, im_o = d.T
    n, k2 = axis_and_kappa_sq(p["xi"], p["theta"], p["phi"])
    r0 = np.array(p["bloch"])
    bad = []
    g, ok = _grid(g_col, p["gamma_t2_max"], p["points"])
    if not ok:
        bad.append("grid")
    observed = np.maximum(np.abs(uu - uu_o), np.hypot(re - re_o, im - im_o))
    if not np.all(observed <= 1e-8):
        bad.append("analytic_vs_oracle")
    summary = [c for c in comments if c.startswith("# max_analytic_oracle_diff = ")]
    reported = float(summary[0].rsplit("=", 1)[1]) if len(summary) == 1 else math.nan
    if not (reported <= 1e-8 and reported >= observed.max() - 2e-12):
        bad.append("summary_line")
    # Bloch vector of the analytic columns; rho_dd = 1 - rho_uu is implied
    r = np.stack([2.0 * re, -2.0 * im, 2.0 * uu - 1.0], axis=1)
    decay = np.exp(-k2 * g)[:, None]
    expected = decay * r0 + (1.0 - decay) * float(n @ r0) * n
    if not np.all(np.abs(r - expected) <= 1e-10):
        bad.append("bloch_map")
    if not np.all(np.abs(r @ n - n @ r0) <= 1e-10):
        bad.append("n_dot_r_conserved")
    if not np.all((uu >= -1e-12) & (uu <= 1 + 1e-12)
                  & (re * re + im * im <= uu * (1.0 - uu) + 1e-12)):
        bad.append("positivity")
    return len(d), bad


def check_concurrence(op: Op, text: str) -> tuple[int, list[str]]:
    d = _json(text, ("gamma_t2", "concurrence", "reference_rest", "reference_boosted"))
    p = op.params
    if len(d) != p["points"]:
        return len(d), ["shape"]
    g_col, c, ref_rest, ref_boost = d.T
    _, k2 = axis_and_kappa_sq(p["xi"], p["theta"], 0.0)
    bad = []
    g, ok = _grid(g_col, p["gamma_t2_max"], p["points"])
    if not ok:
        bad.append("grid")
    exact = np.exp(-4.0 * k2 * g)
    # the CLI boosts at azimuth 0, where exp(-4 gamma' t**2) is exact
    if not np.all(np.abs(c - exact) <= 1e-8):
        bad.append("boosted_exact_phi0")
    if not (np.all(np.abs(ref_rest - np.exp(-4.0 * g)) <= 1e-14)
            and np.all(np.abs(ref_boost - exact) <= 1e-12)):
        bad.append("references")
    if not np.all((c >= 0.0) & (c <= 1.0)):
        bad.append("range")
    return len(d), bad


def check_verify(op: Op, text: str) -> tuple[int, list[str]]:
    lines = text.splitlines()
    body = lines[1:-1]
    bad = []
    if not lines or lines[0] != f"# verification suite, seed = {op.params['seed']}":
        bad.append("header")
    if not body or not all(line.startswith("PASS ") for line in body):
        bad.append("all_pass")
    if not lines or lines[-1] != f"verify: {len(body)}/{len(body)} checks passed":
        bad.append("summary")
    return len(body), bad


CHECKS = {
    "scan-eta": check_scan_eta,
    "eta-max": check_eta_max,
    "offdiag": check_offdiag,
    "evolve": check_evolve,
    "concurrence": check_concurrence,
    "verify": check_verify,
}


def check(op: Op, rc: int | None, text: str) -> tuple[int, list[str]]:
    """(records, failed property names) for one operation's output."""
    if rc != 0:
        return 0, ["exit_code"]
    try:
        return CHECKS[op.kind](op, text)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return 0, [f"unparsable ({type(exc).__name__}: {exc})"]
