"""The figure-data commands as properties: every number they write means the library's float.

``cli.main`` runs in-process over ``scan-eta`` and ``eta-max`` flags, in
both formats, with the edge rapidities 5e-324, 1e-7, 709, 1418 and 1490
and grids of 1 to 5 steps as explicit examples. Each JSON number parses
back to the library's float bit for bit; each CSV number lies within half
a unit of its twelfth significant digit, at most 5e-12 of the value. The
output is parsed, not compared with an encoder.

``offdiag``, the first command that builds a ``Scenario`` from flags,
runs over its whole flag box, edges as explicit examples: it writes the
library's coherence of the boosted and of the resting case, or exits 2
naming one flag.

``evolve`` runs over its whole flag box too, at most 402 nodes: it writes
``evolve_elementwise``'s analytic and ``average_quadrature``'s oracle
columns, with the one ``--nodes`` warning exactly when the two differ by
more than ``ORACLE_TOL``; or it exits 1 with one error line, or 2 naming
a flag that is out of its domain.

``concurrence`` runs over its flag box, with 0, 5e-324, the smallest
normal, 1e308, pi and 2 pi less an ulp as its angle, rate and grid end at
each edge rapidity, 2 points and 2 nodes among them: it writes finite
Wootters concurrences of ``two_qubit_average``'s states and both
reference curves, with the one ``--nodes`` warning exactly when the
concurrence misses the boosted reference by more than ``ORACLE_TOL``; or
it exits 1 with one error line that no table refusal wrote, or 2 naming
a flag that is out of its domain.
"""

import contextlib
import io
import json
import math
import re
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinboost import cli
from spinboost.channel import decay_exponent, evolve_elementwise, plus_state
from spinboost.entangle import bell_phi_plus, concurrence
from spinboost.oracle import ORACLE_TOL, QuadratureSpec, average_quadrature, two_qubit_average
from spinboost.relkin import Scenario, eta_max, eta_profile

pinned = settings(max_examples=120, derandomize=True, database=None, deadline=None)
EDGE_XI_MAX = (5e-324, 1e-7, 709.0, 1418.0, 1490.0)


def run(argv):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def library_records(command, xi_max, xi_steps, theta_steps, theta_max):
    """The records the command should write, as (field names, float rows)."""
    if command == "scan-eta":
        xi = np.linspace(0.0, xi_max, xi_steps)[:, None]
        theta = np.linspace(0.0, theta_max, theta_steps)[None, :]
        grid = np.broadcast_arrays(xi, theta, eta_profile(xi, theta))
        return ("xi", "theta", "eta"), np.stack([g.ravel() for g in grid], axis=1)
    xi = np.linspace(0.0, xi_max, xi_steps)
    opt = eta_max(xi)
    return (("xi", "eta_max", "theta_opt", "chi_at_opt"),
            np.column_stack([xi, opt.eta_max, opt.theta_opt, opt.chi_at_opt]))


def parse(text, fmt):
    """Field names and rows of numbers of a table as the command wrote it."""
    if fmt == "json":
        records = json.loads(text)
        names = tuple(records[0]) if records else ()
        return names, [[record[name] for name in names] for record in records]
    lines = [line for line in text.splitlines() if not line.startswith("# ")]
    return tuple(lines[0].split(",")), [[float(v) for v in line.split(",")] for line in lines[1:]]


def edges(test):
    """Each edge rapidity with 1 to 5 steps, for both commands and both formats."""
    for i, xi_max in enumerate(EDGE_XI_MAX):
        for steps in range(1, 6):
            test = example(command=("scan-eta", "eta-max")[(i + steps) % 2],
                           fmt=("csv", "json")[steps % 2], xi_max=xi_max, xi_steps=steps,
                           theta_steps=6 - steps, theta_max=math.pi / 2)(test)
    return test


@pinned
@given(command=st.sampled_from(["scan-eta", "eta-max"]), fmt=st.sampled_from(["csv", "json"]),
       xi_max=st.floats(min_value=5e-324, max_value=2e3),
       xi_steps=st.integers(min_value=1, max_value=40),
       theta_steps=st.integers(min_value=1, max_value=40),
       theta_max=st.floats(min_value=0.0, max_value=math.pi, exclude_min=True))
@edges
def test_every_number_is_the_library_float(command, fmt, xi_max, xi_steps, theta_steps,
                                           theta_max):
    argv = [command, "--xi-max", repr(xi_max), "--xi-steps", str(xi_steps), "--format", fmt]
    if command == "scan-eta":
        argv += ["--theta-steps", str(theta_steps), "--theta-max", repr(theta_max)]
    code, out, err = run(argv)
    if command == "eta-max" and xi_steps < 2:
        assert (code, out) == (2, "") and err.startswith("error: --xi-steps: ")
        return
    assert (code, err) == (0, "")
    names, expected = library_records(command, xi_max, xi_steps, theta_steps, theta_max)
    got_names, rows = parse(out, fmt)
    assert got_names == names and len(rows) == len(expected)
    got = np.array(rows, dtype=float).reshape(expected.shape)
    if fmt == "json":
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    else:
        assert (np.abs(got - expected) <= (5e-12 + 1e-15) * np.abs(expected)).all()


OFFDIAG_XI = (0.0, 5e-324, 709.0, 710.0, 746.0, 1418.0, 1490.0)
OFFDIAG_THETA = (None, 0.0, math.pi / 2, math.pi, math.nextafter(math.pi, 0.0))
OFFDIAG_GAMMA = (None, 5e-324, sys.float_info.min, 1.0, 1e308)
OFFDIAG_G_MAX = (5e-324, 1.0, 1e308)


def offdiag_edges(test):
    """Each edge rapidity at each edge angle, with the edge rates, grid ends, point
    counts and formats in turn."""
    for i, xi in enumerate(OFFDIAG_XI):
        for j, theta in enumerate(OFFDIAG_THETA):
            k = i * len(OFFDIAG_THETA) + j
            test = example(xi=xi, theta=theta, gamma=OFFDIAG_GAMMA[(i + j) % 5],
                           g_max=OFFDIAG_G_MAX[k % 3], points=(2, 3, 50)[(i + 2 * j) % 3],
                           fmt=("csv", "json")[k % 2])(test)
    return test


def offdiag_records(xi, theta, gamma, g_max, points):
    """The (gamma_t2, rho_ud_boosted, rho_ud_rest) rows that offdiag should write."""
    gamma = 1.0 if gamma is None else gamma
    theta = float(eta_max(xi).theta_opt) if theta is None else theta
    grid = np.linspace(0.0, g_max, points)
    times = np.sqrt(grid / gamma)

    def coherence(s):
        return evolve_elementwise(plus_state(), s, times)[:, 0, 1].real

    return np.column_stack([grid, coherence(Scenario(xi, theta, 0.0, gamma=gamma)),
                            coherence(Scenario(0.0, gamma=gamma))])


@pinned
@given(xi=st.floats(min_value=-1.0, max_value=2e3), theta=st.none() | st.floats(-0.5, 3.5),
       gamma=st.none() | st.floats(min_value=-1.0, max_value=1e308),
       g_max=st.floats(min_value=-1.0, max_value=1e308),
       points=st.integers(min_value=2, max_value=50), fmt=st.sampled_from(["csv", "json"]))
@offdiag_edges
def test_offdiag_writes_the_library_coherence_or_names_a_flag(xi, theta, gamma, g_max, points,
                                                              fmt):
    argv = ["offdiag", f"--xi={xi!r}", f"--gamma-t2-max={g_max!r}", f"--points={points}",
            f"--format={fmt}"]
    argv += [f"--{flag}={value!r}" for flag, value in (("theta", theta), ("gamma", gamma))
             if value is not None]
    code, out, err = run(argv)
    if code == 2:
        assert out == "" and re.fullmatch(r"error: --[a-z0-9-]+: [^\n]*\n", err), err
        return
    assert (code, err) == (0, "")
    names, rows = parse(out, fmt)
    assert names == ("gamma_t2", "rho_ud_boosted", "rho_ud_rest") and len(rows) == points
    got = np.array(rows, dtype=float)
    assert np.isfinite(got).all()
    expected = offdiag_records(xi, theta, gamma, g_max, points)
    if fmt == "json":
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    else:
        assert (np.abs(got - expected) <= (5e-12 + 1e-15) * np.abs(expected)).all()


EVOLVE_PHI = (0.0, math.nextafter(2.0 * math.pi, 0.0))
EVOLVE_GAMMA = (None, 5e-324, sys.float_info.min, 1.0, 1e308)
EVOLVE_NODES = (2, 17, 201, 402)
BLOCH = ("1,0,0", "0,0,-1", "0.3,-0.4,0.5", "0,0,0")


def evolve_edges(test):
    """Each edge rapidity at each edge angle, with the edge azimuths, rates, point
    and node counts, initial states and formats in turn."""
    for i, xi in enumerate(OFFDIAG_XI):
        for j, theta in enumerate(OFFDIAG_THETA):
            k = i * len(OFFDIAG_THETA) + j
            test = example(xi=xi, theta=theta, phi=EVOLVE_PHI[k % 2],
                           gamma=EVOLVE_GAMMA[(i + j) % 5], g_max=OFFDIAG_G_MAX[k % 3],
                           points=(2, 3, 20)[(i + 2 * j) % 3], nodes=EVOLVE_NODES[k % 4],
                           bloch=BLOCH[(k // 2) % 4], fmt=("csv", "json")[k % 2])(test)
    return test


def refused_flags(xi, theta, phi, gamma, g_max, points, nodes, bloch):
    """The flags whose values lie outside their domain, as ``evolve`` sees them."""
    gamma = 1.0 if gamma is None else gamma
    bad = {"--xi": not xi >= 0.0,
           "--phi": not 0.0 <= phi < 2.0 * math.pi,
           "--gamma": not gamma >= sys.float_info.min,
           "--nodes": not 2 <= nodes <= cli.MAX_NODES,
           "--bloch": not bloch.isprintable()
           or not np.linalg.norm([float(c) for c in bloch.split(",")]) <= 1.0 + 1e-12,
           "--gamma-t2-max": not g_max > 0.0 or gamma > 0.0 and not g_max / gamma < math.inf,
           "--points": points < 2}
    if theta is None:
        # the default, theta_opt, underflows at large rapidity
        bad["--theta"] = xi >= 0.0 and not eta_max(xi).theta_opt >= sys.float_info.min
    else:
        bad["--theta"] = not 0.0 <= theta <= math.pi
    return {flag for flag, refused in bad.items() if refused}


def evolve_records(xi, theta, phi, gamma, g_max, points, nodes, bloch):
    """The rows that evolve should write and the largest analytic-oracle difference."""
    gamma = 1.0 if gamma is None else gamma
    theta = float(eta_max(xi).theta_opt) if theta is None else theta
    s = Scenario(xi, theta, phi, gamma=gamma)
    grid = np.linspace(0.0, g_max, points)
    times = np.sqrt(grid / gamma)
    rx, ry, rz = (float(c) for c in bloch.split(","))
    rho0 = 0.5 * np.array([[1 + rz, rx - 1j * ry], [rx + 1j * ry, 1 - rz]])
    ana = evolve_elementwise(rho0, s, times)
    num = average_quadrature(rho0, s, times, QuadratureSpec(nodes))
    rows = np.column_stack([grid, ana[:, 0, 0].real, num[:, 0, 0].real, ana[:, 0, 1].real,
                            num[:, 0, 1].real, ana[:, 0, 1].imag, num[:, 0, 1].imag])
    return rows, float(np.abs(ana - num).max())


# Each float flag draws from its domain or a wider box around it, so that most
# examples pass every check and reach the table.
@pinned
@given(xi=st.floats(0.0, 50.0) | st.floats(-1.0, 2e3),
       theta=st.none() | st.floats(0.0, math.pi) | st.floats(-0.5, 3.5),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True) | st.floats(-1.0, 7.0),
       gamma=st.none() | st.floats(1e-3, 1e3) | st.floats(-1.0, 1e308),
       g_max=st.floats(0.0, 100.0, exclude_min=True) | st.floats(-1.0, 1e308),
       points=st.integers(min_value=1, max_value=30), nodes=st.sampled_from((1, *EVOLVE_NODES)),
       bloch=st.sampled_from(BLOCH) | st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(
           lambda r: ",".join(map(repr, r))),
       fmt=st.sampled_from(["csv", "json"]))
@evolve_edges
# float() strips the line break, but the echo in the comment block would not
@example(xi=2.5, theta=None, phi=0.0, gamma=None, g_max=4.0, points=2, nodes=201,
         bloch="1,0,0\n", fmt="csv")
def test_evolve_writes_the_library_columns_or_names_a_flag(xi, theta, phi, gamma, g_max, points,
                                                          nodes, bloch, fmt):
    argv = ["evolve", f"--xi={xi!r}", f"--phi={phi!r}", f"--gamma-t2-max={g_max!r}",
            f"--points={points}", f"--nodes={nodes}", f"--bloch={bloch}", f"--format={fmt}"]
    argv += [f"--{flag}={value!r}" for flag, value in (("theta", theta), ("gamma", gamma))
             if value is not None]
    code, out, err = run(argv)
    refused = refused_flags(xi, theta, phi, gamma, g_max, points, nodes, bloch)
    if code == 2:
        match = re.fullmatch(r"error: (--[a-z0-9-]+): [^\n]*\n", err)
        assert out == "" and match and match[1] in refused, err
        return
    assert not refused, refused
    if code == 1:
        # the oracle refuses a time, or a state or entry fails validation
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), err
        return
    assert code == 0
    expected, worst = evolve_records(xi, theta, phi, gamma, g_max, points, nodes, bloch)
    warning = (f"warning: max_analytic_oracle_diff = {worst:.12g} exceeds {ORACLE_TOL:g}; the "
               "quadrature oracle may be under-resolved, try a larger --nodes\n")
    assert err == (warning if worst > ORACLE_TOL else "")
    names, rows = parse(out, fmt)
    assert names == ("gamma_t2", "rho_uu_analytic", "rho_uu_oracle", "re_rho_ud_analytic",
                     "re_rho_ud_oracle", "im_rho_ud_analytic", "im_rho_ud_oracle")
    got = np.array(rows, dtype=float).reshape(expected.shape)
    if fmt == "json":
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    else:
        assert f"# max_analytic_oracle_diff = {worst:.12g}\n" in out
        assert (np.abs(got - expected) <= (5e-12 + 1e-15) * np.abs(expected)).all()


CONCURRENCE_EDGES = (0.0, 5e-324, sys.float_info.min, 1e308, math.pi,
                     math.nextafter(2.0 * math.pi, 0.0))


def concurrence_edges(test):
    """Each edge rapidity with each edge value as the angle, and the edge values as
    rate and grid end in turn, at 2, 3 or 20 points and 2 to 402 nodes."""
    edges = (None, *CONCURRENCE_EDGES)
    for i, xi in enumerate(OFFDIAG_XI):
        for j, theta in enumerate(edges):
            k = i * len(edges) + j
            test = example(xi=xi, theta=theta, gamma=edges[(i + j + 1) % 7],
                           g_max=CONCURRENCE_EDGES[(2 * i + j) % 6], points=(2, 3, 20)[k % 3],
                           nodes=EVOLVE_NODES[k % 4], fmt=("csv", "json")[k % 2])(test)
    return test


def concurrence_records(xi, theta, gamma, g_max, points, nodes):
    """The rows that concurrence should write and the largest difference of its
    concurrence from the boosted reference."""
    gamma = 1.0 if gamma is None else gamma
    theta = float(eta_max(xi).theta_opt) if theta is None else theta
    s = Scenario(xi, theta, 0.0, gamma=gamma)
    grid = np.linspace(0.0, g_max, points)
    times = np.sqrt(grid / gamma)
    values = concurrence(two_qubit_average(bell_phi_plus(), s, times, QuadratureSpec(nodes)))
    rest = np.exp(-decay_exponent(4.0 * gamma, times))
    boosted = np.exp(-decay_exponent(4.0 * s.gamma_prime, times))
    return np.column_stack([grid, values, rest, boosted]), float(np.abs(values - boosted).max())


@pinned
@given(xi=st.floats(0.0, 50.0) | st.floats(-1.0, 2e3),
       theta=st.none() | st.floats(0.0, math.pi) | st.floats(-0.5, 7.0),
       gamma=st.none() | st.floats(1e-3, 1e3) | st.floats(-1.0, 1e308),
       g_max=st.floats(0.0, 100.0, exclude_min=True) | st.floats(-1.0, 1e308),
       points=st.integers(min_value=1, max_value=30), nodes=st.sampled_from((1, *EVOLVE_NODES)),
       fmt=st.sampled_from(["csv", "json"]))
@concurrence_edges
def test_concurrence_writes_finite_columns_or_names_a_flag(xi, theta, gamma, g_max, points,
                                                           nodes, fmt):
    argv = ["concurrence", f"--xi={xi!r}", f"--gamma-t2-max={g_max!r}", f"--points={points}",
            f"--nodes={nodes}", f"--format={fmt}"]
    argv += [f"--{flag}={value!r}" for flag, value in (("theta", theta), ("gamma", gamma))
             if value is not None]
    code, out, err = run(argv)
    refused = refused_flags(xi, theta, 0.0, gamma, g_max, points, nodes, "0,0,0")
    if code == 2:
        match = re.fullmatch(r"error: (--[a-z0-9-]+): [^\n]*\n", err)
        assert out == "" and match and match[1] in refused, err
        return
    assert not refused, refused
    if code == 1:
        # the oracle refuses a time, or a state fails validation; every column is finite
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), err
        assert "non-finite" not in err, err
        return
    assert code == 0
    expected, worst = concurrence_records(xi, theta, gamma, g_max, points, nodes)
    warning = (f"warning: max|concurrence - reference_boosted| = {worst:.12g} exceeds "
               f"{ORACLE_TOL:g}; the quadrature oracle may be under-resolved, try a larger "
               "--nodes\n")
    assert err == (warning if worst > ORACLE_TOL else "")
    names, rows = parse(out, fmt)
    assert names == ("gamma_t2", "concurrence", "reference_rest", "reference_boosted")
    got = np.array(rows, dtype=float).reshape(expected.shape)
    assert np.isfinite(got).all()
    if fmt == "json":
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    else:
        assert (np.abs(got - expected) <= (5e-12 + 1e-15) * np.abs(expected)).all()
