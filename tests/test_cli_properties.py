"""The figure-data commands as properties: every number they write means the library's float.

``cli.main`` runs in-process over ``scan-eta`` and ``eta-max`` flags, in
both formats, with the edge rapidities 5e-324, 1e-7, 709, 1418 and 1490
and grids of 1 to 5 steps as explicit examples. Each JSON number parses
back to the library's float bit for bit; each CSV number lies within half
a unit of its twelfth significant digit, at most 5e-12 of the value. The
output is parsed, not compared with an encoder.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinboost import cli
from spinboost.relkin import eta_max, eta_profile

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
