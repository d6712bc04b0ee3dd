"""Property tests of the boost geometry over the whole rapidity range.

The rapidity runs from 0 to 1e6, with the edges where a naive form
breaks as explicit examples: subnormal and tiny xi (cosh(xi) - 1
cancels), xi ~ 372 (sech(xi/2)**4 underflows), 745 (exp(-xi)
underflows) and 1000 (cosh(xi) overflows).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinboost.relkin import BoostParams, effective_field, eta_max, eta_profile

XI = st.floats(min_value=0.0, max_value=1e6)
THETA = st.floats(min_value=0.0, max_value=math.pi)
EDGE_XI = (0.0, 5e-324, 1e-9, 372.0, 745.0, 1000.0)

pinned = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def edge_examples(test):
    """Add every edge rapidity as an explicit example, at a generic angle and at 0."""
    for xi in EDGE_XI:
        test = example(xi=xi, theta=0.0)(example(xi=xi, theta=0.7)(test))
    return test


@pinned
@given(xi=XI, theta=THETA)
@edge_examples
def test_eta_finite_bounded_and_symmetric(xi, theta):
    eta = eta_profile(xi, theta)
    assert math.isfinite(eta)
    assert 0.0 <= eta <= eta_max(xi).eta_max * (1 + 1e-12)
    # pi - mirror is exact, so (pi - mirror, mirror) is a representable mirror pair
    mirror = math.pi - theta
    assert eta_profile(xi, math.pi - mirror) == eta_profile(xi, mirror)


@pinned
@given(xi=XI)
@example(xi=0.0)
@example(xi=5e-324)
@example(xi=1e-9)
@example(xi=372.0)
@example(xi=745.0)
@example(xi=1000.0)
def test_theta_opt_closed_form(xi):
    opt = eta_max(xi)
    assert abs(math.cos(2.0 * opt.theta_opt) - math.tanh(0.5 * xi) ** 2) <= 1e-15
    assert 0.0 <= opt.theta_opt <= math.pi / 4


@pinned
@given(xi=st.floats(min_value=1e-70, max_value=1e-4))
@example(xi=1e-9)
def test_eta_max_small_rapidity_asymptote(xi):
    # tanh(x)**4 / x**4 = 1 - 4 x**2 / 3 + ..., with x = xi / 2; 1e-15 is rounding
    assert abs(eta_max(xi).eta_max / (0.5 * xi) ** 4 - 1.0) <= xi * xi + 1e-15


@pinned
@given(xis=st.lists(XI, min_size=1, max_size=8), thetas=st.lists(THETA, min_size=1, max_size=8))
@example(xis=list(EDGE_XI), thetas=[0.0, 1e-300, 0.7, math.pi / 2, math.pi])
def test_array_calls_match_scalar_calls_bitwise(xis, thetas):
    grid = eta_profile(np.array(xis)[:, None], np.array(thetas))
    assert grid.tolist() == [[eta_profile(x, t) for t in thetas] for x in xis]
    opt = eta_max(np.array(xis))
    for name in ("eta_max", "theta_opt", "chi_at_opt"):
        assert getattr(opt, name).tolist() == [getattr(eta_max(x), name) for x in xis]


@pinned
@given(theta=THETA)
@example(theta=0.7)
def test_tiny_rapidity_matches_series(theta):
    # To relative order xi**2 = 1e-14, eta = (xi**4 / 4) sin(theta)**2 cos(theta)**2.
    # cosh(1e-7) - 1 keeps only a few digits, so a form built on it misses
    # this by percents. Compared on the profile's own scale, (xi/2)**4.
    xi = 1e-7
    series = xi**4 / 4 * (math.sin(theta) * math.cos(theta)) ** 2
    tol = 1e-12 * (xi / 2) ** 4
    assert abs(effective_field(BoostParams(xi, theta)).eta_mod - series) <= tol
    assert abs(eta_profile(xi, theta) - series) <= tol
