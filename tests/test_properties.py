"""Property tests of the boost geometry and the channel over the whole rapidity range.

The rapidity runs from 0 to 1e6, with the edges where a naive form
breaks as explicit examples: subnormal and tiny xi (cosh(xi) - 1
cancels), xi ~ 372 (sech(xi/2)**4 underflows), 745 (exp(-xi)
underflows), 746 (sech(xi/2)**2 is the least subnormal), 1000
(cosh(xi) overflows), 1490 (exp(-xi/2) underflows) and 1e6.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import scenario
from spinboost.analysis import PROBES, choi_diagnostics, choi_stack
from spinboost.channel import (
    dressed_apply,
    evolve_elementwise,
    operator_sum_apply,
    plus_state,
)
from spinboost.relkin import BoostParams, effective_field, eta_max, eta_profile
from spinboost.spinalg import pauli_vector, require_valid

XI = st.floats(min_value=0.0, max_value=1e6)
THETA = st.floats(min_value=0.0, max_value=math.pi)
PHI = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)
# gamma t**2 on the rest-frame axis; gamma' t**2 is kappa**2 times it
G = st.floats(min_value=0.0, max_value=1e3)
EDGE_XI = (0.0, 5e-324, 1e-9, 372.0, 745.0, 746.0, 1000.0, 1490.0, 1e6)
EDGE_THETA = (0.0, 1e-300, 0.7, math.pi / 2, math.pi)
STATES = [0.5 * (np.eye(2) + pauli_vector(r))
          for r in ((1.0, 0.0, 0.0), (0.3, -0.5, 0.6), (0.0, 0.0, 1.0))]

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


def edge_grid(**other):
    """Add every edge rapidity at every edge angle, with ``other`` arguments, as examples."""
    def add(test):
        for xi in EDGE_XI:
            for theta in EDGE_THETA:
                test = example(xi=xi, theta=theta, **other)(test)
        return test
    return add


@pinned
@given(xi=XI, theta=THETA)
@edge_grid()
def test_effective_field_finite_at_every_rapidity(xi, theta):
    f = effective_field(BoostParams(xi, theta))
    assert np.isfinite(f.n).all() and abs(math.hypot(*f.n) - 1.0) <= 1e-15
    assert f.kappa >= 1.0  # may be inf
    assert math.isfinite(f.chi_mod)
    assert abs(f.eta_mod - eta_profile(xi, theta)) <= 1e-15


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x by their Taylor series, for 0 <= x <= pi."""
    cos = sin = Decimal(0)
    term, k = Decimal(1), 0
    while k < 2 or term > Decimal("1e-60"):
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
        k += 1
        term = term * x / k
    return cos, sin


def kappa_reference(xi: float, theta: float) -> float:
    """hypot(-2 sinh(xi/2)**2 cos sin, cos**2 + cosh(xi) sin**2) in 50 digits.

    Like the library, it measures theta from the nearer pole, taking
    math.pi as pi (math.pi - theta is exact for theta >= pi/2).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        e = Decimal(xi).exp()
        cosh = (e + 1 / e) / 2
        cos, sin = _cos_sin(Decimal(min(theta, math.pi - theta)))
        perp = -(cosh - 1) * cos * sin
        z = cos * cos + cosh * sin * sin
        return float((perp * perp + z * z).sqrt())


@pinned
@given(xi=st.floats(min_value=0.0, max_value=700.0), theta=THETA)
@example(xi=700.0, theta=0.7)
@example(xi=700.0, theta=math.pi / 2)
@example(xi=372.0, theta=math.pi)
@example(xi=1e-9, theta=1e-300)
@example(xi=5e-324, theta=0.7)
def test_kappa_matches_fifty_digit_reference(xi, theta):
    kappa = effective_field(BoostParams(xi, theta)).kappa
    ref = kappa_reference(xi, theta)
    assert abs(kappa - ref) <= 1e-14 * ref


@pinned
@given(xi=XI, theta=THETA, phi=PHI, g=G)
@edge_grid(phi=1.0, g=2.0)
def test_channel_forms_agree_at_every_rapidity(xi, theta, phi, g):
    s = scenario(xi, theta, phi)
    t = math.sqrt(g)
    for rho in STATES:
        ref = evolve_elementwise(rho, s, t)
        require_valid(ref)
        for form in (operator_sum_apply, dressed_apply):
            out = form(rho, s, t)
            require_valid(out)
            assert np.linalg.norm(out - ref) <= 1e-10


@pinned
@given(xi=XI, theta=THETA, phi=PHI, g=G)
@edge_grid(phi=1.0, g=2.0)
def test_channel_completely_positive_at_every_rapidity(xi, theta, phi, g):
    s = scenario(xi, theta, phi)
    t = math.sqrt(g)
    images = evolve_elementwise(PROBES, s, t)
    require_valid(images)
    choi, linearity = choi_stack(images)
    assert linearity.max() <= 1e-10
    assert choi_diagnostics(choi).min_eigenvalue >= -1e-10


@pinned
@given(xi=XI, theta=THETA, g=G)
@edge_grid(g=2.0)
def test_trajectory_decays_monotonically_to_its_floor(xi, theta, g):
    s = scenario(xi, theta)
    images = evolve_elementwise(plus_state(), s, np.sqrt(np.linspace(0.0, g, 50)))
    values = images[:, 0, 1].real
    assert np.isfinite(values).all()
    # the decaying and the growing term are rounded apart, so a step may
    # rise in the last bit, by at most the ulp of 1/2
    assert (np.diff(values) <= np.spacing(0.5)).all()
    assert (values >= s.field.eta_mod / 2 - 1e-12).all()
