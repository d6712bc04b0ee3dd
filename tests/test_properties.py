"""Property tests of the boost geometry and the channel over the whole rapidity range.

The rapidity runs from 0 to 1e6, with the edges where a naive form
breaks as explicit examples: subnormal and tiny xi (cosh(xi) - 1
cancels), xi ~ 372 (sech(xi/2)**4 underflows), 745 (exp(-xi)
underflows), 746 (sech(xi/2)**2 is the least subnormal), 1000
(cosh(xi) overflows), 1490 (exp(-xi/2) underflows) and 1e6.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from reference import bits, eta_max_reference, geometry_reference, scenario, ulps
from spinboost.analysis import PROBES, choi_diagnostics, choi_stack
from spinboost.channel import (
    dressed_apply,
    evolve_elementwise,
    operator_sum_apply,
    plus_state,
)
from spinboost.relkin import Scenario, eta_max, eta_profile
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
    assert abs(scenario(xi, theta).eta_mod - series) <= tol
    assert abs(eta_profile(xi, theta) - series) <= tol


def edge_grid(xis=EDGE_XI, thetas=EDGE_THETA, **other):
    """Add every edge rapidity at every edge angle, with ``other`` arguments, as examples."""
    def add(test):
        for xi in xis:
            for theta in thetas:
                test = example(xi=xi, theta=theta, **other)(test)
        return test
    return add


@pinned
@given(xi=XI, theta=THETA)
@edge_grid()
def test_effective_field_finite_at_every_rapidity(xi, theta):
    f = scenario(xi, theta)
    assert np.isfinite(f.n).all() and abs(math.hypot(*f.n) - 1.0) <= 1e-15
    assert f.n_perp == f.n[0] and f.n[1] == 0.0  # phi = 0
    assert f.kappa >= 1.0  # may be inf
    assert math.isfinite(f.chi_mod)
    assert bits(f.eta_mod) == bits(eta_profile(xi, theta))


@pinned
@given(xi=st.floats(min_value=0.0, max_value=700.0), theta=THETA)
@example(xi=700.0, theta=0.7)
@example(xi=700.0, theta=math.pi / 2)
@example(xi=372.0, theta=math.pi)
@example(xi=1e-9, theta=1e-300)
@example(xi=5e-324, theta=0.7)
def test_kappa_matches_fifty_digit_reference(xi, theta):
    kappa = scenario(xi, theta).kappa
    ref = geometry_reference(xi, theta)[0]
    assert abs(kappa - ref) <= 1e-14 * ref


# Each geometry column, and eta_profile, within this many units in the last
# place of the 50-digit reference (the largest seen on the sweep is 11).
GEOMETRY_ULPS = 16


@pinned
@given(xi=st.floats(min_value=0.0, max_value=700.0),
       theta=st.floats(min_value=0.0, max_value=math.pi, allow_subnormal=False))
@edge_grid(xis=(0.0, 5e-324, 1e-9, 372.0, 700.0),
           thetas=(0.0, 1e-300, 0.7, math.pi / 2 - 1e-12, math.pi / 2, math.pi / 2 + 1e-12,
                   math.nextafter(math.pi, 0.0), math.pi))
def test_geometry_within_its_ulp_budget_of_fifty_digit_reference(xi, theta):
    # Up to xi = 700, sech(xi/2)**2 is a normal float, and so is sin(theta) when
    # theta is; the kernel then keeps full relative accuracy in every column.
    s = scenario(xi, theta)
    ref = geometry_reference(xi, theta)
    got = (s.kappa, s.n_perp, s.n[2], s.eta_mod, s.chi_mod)
    for name, value, exact in zip(("kappa", "n_perp", "n_z", "eta", "chi"), got, ref):
        assert ulps(value, exact) <= GEOMETRY_ULPS, (name, value, exact)
    assert ulps(eta_profile(xi, theta), ref[3]) <= GEOMETRY_ULPS


# eta_max, theta_opt and chi_at_opt within these many units in the last place
# of the 50-digit reference; the largest seen on 24,000 rapidities in [0, 700],
# at numpy's native and at its baseline dispatch, were 10, 3 and 6.
ETA_MAX_ULPS = {"eta_max": 16, "theta_opt": 4, "chi_at_opt": 8}


@pinned
@given(xi=st.floats(min_value=0.0, max_value=700.0))
@example(xi=0.0)
@example(xi=5e-324)
@example(xi=1e-80)
@example(xi=1e-9)
@example(xi=1e-3)
@example(xi=372.0)
@example(xi=700.0)
def test_eta_max_within_its_ulp_budget_of_fifty_digit_reference(xi):
    # Below xi ~ 2e-77 eta_max is subnormal, and chi_at_opt below ~ 3e-154,
    # where an ulp is 5e-324; the library stays within 2 of them there, so the
    # budgets need no absolute floor.
    opt = eta_max(xi)
    got = (opt.eta_max, opt.theta_opt, opt.chi_at_opt)
    for (name, budget), value, exact in zip(ETA_MAX_ULPS.items(), got, eta_max_reference(xi)):
        assert ulps(float(value), exact) <= budget, (name, value, exact)


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
    assert (values >= s.eta_mod / 2 - 1e-12).all()


GAMMA = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)
FIELDS = ("xi", "theta", "phi", "gamma", "kappa", "n", "n_perp", "eta_mod", "chi_mod",
          "gamma_prime")


def scenario_columns(shapes):
    """(xi, theta, phi, gamma) of the broadcastable ``shapes``, a float for shape ()."""
    return st.tuples(*(elements if shape == () else arrays(float, shape, elements=elements)
                       for elements, shape in zip((XI, THETA, PHI, GAMMA), shapes)))


def field_bits(s, k=()):
    """The bits of the ten fields of ``s``, or of its case ``k``."""
    return [np.asarray(getattr(s, name), dtype=float)[k].view(np.uint64).tolist()
            for name in FIELDS]


@pinned
@given(columns=mutually_broadcastable_shapes(num_shapes=4, max_dims=3, max_side=3)
       .flatmap(lambda b: scenario_columns(b.input_shapes)))
@example(columns=(2.5, 0.7, 1.0, np.array([0.5, 1.0, 2.0])))  # rates against one boost
@example(columns=(np.array(EDGE_XI)[:, None], np.array(EDGE_THETA), 0.3, 1e308))
@example(columns=(1.0, 0.5, 0.3, 2.0))
def test_each_case_of_a_stack_is_the_case_built_alone(columns):
    s = Scenario(*columns[:3], gamma=columns[3])
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    assert np.shape(s.gamma_prime) == shape and s.n.shape == shape + (3,)
    assert not s.n.flags.writeable
    assert all(not getattr(s, name).flags.writeable for name in FIELDS if shape)
    for k in np.ndindex(shape):
        values = [float(np.broadcast_to(c, shape)[k]) for c in columns]
        alone = Scenario(*values[:3], gamma=values[3])
        assert all(type(getattr(alone, name)) is float for name in FIELDS if name != "n")
        assert field_bits(s, k) == field_bits(alone)
        if shape:
            assert field_bits(s[k]) == field_bits(alone)
