"""Tests for the boost kinematics and field geometry."""

import math
import re

import numpy as np
import pytest

from reference import beta, bits, boost_em_field, cosh_xi, scenario, velocity_unit
from spinboost.relkin import Scenario, _geometry, _half_rapidity, eta_max, eta_profile

COSH_2P5 = 6.132289479663686


class TestRapidity:
    """Speed beta = tanh(xi) and Lorentz factor cosh(xi) of a rapidity."""

    def test_zero(self):
        b = Scenario(xi=0.0, gamma=1.0)
        assert beta(b) == 0.0 and cosh_xi(b) == 1.0

    def test_quoted_amplification(self):
        b = Scenario(xi=2.5, gamma=1.0)
        assert abs(math.atanh(beta(b)) - 2.5) < 1e-12
        assert abs(cosh_xi(b) - 6.13229) < 5e-5

    def test_monotone_divergence(self):
        boosts = [Scenario(xi=xi, gamma=1.0) for xi in np.linspace(0.5, 15.0, 30).tolist()]
        betas = [beta(b) for b in boosts]
        assert all(b > a for a, b in zip(betas, betas[1:]))
        assert betas[-1] < 1.0 and cosh_xi(boosts[-1]) > 1e6

    def test_cosh_identity(self):
        rng = np.random.default_rng(0)
        for xi in rng.uniform(0, math.atanh(0.999), 50).tolist():
            b = Scenario(xi=xi, gamma=1.0)
            assert abs(cosh_xi(b) - 1.0 / math.sqrt(1 - beta(b)**2)) < 1e-12


class TestBoostParams:
    """The boost columns (xi, theta, phi) of a ``Scenario``."""

    def test_beta_in_range(self):
        b = Scenario(xi=3.0, theta=1.0, phi=2.0, gamma=1.0)
        assert 0 <= beta(b) < 1
        assert cosh_xi(b) >= 1

    @pytest.mark.parametrize("kw", [dict(xi=-1.0), dict(xi=1.0, theta=4.0), dict(xi=1.0, phi=7.0)])
    def test_domain(self, kw):
        with pytest.raises(ValueError):
            Scenario(**kw, gamma=1.0)

    def test_numpy_scalar_named_as_a_float(self):
        with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi\], got 5\.0$"):
            Scenario(1.0, np.float64(5.0), gamma=1.0)


VALID = {"xi": 1.0, "theta": 0.5, "phi": 0.3, "gamma": 1.0}
REFUSAL = {"xi": r"rapidity must be finite and >= 0", "theta": r"theta must lie in \[0, pi\]",
           "phi": r"phi must lie in \[0, 2\*pi\)", "gamma": r"gamma must be finite and > 0"}
INVALID = {"xi": (-1.0, math.inf), "theta": (-1e-300, 4.0), "phi": (-0.5, 2 * math.pi),
           "gamma": (0.0, -1.0, math.inf)}


class TestScenarioRefusal:
    """Each of the four columns of a ``Scenario`` is refused with its own message."""

    @pytest.mark.parametrize("column, bad", [(column, bad) for column, values in INVALID.items()
                                             for bad in (*values, math.nan)])
    def test_each_column_names_its_first_invalid_element(self, column, bad):
        message = rf"^{REFUSAL[column]}, got {re.escape(repr(bad))}$"
        # as a float, a numpy float (shown as a float) and in a stack
        for value in (bad, np.float64(bad), np.array([[VALID[column]], [bad]])):
            with pytest.raises(ValueError, match=message):
                Scenario(**{**VALID, column: value})

    def test_columns_are_checked_in_order(self):
        with pytest.raises(ValueError, match="^rapidity"):
            Scenario(-1.0, 4.0, 7.0, gamma=0.0)
        with pytest.raises(ValueError, match="^phi"):
            Scenario(1.0, 0.5, np.array([0.1, 7.0]), gamma=np.array([[0.0], [1.0]]))


class TestBoostEmField:
    def test_no_boost_is_identity(self):
        e = np.array([0.3, -0.2, 0.9])
        b = np.array([1.0, 2.0, 3.0])
        ep, bp = boost_em_field(e, b, Scenario(xi=0.0, theta=0.3, phi=0.4, gamma=1.0))
        np.testing.assert_array_equal(ep, e)
        np.testing.assert_array_equal(bp, b)

    def test_velocity_along_x_with_bz(self):
        xi = 1.3
        boost = Scenario(xi=xi, theta=math.pi / 2, phi=0.0, gamma=1.0)
        ep, bp = boost_em_field([0, 0, 0], [0, 0, 2.0], boost)
        ch, v = math.cosh(xi), math.tanh(xi)
        np.testing.assert_allclose(bp, [0, 0, ch * 2.0], atol=1e-12)
        np.testing.assert_allclose(ep, [0, -ch * v * 2.0, 0], atol=1e-12)

    def test_parallel_field_invariant_exact(self):
        # the exactly representable axis direction passes through bitwise
        boost = Scenario(xi=2.0, theta=0.0, gamma=1.0)
        _, bp = boost_em_field([0, 0, 0], [0, 0, 1.7], boost)
        np.testing.assert_array_equal(bp, [0, 0, 1.7])
        # theta = pi/2 leaves cos(theta) = 6.1e-17, so only eps-level
        # agreement is representable there
        boost = Scenario(xi=2.0, theta=math.pi / 2, phi=0.0, gamma=1.0)
        _, bp = boost_em_field([0.0, 0.0, 0.0], [3.25, 0.0, 0.0], boost)
        np.testing.assert_allclose(bp, [3.25, 0.0, 0.0], rtol=0, atol=1e-14)

    def test_parallel_field_invariant_random_directions(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            boost = Scenario(rng.uniform(0, 3), rng.uniform(0, math.pi),
                             rng.uniform(0, 2 * math.pi), gamma=1.0)
            c = rng.uniform(0.5, 2.0)
            b = c * velocity_unit(boost)
            _, bp = boost_em_field([0, 0, 0], b, boost)
            np.testing.assert_allclose(bp, b, rtol=0, atol=1e-13 * cosh_xi(boost) * c)

    def test_reproduces_effective_field_components(self):
        # the boost of B = B ez must land on B * d with d = kappa n from the geometry
        rng = np.random.default_rng(2)
        for _ in range(100):
            boost = Scenario(rng.uniform(0, 3), rng.uniform(0, math.pi),
                             rng.uniform(0, 2 * math.pi), gamma=1.0)
            b_mag = rng.uniform(0.1, 2.0)
            _, bp = boost_em_field([0, 0, 0], [0, 0, b_mag], boost)
            kappa, n, _, _, _ = _geometry(boost.xi, boost.theta, boost.phi)
            d = kappa * n
            np.testing.assert_allclose(bp, b_mag * d, rtol=0, atol=1e-12 * cosh_xi(boost))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            boost_em_field([np.inf, 0, 0], [0, 0, 1], Scenario(xi=1.0, gamma=1.0))


class TestEffectiveField:
    def test_no_boost(self):
        f = scenario(0.0, 0.7, 1.1)
        assert f.kappa == 1.0
        np.testing.assert_array_equal(f.n, [0, 0, 1])
        assert f.eta_mod == 0.0 and f.chi_mod == 0.0

    def test_quoted_amplification_at_optimum(self):
        opt = eta_max(2.5)
        f = scenario(2.5, opt.theta_opt)
        assert abs(f.kappa**2 - 6.13229) < 5e-5

    def test_transverse_velocity(self):
        xi = 1.8
        f = scenario(xi, math.pi / 2)
        np.testing.assert_allclose(f.kappa * f.n, [0, 0, math.cosh(xi)], atol=1e-12)
        assert abs(f.kappa - math.cosh(xi)) < 1e-12
        assert f.eta_mod < 1e-28

    def test_transverse_axis_lies_on_ez(self):
        # theta = math.pi/2 is the equator under the one convention: cos(theta) is
        # sin(math.pi/2 - math.pi/2) = 0, not cos(math.pi/2) = 6.1e-17. n_z is
        # q/|(p, q)| from rounded t and s, whose s**2 + t**2 may miss 1 by an ulp.
        xi = np.concatenate([[0.0, 5e-324, 5.0, 745.0, 1e6], np.linspace(0.0, 50.0, 501)])
        s = Scenario(xi, math.pi / 2, 2.0, gamma=1.0)
        assert not s.n_perp.any() and not s.n[:, :2].any()
        assert not s.eta_mod.any() and not s.chi_mod.any()
        assert np.abs(s.n[:, 2] - 1.0).max() <= 2.0**-52

    def test_kappa_identity_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            xi = rng.uniform(0, 4)
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            f = scenario(xi, theta, phi)
            d = f.kappa * f.n
            expected = math.cos(theta) ** 2 + math.cosh(xi) ** 2 * math.sin(theta) ** 2
            assert abs(float(np.dot(d, d)) - expected) < 1e-12 * max(1.0, expected)
            assert f.kappa >= 1.0

    def test_kappa_is_one_only_when_degenerate(self):
        assert scenario(0.0, 1.0).kappa == 1.0
        assert scenario(2.0, 0.0).kappa == 1.0
        assert scenario(2.0, 1.0).kappa > 1.0

    def test_scalars_independent_of_azimuth_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            xi, theta = rng.uniform(0, 3), rng.uniform(0, math.pi)
            base = scenario(xi, theta, 0.0)
            other = scenario(xi, theta, rng.uniform(0, 2 * math.pi))
            assert base.eta_mod == other.eta_mod
            assert base.chi_mod == other.chi_mod
            assert base.kappa == other.kappa
            assert base.n_perp == other.n_perp
            assert base.n[2] == other.n[2]

    def test_chi_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            f = scenario(rng.uniform(0, 5), rng.uniform(0, math.pi))
            assert 0.0 <= f.chi_mod <= 0.5 + 1e-15
            assert 0.0 <= f.eta_mod <= 1.0


def scalar_geometry(xi, theta, phi):
    """The per-boost geometry (kappa, n, n_perp, eta, chi) in Python floats, one
    boost at a time, under the one theta convention: cos(theta) is
    +-sin(pi/2 - a) with a = min(theta, pi - theta), and |(p, q)| is numpy's
    hypot of (s**2, 2 t sin a)."""
    t, s = map(float, _half_rapidity(float(xi)))
    a = min(theta, math.pi - theta)
    st, s2 = math.sin(a), s * s
    w = 2.0 * t * t * st
    p = math.copysign(w * math.sin(0.5 * math.pi - a), theta - 0.5 * math.pi)
    q = s2 + w * st
    h = float(np.hypot(s2, 2.0 * t * st))
    if h == 0.0:
        p, q, h, s2 = 0.0, 1.0, 1.0, 1.0
    kappa = h / s2 if s2 else math.inf
    n_perp, n_z = p / h, q / h
    n = [n_perp * math.cos(phi), n_perp * math.sin(phi), n_z]
    return [kappa] + n + [n_perp, n_perp * n_perp, n_z * abs(n_perp)]


def geometry_rows(xi, theta, phi):
    """One row (kappa, n, n_perp, eta, chi) of 7 floats per element of a kernel call."""
    kappa, n, n_perp, eta, chi = _geometry(xi, theta, phi)
    return np.column_stack([kappa, n, n_perp, eta, chi])


class TestGeometryKernel:
    """``_geometry`` element by element against the scalar form and a ``Scenario``."""

    EDGE_XI = [0.0, 5e-324, 709.0, 710.0, 745.0, 1e6]
    EDGE_THETA = [0.0, math.pi / 2, math.pi, math.nextafter(math.pi, 0.0)]

    @pytest.fixture(scope="class")
    def boosts(self):
        rng = np.random.default_rng(41)
        edges = [(xi, theta, phi) for xi in self.EDGE_XI for theta in self.EDGE_THETA
                 for phi in (0.0, 2.0)]
        xi = np.concatenate([rng.uniform(0.0, 5.0, 900), 10.0 ** rng.uniform(-9.0, 3.0, 52)])
        drawn = np.column_stack([xi, rng.uniform(0.0, math.pi, 952),
                                 rng.uniform(0.0, 2 * math.pi, 952)])
        return np.concatenate([np.array(edges), drawn])

    def test_every_element_has_the_scalar_bits(self, boosts):
        assert len(boosts) == 1000
        # any unguarded overflow, division by zero or inf * 0 raises
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            rows = geometry_rows(*boosts.T)
        for row, (xi, theta, phi) in zip(rows, boosts.tolist()):
            f = scenario(xi, theta, phi)
            alone = [f.kappa, *f.n, f.n_perp, f.eta_mod, f.chi_mod]
            assert bits(row) == bits(alone) == bits(scalar_geometry(xi, theta, phi))

    def test_stacks_of_one_two_and_all_permuted(self, boosts):
        rows = geometry_rows(*boosts.T)
        order = np.random.default_rng(42).permutation(len(boosts))
        assert bits(geometry_rows(*boosts[order].T)) == bits(rows[order])
        for k in (0, 1, 13, 999):
            assert bits(geometry_rows(*boosts[k:k + 1].T)) == bits(rows[k:k + 1])
            pair = order[k - 1:k + 1] if k else order[:2]
            assert bits(geometry_rows(*boosts[pair].T)) == bits(rows[pair])

    def test_broadcasts_the_azimuth(self, boosts):
        xi, theta, phi = boosts[:50].T
        kappa, n, n_perp, eta, chi = _geometry(xi[:, None], theta[:, None], phi)
        assert kappa.shape == n_perp.shape == eta.shape == chi.shape == (50, 1)
        assert n.shape == (50, 50, 3)
        diagonal = np.column_stack([kappa[:, 0], n[range(50), range(50)], n_perp[:, 0],
                                    eta[:, 0], chi[:, 0]])
        assert bits(diagonal) == bits(geometry_rows(xi, theta, phi))

    def test_overflowing_kappa_leaves_the_axis_finite(self):
        kappa, n, n_perp, _, _ = _geometry(np.array([745.0, 745.0]), np.array([1.0, 0.0]), 0.0)
        assert kappa.tolist() == [math.inf, 1.0]
        assert np.isfinite(n).all() and n[0, 0] < 0.0 < n[0, 2] and n[0, 1] == 0.0
        assert n[0, 0] == n_perp[0] and n[1].tolist() == [0.0, 0.0, 1.0]


class TestEtaProfile:
    def test_polar_axis_is_zero(self):
        assert eta_profile(1.7, 0.0) == 0.0

    def test_transverse_is_zero(self):
        assert eta_profile(1.7, math.pi / 2) == 0.0

    def test_quarter_angle_value(self):
        # cross-checked against 1 - n_z^2 from the field geometry
        assert abs(eta_profile(2.5, math.pi / 4) - 0.34115) < 1e-4
        assert abs(eta_profile(2.5, math.pi / 4) - 0.3411528670377253) < 1e-12

    def test_matches_field_geometry(self):
        # one kernel: eta_profile has the bits of eta_mod, one case at a time and on a stack
        rng = np.random.default_rng(6)
        xi = np.concatenate([[0.0, 5e-324, 745.0, 1490.0, 1e6], rng.uniform(0, 4, 150),
                             10.0 ** rng.uniform(-9.0, 3.0, 45)])
        theta = np.concatenate([[0.0, math.pi / 2, math.pi / 2 - 1e-12, 1e-300, math.pi],
                                rng.uniform(0, math.pi, 195)])
        for x, t in zip(xi.tolist(), theta.tolist()):
            assert bits(eta_profile(x, t)) == bits(scenario(x, t).eta_mod)
        grid = Scenario(xi[:, None], theta, gamma=1.0).eta_mod
        assert bits(eta_profile(xi[:, None], theta)) == bits(grid)

    def test_symmetric_about_transverse(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xi, theta = rng.uniform(0, 3), rng.uniform(0, math.pi / 2)
            assert abs(eta_profile(xi, theta) - eta_profile(xi, math.pi - theta)) < 1e-14

    def test_negative_rapidity_rejected(self):
        with pytest.raises(ValueError):
            eta_profile(-0.5, 0.3)

    @pytest.mark.parametrize("theta", [math.nan, 5.0, -1e-300, math.pi + 1e-15, math.inf])
    def test_theta_outside_its_range_rejected(self, theta):
        with pytest.raises(ValueError, match=rf"^theta must lie in \[0, pi\], got {theta!r}$"):
            eta_profile(1.0, theta)
        with pytest.raises(ValueError, match=rf"^theta must lie in \[0, pi\], got {theta!r}$"):
            Scenario(1.0, theta, gamma=1.0)

    def test_zero_dimensional_array_named_as_a_float(self):
        with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi\], got 5\.0$"):
            eta_profile(1.0, np.array(5.0))

    def test_stack_refused_with_its_first_bad_theta(self):
        theta = np.array([[0.0, 1.0], [math.nan, 4.0]])
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\], got nan$"):
            eta_profile(np.array([0.5, 2.0]), theta)


class TestHalfRapidity:
    def test_float_path_matches_array_path_bitwise(self):
        rng = np.random.default_rng(11)
        xi = np.concatenate([[0.0, 1e-8, 700.0, 1e6], rng.uniform(0.0, 40.0, 500),
                             10.0 ** rng.uniform(-12.0, 6.0, 500)])
        t, s = _half_rapidity(xi)
        pairs = np.array([[float(v) for v in _half_rapidity(x)] for x in xi.tolist()])
        np.testing.assert_array_equal(pairs.view(np.int64), np.column_stack([t, s]).view(np.int64))

    @pytest.mark.parametrize("xi", [-1.0, -1e-300, math.nan])
    def test_invalid_float_rejected(self, xi):
        with pytest.raises(ValueError, match="rapidity"):
            _half_rapidity(xi)


class TestEtaMax:
    def test_quoted_values(self):
        opt = eta_max(2.5)
        assert abs(opt.eta_max - 0.51780) < 2e-4
        assert abs(opt.chi_at_opt - 0.49969) < 1e-4

    def test_degenerate_at_rest(self):
        opt = eta_max(0.0)
        assert opt.eta_max == 0.0
        assert opt.theta_opt == math.pi / 4
        assert opt.chi_at_opt == 0.0

    def test_limit_toward_unity(self):
        assert eta_max(20.0).eta_max > 0.999

    def test_theta_opt_range(self):
        for xi in (0.2, 1.0, 2.5, 6.0):
            assert 0.0 < eta_max(xi).theta_opt <= math.pi / 4

    def test_profile_attains_maximum(self):
        for xi in (0.5, 1.5, 2.5, 4.0):
            opt = eta_max(xi)
            assert abs(eta_profile(xi, opt.theta_opt) - opt.eta_max) < 1e-12

    def test_chi_closed_form_matches_geometry(self):
        for xi in (0.5, 1.0, 2.5, 5.0):
            opt = eta_max(xi)
            f = scenario(xi, opt.theta_opt)
            assert abs(f.chi_mod - opt.chi_at_opt) < 1e-12

    def test_grid_search_agrees(self):
        # dense-grid argmax of the profile against the closed form
        grid = np.linspace(0.0, math.pi / 2, 100_000)
        step = grid[1] - grid[0]
        for xi in (0.5, 1.0, 2.5, 5.0):
            profile = eta_profile(xi, grid)
            k = int(np.argmax(profile))
            opt = eta_max(xi)
            assert abs(grid[k] - opt.theta_opt) <= step
            assert abs(profile[k] - opt.eta_max) < 1e-9
