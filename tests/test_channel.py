"""Tests for the closed-form channel and its equivalent decompositions."""

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from reference import draw_cases, random_density, rest_dephasing, scenario, stack_of, stacked
from spinboost.channel import (LONG_TIME_GAMMA_T2, Scenario, decay_exponent, decay_factors,
                               dressed_apply, dressing_transform, evolve_elementwise,
                               operator_sum_apply, plus_state)
from spinboost.oracle import average_quadrature
from spinboost.relkin import BoostParams, EffectiveField, effective_field, eta_max
from spinboost.spinalg import IDENTITY_2, PAULI_X, PAULI_Z, pauli_vector, require_valid

# Long-time saturation of the coherent state at xi=2.5, theta_opt, phi=0.
# Both values frozen from the quadrature oracle (cross-checked live below):
# rho_ud -> eta_max/2, rho_uu -> (1 + n_x n_z)/2 = (1 - chi_m)/2 since the
# in-plane axis component is negative below theta = pi/2.
RHO_UD_SATURATION = 0.25890138240706234
RHO_UU_SATURATION = 0.250158519474361


def lost_fraction(g):
    """1 - exp(-g) for 0 < g <= 1, summed as g - g^2/2! + ... to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(g)
        term, total, k = x, Decimal(0), 1
        while abs(term) > total * Decimal("1e-45"):
            total += term
            k += 1
            term = -term * x / k
        return float(total)


class TestScenario:
    def test_rate_is_taken_exactly(self):
        s = Scenario(BoostParams(0.0), 3.7)
        assert s.gamma == 3.7 and s.gamma_prime == 3.7

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            Scenario(BoostParams(1.0), gamma)

    def test_field_is_cached_geometry(self):
        s = scenario(1.2, 0.8, 0.3)
        f = effective_field(s.boost)
        assert s.field.kappa == f.kappa
        np.testing.assert_array_equal(s.field.n, f.n)

    def test_gamma_prime(self):
        s = scenario(2.5, eta_max(2.5).theta_opt)
        assert abs(s.gamma_prime / s.gamma - 6.13229) < 5e-5

    @pytest.mark.parametrize("xi", [400.0, 1000.0])
    def test_gamma_prime_inf_where_it_overflows(self, xi):
        assert scenario(xi, 0.5).gamma_prime == math.inf


def field_bits(f):
    values = [*f.d, f.kappa, *f.n, f.eta_mod, f.chi_mod]
    return np.array(values, dtype=float).view(np.uint64).tolist()


class TestScenarioStack:
    def test_each_scenario_is_the_one_built_alone(self):
        rng = np.random.default_rng(12)
        xi = [0.0, 5e-324, 709.0, 745.0] + rng.uniform(0.0, 4.0, 96).tolist()
        theta = [0.0, math.pi / 2, math.pi, 1.0] + rng.uniform(0.0, math.pi, 96).tolist()
        phi = rng.uniform(0.0, 2 * math.pi, 100).tolist()
        gamma = rng.uniform(0.1, 5.0, 100).tolist()
        stack = Scenario(BoostParams(np.array(xi), np.array(theta), np.array(phi)), np.array(gamma))
        assert stack.gamma.shape == (100,) and stack.field.n.shape == (100, 3)
        assert not stack.field.kappa.flags.writeable and not stack.gamma.flags.writeable
        assert not stack.gamma_prime.flags.writeable
        for k, args in enumerate(zip(xi, theta, phi, gamma, strict=True)):
            s = stack[k]
            alone = Scenario(BoostParams(*args[:3]), args[3])
            assert (s.boost, s.gamma) == (alone.boost, alone.gamma)
            assert field_bits(s.field) == field_bits(alone.field)
            assert s.gamma_prime == alone.gamma_prime == stack.gamma_prime[k]
            assert not s.field.n.flags.writeable
            columns = ("d", "kappa", "n", "eta_mod", "chi_mod")
            kth = EffectiveField(*(np.asarray(getattr(stack.field, name))[k] for name in columns))
            assert field_bits(kth) == field_bits(alone.field)

    def test_gamma_prime_is_kappa_squared_correctly_rounded(self):
        # kappa**2 rounded once, then times gamma rounded once; a libm pow
        # misses the first rounding by an ulp on about one kappa in a thousand
        rng = np.random.default_rng(15)
        xi, theta = rng.uniform(0.0, 4.0, 20_000), rng.uniform(0.0, math.pi, 20_000)
        gamma = np.where(np.arange(20_000) % 2, rng.uniform(0.1, 5.0, 20_000), 1.0)
        stack = Scenario(BoostParams(np.append(xi, 400.0), np.append(theta, 1.0)),
                         np.append(gamma, 1.0))
        kappa = stack.field.kappa.tolist()
        want = [float(Fraction(float(Fraction(k) ** 2)) * Fraction(g))
                for k, g in zip(kappa, gamma.tolist())]
        assert stack.gamma_prime[:-1].tolist() == want
        assert stack.gamma_prime[-1] == math.inf == stack[-1].gamma_prime

    def test_stacks_broadcast_and_slice(self):
        stack = Scenario(BoostParams(np.array([[0.5], [1.5]]), np.array([0.2, 0.9, 2.0])), 1.7)
        assert stack.gamma.shape == (2, 3) and stack.field.d.shape == (2, 3, 3)
        assert stack.gamma.tolist() == [[1.7] * 3] * 2
        sub = stack[1, 1:]
        assert sub.gamma.shape == (2,)
        assert field_bits(sub[0].field) == field_bits(stack[1, 1].field)
        alone = Scenario(BoostParams(1.5, 0.9), 1.7)
        assert field_bits(stack[1, 1].field) == field_bits(alone.field)

    def test_one_boost_refuses_a_stack_of_rates(self):
        with pytest.raises(ValueError, match=r"one boost needs a scalar gamma, got shape \(2,\)"):
            Scenario(BoostParams(1.0, 0.5), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("xi, theta, gamma, match", [
        (1.0, 0.5, 0.0, "gamma must be finite and > 0"),
        (1.0, 0.5, math.nan, "gamma must be finite and > 0"),
        (-1.0, 0.5, 1.0, "rapidity"),
        (1.0, 4.0, 1.0, "theta"),
    ])
    def test_refuses_what_scenario_refuses(self, xi, theta, gamma, match):
        with pytest.raises(ValueError, match=match) as alone:
            Scenario(BoostParams(xi, theta), gamma)
        # the stack names its invalid element as the case alone names itself
        with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
            Scenario(BoostParams(np.array([0.5, xi]), np.array([0.1, theta]), np.array([0.0, 0.0])),
                     np.array([1.0, gamma]))


class TestDecayExponent:
    def test_is_rate_t_t(self):
        rng = np.random.default_rng(3)
        for rate, t in zip(rng.uniform(0, 10, 20), rng.uniform(0, 5, 20)):
            assert decay_exponent(rate, t) == rate * t * t
        times = rng.uniform(0, 5, 20)
        np.testing.assert_array_equal(decay_exponent(2.5, times), 2.5 * times * times)
        rates = rng.uniform(0, 10, 20)
        np.testing.assert_array_equal(decay_exponent(rates, times), rates * times * times)

    def test_infinite_rate_is_zero_at_time_zero(self):
        assert decay_exponent(math.inf, 0.0) == 0.0
        assert decay_exponent(math.inf, 1e-300) == math.inf
        np.testing.assert_array_equal(decay_exponent(math.inf, np.array([0.0, 1e-300, 2.0])),
                                      [0.0, math.inf, math.inf])
        np.testing.assert_array_equal(decay_exponent(np.array([math.inf, 2.0]), 0.0), [0.0, 0.0])

    def test_overflow_is_inf_without_warning(self):
        assert decay_exponent(1e300, 1e10) == math.inf
        np.testing.assert_array_equal(decay_exponent(1e300, np.array([0.0, 1e10])), [0.0, math.inf])


class TestRestDephasing:
    def test_zero_time_identity(self):
        rho = plus_state()
        out = rest_dephasing(rho, 1.0, 0.0)
        np.testing.assert_array_equal(out, rho)

    def test_plus_state_decay(self):
        out = rest_dephasing(plus_state(), 1.0, 1.0)  # gamma t^2 = 1
        assert abs(out[0, 1] - math.exp(-1) / 2) < 1e-15
        assert abs(out[0, 1].real - 0.18394) < 1e-5

    def test_diagonal_states_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.uniform(0, 1)
            rho = np.diag([p, 1 - p]).astype(complex)
            out = rest_dephasing(rho, 2.0, rng.uniform(0, 3))
            np.testing.assert_array_equal(out, rho)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rest_dephasing(plus_state(), 1.0, -0.1)


class TestTimeCheck:
    """Every form refuses a negative or NaN time, by name, rather than mapping it."""

    FORMS = [evolve_elementwise, operator_sum_apply, dressed_apply, average_quadrature]

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("t", [-0.1, math.nan, np.array([0.5, math.nan, 1.0])])
    def test_forms_refuse(self, form, t):
        bad = float(np.ravel(t)[np.argmin(np.ravel(np.asarray(t) >= 0))])
        with pytest.raises(ValueError, match=f"time must be >= 0, got {bad!r}$"):
            form(plus_state(), scenario(1.0, 0.5), t)

    @pytest.mark.parametrize("t", [-0.1, math.nan])
    def test_trajectory_refuses(self, t):
        with pytest.raises(ValueError, match="time must be >= 0"):
            rest_dephasing(plus_state(), 1.0, t)


class TestEvolveElementwise:
    def test_reduces_to_rest_dephasing_exactly(self):
        rng = np.random.default_rng(2)
        s = scenario(0.0, 0.0)
        for _ in range(20):
            rho = random_density(rng, 2)
            t = rng.uniform(0, 3)
            out = evolve_elementwise(rho, s, t)
            require_valid(out)
            ref = rest_dephasing(rho, s.gamma, t)
            # the upper off-diagonal goes through the identical decay
            # product, so it agrees bitwise; the remaining entries may
            # differ by the input's sub-eps Hermiticity dust, which the
            # element-wise form discards by construction
            np.testing.assert_array_equal(out[0, 1], ref[0, 1])
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)

    def test_offdiagonal_saturation(self):
        opt = eta_max(2.5)
        s = scenario(2.5, opt.theta_opt)
        t = math.sqrt(50.0 / s.gamma_prime)
        out = evolve_elementwise(plus_state(), s, t)
        require_valid(out)
        assert abs(out[0, 1].real - 0.2589) < 2e-4
        assert abs(out[0, 1].real - RHO_UD_SATURATION) < 1e-10

    def test_population_saturation_matches_oracle(self):
        opt = eta_max(2.5)
        s = scenario(2.5, opt.theta_opt)
        t = math.sqrt(50.0 / s.gamma_prime)
        out = evolve_elementwise(plus_state(), s, t)
        require_valid(out)
        assert abs(out[0, 0].real - RHO_UU_SATURATION) < 1e-9
        # live cross-check against the independent averaging oracle
        quad = average_quadrature(plus_state(), s, t)
        require_valid(quad)
        assert abs(out[0, 0].real - quad[0, 0].real) < 1e-10
        # the population drifts *down* by chi/2: the in-plane axis
        # component is negative below theta = pi/2
        assert abs(out[0, 0].real - (1.0 - opt.chi_at_opt) / 2) < 1e-9

    def test_outputs_are_valid_states(self):
        rhos, stack, times = stacked(draw_cases(np.random.default_rng(3), 50))
        out = evolve_elementwise(rhos, stack, times)
        require_valid(out)
        assert np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0).max() < 1e-14

    @pytest.mark.parametrize("g", [1e-300, 1e-16, 1e-12, 1e-8])
    def test_coherence_from_populations_accurate_at_small_exponent(self, g):
        # |up><up| gains the coherence (n.r)(n_x - i n_y)(1 - exp(-g))/2
        # with n.r = n_z: no other term hides the relative error of 1 - exp(-g)
        s = scenario(1.3, 0.6, phi=0.4)
        t = math.sqrt(g / s.gamma_prime)
        nx, ny, nz = s.field.n
        out = evolve_elementwise(np.diag([1.0, 0.0]), s, t)
        require_valid(out)
        expected = 0.5 * nz * (nx - 1j * ny) * lost_fraction(s.gamma_prime * t * t)
        assert abs(out[0, 1] - expected) <= 1e-15 * abs(expected)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="2x2 states"):
            evolve_elementwise(np.eye(4), scenario(1.0, 0.5), 1.0)


def bits(a):
    """The raw float64 words of an array, so signed zeros count as different."""
    return np.ascontiguousarray(a).view(np.uint64)


def edge_cases(rng, count):
    """Random states at any phi, with xi in {0, 700, random}, theta in {0, pi/2, pi,
    random} and t = 0 among the times; xi = 700 overflows gamma' to inf."""
    states, scenarios, times = [], [], []
    for k in range(count):
        xi = (0.0, 700.0, rng.uniform(0, 5))[k % 3]
        theta = (0.0, math.pi / 2, math.pi, rng.uniform(0, math.pi))[k % 4]
        scenarios.append(scenario(xi, theta, rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 2.0)))
        states.append(random_density(rng, 2, pure=bool(k % 2)))
        times.append(0.0 if k % 7 == 0 else rng.uniform(0, 3))
    return states, scenarios, times


class TestStackedKernel:
    def test_stack_equals_per_state_bit_for_bit(self):
        states, scenarios, times = edge_cases(np.random.default_rng(11), 240)
        stacked = evolve_elementwise(np.array(states), stack_of(scenarios), np.array(times))
        single = np.array([evolve_elementwise(r, s, t)
                           for r, s, t in zip(states, scenarios, times)])
        require_valid(single)
        np.testing.assert_array_equal(bits(stacked), bits(single))

    def test_broadcasts_one_state_over_times(self):
        s = scenario(1.7, 0.4, phi=2.2)
        rho = random_density(np.random.default_rng(12), 2)
        times = np.linspace(0.0, 2.0, 9)
        stacked = evolve_elementwise(rho, s, times)
        assert stacked.shape == (9, 2, 2)
        single = np.array([evolve_elementwise(rho, s, t) for t in times.tolist()])
        require_valid(single)
        np.testing.assert_array_equal(bits(stacked), bits(single))

    def test_decay_factors_have_the_bits_each_exponent_has_alone(self):
        rng = np.random.default_rng(16)
        g = np.concatenate([[0.0, 1e-300, 0.3, 5.0, 800.0, math.inf],
                            rng.uniform(0.0, 50.0, 300), 10.0 ** rng.uniform(-12.0, 2.5, 300)])
        alone = np.array([decay_factors(x) for x in g.tolist()]).T
        assert alone[:, :6].tolist() == [[1.0, 1.0, math.exp(-0.3), math.exp(-5.0), 0.0, 0.0],
                                         [0.0, 1e-300, -math.expm1(-0.3), -math.expm1(-5.0),
                                          1.0, 1.0]]
        # libm's exp and expm1 as the reference, within an ulp
        np.testing.assert_allclose(alone[0], [math.exp(-x) for x in g.tolist()], rtol=2**-52)
        np.testing.assert_allclose(alone[1], [-math.expm1(-x) for x in g.tolist()], rtol=2**-52)
        for x, want in zip(g, alone.T):  # numpy scalars and 0-d arrays
            for arg in (x, np.array(x)):
                assert bits(np.array(decay_factors(arg))).tolist() == bits(want).tolist()
        # lengths 1-257, offsets 1-8 and stride 3
        views = [slice(n) for n in range(1, 258)] + [slice(k, None) for k in range(1, 9)]
        for view in views + [slice(None, None, 3)]:
            np.testing.assert_array_equal(bits(np.array(decay_factors(g[view]))),
                                          bits(alone[:, view]))


class TestStackedForms:
    def setup_method(self):
        self.states, self.scenarios, self.times = edge_cases(np.random.default_rng(13), 240)
        self.m = np.array(self.states)
        self.stack = stack_of(self.scenarios)

    def operator_sum(self):
        return operator_sum_apply(self.m, self.stack, np.array(self.times))

    def dressed(self):
        return dressed_apply(self.m, self.stack, np.array(self.times))

    @pytest.mark.parametrize("form,apply", [("operator_sum", operator_sum_apply),
                                            ("dressed", dressed_apply)])
    def test_stack_equals_per_state_bit_for_bit(self, form, apply):
        single = np.array([apply(r, s, t)
                           for r, s, t in zip(self.states, self.scenarios, self.times)])
        require_valid(single)
        np.testing.assert_array_equal(bits(getattr(self, form)()), bits(single))

    def test_broadcast_one_state_over_times(self):
        s = scenario(1.7, 0.4, phi=2.2)
        rho = random_density(np.random.default_rng(14), 2)
        times = np.linspace(0.0, 2.0, 9)
        osum = operator_sum_apply(rho, s, times)
        dressed = dressed_apply(rho, s, times)
        assert osum.shape == dressed.shape == (9, 2, 2)
        require_valid(osum)
        require_valid(dressed)
        ts = times.tolist()
        np.testing.assert_array_equal(
            bits(osum), bits(np.array([operator_sum_apply(rho, s, t) for t in ts])))
        np.testing.assert_array_equal(
            bits(dressed), bits(np.array([dressed_apply(rho, s, t) for t in ts])))

    def test_dressing_transforms_of_a_stack_are_those_of_each_field(self):
        stacked = dressing_transform(self.stack.field)
        assert stacked.shape == (240, 2, 2)
        single = np.array([dressing_transform(s.field) for s in self.scenarios])
        np.testing.assert_array_equal(bits(stacked), bits(single))

    def test_forms_agree_on_the_edge_cases(self):
        ref = evolve_elementwise(self.m, self.stack, np.array(self.times))
        osum, dressed = self.operator_sum(), self.dressed()
        for out in (ref, osum, dressed):
            require_valid(out)
        assert np.abs(osum - ref).max() < 1e-12
        assert np.abs(dressed - ref).max() < 1e-12


class TestOperatorSum:
    def test_zero_time_identity(self):
        rho = plus_state()
        out = operator_sum_apply(rho, scenario(2.0, 0.9, 0.4), 0.0)
        require_valid(out)
        assert np.linalg.norm(out - rho) < 1e-15

    def test_rest_frame_is_plain_dephasing(self):
        rng = np.random.default_rng(4)
        s = scenario(0.0, 0.0)
        for _ in range(10):
            rho = random_density(rng, 2)
            t = rng.uniform(0, 2)
            decay = math.exp(-s.gamma * t * t)
            p0, p1 = 0.5 * (1 + decay), 0.5 * (1 - decay)
            expected = p0 * rho + p1 * (PAULI_Z @ rho @ PAULI_Z)
            out = operator_sum_apply(rho, s, t)
            require_valid(out)
            assert np.linalg.norm(out - expected) < 1e-15

    def test_matches_elementwise(self):
        for rho, s, t in draw_cases(np.random.default_rng(5), 100):
            a = operator_sum_apply(rho, s, t)
            b = evolve_elementwise(rho, s, t)
            require_valid(a)
            require_valid(b)
            assert np.linalg.norm(a - b) < 1e-12

    def test_negative_weight_cases_included(self):
        # chi > eta (weight p1*(eta-chi) < 0) must agree as well
        rng = np.random.default_rng(6)
        seen = 0
        for rho, s, t in draw_cases(rng, 60):
            if s.field.chi_mod > s.field.eta_mod:
                seen += 1
                a = operator_sum_apply(rho, s, t)
                b = evolve_elementwise(rho, s, t)
                require_valid(a)
                require_valid(b)
                assert np.linalg.norm(a - b) < 1e-12
        assert seen > 0


class TestDressing:
    def test_aligned_axis_gives_identity(self):
        f = effective_field(BoostParams(xi=0.0, theta=0.4))
        np.testing.assert_array_equal(dressing_transform(f), IDENTITY_2)

    def test_x_axis_quarter_turn(self):
        f = EffectiveField(
            d=np.array([1.0, 0.0, 0.0]),
            kappa=1.0,
            n=np.array([1.0, 0.0, 0.0]),
            eta_mod=1.0,
            chi_mod=0.0,
        )
        v = dressing_transform(f)
        # exp(+i pi/4 sigma_y)
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        np.testing.assert_allclose(v, [[c, s], [-s, c]], atol=1e-15)
        np.testing.assert_allclose(v @ PAULI_X @ v.conj().T, PAULI_Z, atol=1e-15)

    def test_tiny_tilt_is_unitary(self):
        # |n x ez|**2 underflows here; the axis of V must still be a unit vector
        f = effective_field(BoostParams(xi=1.0, theta=8.944975528239023e-164))
        assert 0.0 < math.hypot(f.n[0], f.n[1]) < 1e-160
        v = dressing_transform(f)
        assert np.linalg.norm(v @ v.conj().T - IDENTITY_2) < 1e-15
        assert np.linalg.norm(v @ pauli_vector(f.n) @ v.conj().T - PAULI_Z) < 1e-15

    def test_diagonalizes_axis(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = effective_field(BoostParams(rng.uniform(0.1, 4), rng.uniform(0, math.pi),
                                            rng.uniform(0, 2 * math.pi)))
            v = dressing_transform(f)
            assert np.linalg.norm(v @ v.conj().T - IDENTITY_2) < 1e-12
            assert abs(np.linalg.det(v) - 1.0) < 1e-12
            assert np.linalg.norm(v @ pauli_vector(f.n) @ v.conj().T - PAULI_Z) < 1e-12


class TestDressedApply:
    def test_rest_frame_reduces_to_dephasing(self):
        rng = np.random.default_rng(8)
        s = scenario(0.0, 0.0)
        for _ in range(10):
            rho = random_density(rng, 2)
            t = rng.uniform(0, 2)
            ref = rest_dephasing(rho, s.gamma, t)
            out = dressed_apply(rho, s, t)
            require_valid(out)
            assert np.linalg.norm(out - ref) < 1e-15

    def test_trace_preserved(self):
        rhos, stack, times = stacked(draw_cases(np.random.default_rng(9), 30))
        out = dressed_apply(rhos, stack, times)
        require_valid(out)
        assert np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0).max() < 1e-14

    def test_matches_elementwise(self):
        rhos, stack, times = stacked(draw_cases(np.random.default_rng(10), 100))
        a = dressed_apply(rhos, stack, times)
        b = evolve_elementwise(rhos, stack, times)
        require_valid(a)
        require_valid(b)
        assert np.linalg.norm(a - b, axis=(-2, -1)).max() < 1e-10


class TestThreeWayAgreement:
    def test_all_forms_agree(self):
        rhos, stack, times = stacked(draw_cases(np.random.default_rng(11), 50))
        a = evolve_elementwise(rhos, stack, times)
        b = operator_sum_apply(rhos, stack, times)
        c = dressed_apply(rhos, stack, times)
        for out in (a, b, c):
            require_valid(out)
        for x, y in ((a, b), (b, c), (a, c)):
            assert np.linalg.norm(x - y, axis=(-2, -1)).max() < 1e-10


class TestExampleTrajectory:
    """The coherent state |+> under the closed form at phi = 0: its coherence
    decays to eta/2 and its population drifts to (1 + n_x n_z)/2."""

    @staticmethod
    def trajectory(s, t):
        out = evolve_elementwise(plus_state(), s, t)
        require_valid(out)
        return out[..., 0, 0].real, out[..., 0, 1]

    def test_initial_point(self):
        uu, ud = self.trajectory(scenario(2.5, 0.5), 0.0)
        assert uu == 0.5 and ud == 0.5

    def test_rest_decay_value(self):
        s = scenario(0.0, 0.0)
        _, ud = self.trajectory(s, 2.0)  # gamma t^2 = 4
        assert abs(ud.real - math.exp(-4) / 2) < 1e-15
        assert abs(ud.real - 0.009158) < 1e-6

    def test_saturation(self):
        opt = eta_max(2.5)
        s = scenario(2.5, opt.theta_opt)
        _, ud = self.trajectory(s, math.sqrt(LONG_TIME_GAMMA_T2 / s.gamma_prime))
        assert abs(ud.real - 0.2589) < 2e-4

    def test_agrees_with_elementwise_on_plus_state(self):
        # rho_uu = [1 + n_x n_z (1 - e)]/2 and rho_ud = [(1 - eta) e + eta]/2,
        # e = exp(-gamma' t^2), with n_x n_z the signed product
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi))
            t = rng.uniform(0, 3)
            uu, ud = self.trajectory(s, t)
            e = math.exp(-s.gamma_prime * t * t)
            nx, _, nz = s.field.n
            assert abs(uu - 0.5 * (1.0 + nx * nz * (1.0 - e))) < 1e-12
            assert abs(ud - 0.5 * ((1.0 - s.field.eta_mod) * e + s.field.eta_mod)) < 1e-12

    def test_monotone_decay_with_saturation_floor(self):
        opt = eta_max(2.5)
        s = scenario(2.5, opt.theta_opt)
        floor = s.field.eta_mod / 2 - 1e-12
        values = self.trajectory(s, np.sqrt(np.linspace(0.0, 12.0, 300) / s.gamma))[1].real
        assert (np.diff(values) <= 1e-12).all()
        assert (values >= floor).all()
