"""Tests for the closed-form channel and its equivalent decompositions."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from spinboost.channel import (
    NoiseSpec,
    Scenario,
    channel_coeffs,
    decay_exponent,
    dressed_apply,
    dressing_transform,
    evolve_elementwise,
    example_trajectory,
    operator_sum_apply,
    plus_state,
    rest_dephasing,
)
from spinboost.oracle import average_quadrature
from spinboost.relkin import BoostParams, EffectiveField, effective_field, eta_max
from spinboost.spinalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    frobenius_distance,
    pauli_vector,
    random_density,
)

# Long-time saturation of the coherent state at xi=2.5, theta_opt, phi=0.
# Both values frozen from the quadrature oracle (cross-checked live below):
# rho_ud -> eta_max/2, rho_uu -> (1 + n_x n_z)/2 = (1 - chi_m)/2 since the
# in-plane axis component is negative below theta = pi/2.
RHO_UD_SATURATION = 0.25890138240706234
RHO_UU_SATURATION = 0.250158519474361


def scenario(xi, theta, phi=0.0, gamma=1.0):
    return Scenario(BoostParams(xi=xi, theta=theta, phi=phi), NoiseSpec.from_gamma(gamma))


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


def draw_cases(rng, count, xi_range=(0.0, 3.0)):
    cases = []
    for k in range(count):
        s = Scenario(
            BoostParams(
                xi=rng.uniform(*xi_range),
                theta=rng.uniform(0, math.pi),
                phi=rng.uniform(0, 2 * math.pi),
            ),
            NoiseSpec(vartheta=rng.uniform(0.3, 1.5)),
        )
        t = math.sqrt(rng.uniform(0, 5) / s.gamma_prime)
        cases.append((random_density(rng, 2, pure=bool(k % 2)), s, t))
    return cases


class TestNoiseSpec:
    def test_gamma_definition(self):
        n = NoiseSpec(vartheta=0.7, mu=1.3)
        assert abs(n.gamma - 2 * 0.7**2 * 1.3**2) < 1e-15

    def test_from_gamma_roundtrip(self):
        n = NoiseSpec.from_gamma(2.37, mu=0.8)
        assert abs(n.gamma - 2.37) < 1e-15

    @pytest.mark.parametrize("kw", [dict(vartheta=0.0), dict(vartheta=-1.0), dict(vartheta=1.0, mu=0.0),
                                    dict(vartheta=math.inf), dict(vartheta=math.nan),
                                    dict(vartheta=1.0, mu=math.inf), dict(vartheta=1.0, mu=math.nan)])
    def test_domain(self, kw):
        with pytest.raises(ValueError):
            NoiseSpec(**kw)


class TestScenario:
    def test_field_is_cached_geometry(self):
        s = scenario(1.2, 0.8, 0.3)
        f = effective_field(s.boost)
        assert s.field.kappa == f.kappa
        np.testing.assert_array_equal(s.field.n, f.n)

    def test_gamma_prime(self):
        s = scenario(2.5, eta_max(2.5).theta_opt)
        assert abs(s.gamma_prime / s.noise.gamma - 6.13229) < 5e-5

    @pytest.mark.parametrize("xi", [400.0, 1000.0])
    def test_gamma_prime_inf_where_it_overflows(self, xi):
        assert scenario(xi, 0.5).gamma_prime == math.inf


class TestDecayExponent:
    def test_is_rate_t_t(self):
        rng = np.random.default_rng(3)
        for rate, t in zip(rng.uniform(0, 10, 20), rng.uniform(0, 5, 20)):
            assert decay_exponent(rate, t) == rate * t * t
        times = rng.uniform(0, 5, 20)
        np.testing.assert_array_equal(decay_exponent(2.5, times), 2.5 * times * times)

    def test_infinite_rate_is_zero_at_time_zero(self):
        assert decay_exponent(math.inf, 0.0) == 0.0
        assert decay_exponent(math.inf, 1e-300) == math.inf
        np.testing.assert_array_equal(decay_exponent(math.inf, np.array([0.0, 1e-300, 2.0])),
                                      [0.0, math.inf, math.inf])

    def test_overflow_is_inf_without_warning(self):
        assert decay_exponent(1e300, 1e10) == math.inf
        np.testing.assert_array_equal(decay_exponent(1e300, np.array([0.0, 1e10])), [0.0, math.inf])


class TestRestDephasing:
    def test_zero_time_identity(self):
        rho = plus_state()
        out = rest_dephasing(rho, 1.0, 0.0)
        np.testing.assert_array_equal(out.matrix, rho.matrix)

    def test_plus_state_decay(self):
        out = rest_dephasing(plus_state(), 1.0, 1.0)  # gamma t^2 = 1
        assert abs(out.matrix[0, 1] - math.exp(-1) / 2) < 1e-15
        assert abs(out.matrix[0, 1].real - 0.18394) < 1e-5

    def test_diagonal_states_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.uniform(0, 1)
            rho = DensityMatrix(np.diag([p, 1 - p]).astype(complex))
            out = rest_dephasing(rho, 2.0, rng.uniform(0, 3))
            np.testing.assert_array_equal(out.matrix, rho.matrix)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rest_dephasing(plus_state(), 1.0, -0.1)


class TestChannelCoeffs:
    def test_zero_time(self):
        c = channel_coeffs(scenario(2.0, 1.0), 0.0)
        assert c.p0 == 1.0 and c.p1 == 0.0 and c.epsilon == 0.0

    def test_long_time_equalizes(self):
        s = scenario(2.0, 1.0)
        c = channel_coeffs(s, math.sqrt(800.0 / s.gamma_prime))
        assert c.p0 == 0.5 and c.p1 == 0.5

    def test_sum_and_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 2)
            c = channel_coeffs(s, t)
            assert abs(c.p0 + c.p1 - 1.0) < 1e-15
            assert abs((c.p0 - c.p1) - math.exp(-s.gamma_prime * t * t)) < 1e-15
            assert 0.0 <= c.p1 <= 0.5
            assert 0.0 <= c.epsilon <= 1.5 * c.p1 + 1e-15

    def test_amplification_anchor(self):
        s = scenario(2.5, eta_max(2.5).theta_opt)
        c = channel_coeffs(s, 1.0)
        assert abs(c.gamma_prime / s.noise.gamma - 6.13229) < 5e-5

    @pytest.mark.parametrize("g", [1e-300, 1e-16, 1e-12, 1e-8, 1e-4])
    def test_p1_full_relative_accuracy_at_small_exponent(self, g):
        # p1 = (1 - exp(-gamma' t^2))/2; 1 - exp(-g) cancels at small g
        s = scenario(1.3, 0.6)
        t = math.sqrt(g / s.gamma_prime)
        exponent = s.gamma_prime * t * t
        c = channel_coeffs(s, t)
        assert abs(c.p1 - lost_fraction(exponent) / 2) <= 2e-16 * c.p1
        assert abs(c.epsilon - c.p1 * (s.field.eta_mod + s.field.chi_mod)) <= 4e-16 * c.epsilon


class TestEvolveElementwise:
    def test_reduces_to_rest_dephasing_exactly(self):
        rng = np.random.default_rng(2)
        s = scenario(0.0, 0.0)
        for _ in range(20):
            rho = random_density(rng, 2)
            t = rng.uniform(0, 3)
            out = evolve_elementwise(rho, s, t)
            ref = rest_dephasing(rho, s.noise.gamma, t)
            # the upper off-diagonal goes through the identical decay
            # product, so it agrees bitwise; the remaining entries may
            # differ by the input's sub-eps Hermiticity dust, which the
            # element-wise form discards by construction
            np.testing.assert_array_equal(out.matrix[0, 1], ref.matrix[0, 1])
            np.testing.assert_allclose(out.matrix, ref.matrix, rtol=0, atol=1e-15)

    def test_offdiagonal_saturation(self):
        opt = eta_max(2.5)
        s = scenario(2.5, opt.theta_opt)
        t = math.sqrt(50.0 / s.gamma_prime)
        out = evolve_elementwise(plus_state(), s, t)
        assert abs(out.matrix[0, 1].real - 0.2589) < 2e-4
        assert abs(out.matrix[0, 1].real - RHO_UD_SATURATION) < 1e-10

    def test_population_saturation_matches_oracle(self):
        opt = eta_max(2.5)
        s = scenario(2.5, opt.theta_opt)
        t = math.sqrt(50.0 / s.gamma_prime)
        out = evolve_elementwise(plus_state(), s, t)
        assert abs(out.matrix[0, 0].real - RHO_UU_SATURATION) < 1e-9
        # live cross-check against the independent averaging oracle
        quad = average_quadrature(plus_state(), s, t)
        assert abs(out.matrix[0, 0].real - quad.matrix[0, 0].real) < 1e-10
        # the population drifts *down* by chi/2: the in-plane axis
        # component is negative below theta = pi/2
        assert abs(out.matrix[0, 0].real - (1.0 - opt.chi_at_opt) / 2) < 1e-9

    def test_outputs_are_valid_states(self):
        rng = np.random.default_rng(3)
        for rho, s, t in draw_cases(rng, 50):
            out = evolve_elementwise(rho, s, t)  # constructor validates
            assert abs(np.trace(out.matrix) - 1.0) < 1e-14

    @pytest.mark.parametrize("g", [1e-300, 1e-16, 1e-12, 1e-8])
    def test_coherence_from_populations_accurate_at_small_exponent(self, g):
        # |up><up| gains the coherence (n.r)(n_x - i n_y)(1 - exp(-g))/2
        # with n.r = n_z: no other term hides the relative error of 1 - exp(-g)
        s = scenario(1.3, 0.6, phi=0.4)
        t = math.sqrt(g / s.gamma_prime)
        nx, ny, nz = s.field.n
        out = evolve_elementwise(DensityMatrix(np.diag([1.0, 0.0])), s, t).matrix
        expected = 0.5 * nz * (nx - 1j * ny) * lost_fraction(s.gamma_prime * t * t)
        assert abs(out[0, 1] - expected) <= 1e-15 * abs(expected)


class TestOperatorSum:
    def test_zero_time_identity(self):
        rho = plus_state()
        out = operator_sum_apply(rho, scenario(2.0, 0.9, 0.4), 0.0)
        assert frobenius_distance(out.matrix, rho.matrix) < 1e-15

    def test_rest_frame_is_plain_dephasing(self):
        rng = np.random.default_rng(4)
        s = scenario(0.0, 0.0)
        for _ in range(10):
            rho = random_density(rng, 2)
            t = rng.uniform(0, 2)
            decay = math.exp(-s.noise.gamma * t * t)
            p0, p1 = 0.5 * (1 + decay), 0.5 * (1 - decay)
            expected = p0 * rho.matrix + p1 * (PAULI_Z @ rho.matrix @ PAULI_Z)
            assert frobenius_distance(operator_sum_apply(rho, s, t).matrix, expected) < 1e-15

    def test_matches_elementwise(self):
        rng = np.random.default_rng(5)
        for rho, s, t in draw_cases(rng, 100):
            a = operator_sum_apply(rho, s, t).matrix
            b = evolve_elementwise(rho, s, t).matrix
            assert frobenius_distance(a, b) < 1e-12

    def test_negative_weight_cases_included(self):
        # chi > eta (weight p1*(eta-chi) < 0) must agree as well
        rng = np.random.default_rng(6)
        seen = 0
        for rho, s, t in draw_cases(rng, 60):
            if s.field.chi_mod > s.field.eta_mod:
                seen += 1
                a = operator_sum_apply(rho, s, t).matrix
                b = evolve_elementwise(rho, s, t).matrix
                assert frobenius_distance(a, b) < 1e-12
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
            tilt=math.pi / 2,
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
        assert 0.0 < f.tilt < 1e-160
        v = dressing_transform(f)
        assert frobenius_distance(v @ v.conj().T, IDENTITY_2) < 1e-15
        assert frobenius_distance(v @ pauli_vector(f.n) @ v.conj().T, PAULI_Z) < 1e-15

    def test_diagonalizes_axis(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = effective_field(
                BoostParams(
                    xi=rng.uniform(0.1, 4),
                    theta=rng.uniform(0, math.pi),
                    phi=rng.uniform(0, 2 * math.pi),
                )
            )
            v = dressing_transform(f)
            assert frobenius_distance(v @ v.conj().T, IDENTITY_2) < 1e-12
            assert abs(np.linalg.det(v) - 1.0) < 1e-12
            assert frobenius_distance(v @ pauli_vector(f.n) @ v.conj().T, PAULI_Z) < 1e-12


class TestDressedApply:
    def test_rest_frame_reduces_to_dephasing(self):
        rng = np.random.default_rng(8)
        s = scenario(0.0, 0.0)
        for _ in range(10):
            rho = random_density(rng, 2)
            t = rng.uniform(0, 2)
            ref = rest_dephasing(rho, s.noise.gamma, t)
            assert frobenius_distance(dressed_apply(rho, s, t).matrix, ref.matrix) < 1e-15

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        for rho, s, t in draw_cases(rng, 30):
            out = dressed_apply(rho, s, t)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-14

    def test_matches_elementwise(self):
        rng = np.random.default_rng(10)
        for rho, s, t in draw_cases(rng, 100):
            a = dressed_apply(rho, s, t).matrix
            b = evolve_elementwise(rho, s, t).matrix
            assert frobenius_distance(a, b) < 1e-10


class TestThreeWayAgreement:
    def test_all_forms_agree(self):
        rng = np.random.default_rng(11)
        for rho, s, t in draw_cases(rng, 50):
            a = evolve_elementwise(rho, s, t).matrix
            b = operator_sum_apply(rho, s, t).matrix
            c = dressed_apply(rho, s, t).matrix
            assert frobenius_distance(a, b) < 1e-10
            assert frobenius_distance(b, c) < 1e-10
            assert frobenius_distance(a, c) < 1e-10


class TestExampleTrajectory:
    def test_initial_point(self):
        uu, ud = example_trajectory(scenario(2.5, 0.5), 0.0)
        assert uu == 0.5 and ud == 0.5

    def test_rest_decay_value(self):
        s = scenario(0.0, 0.0)
        _, ud = example_trajectory(s, 2.0)  # gamma t^2 = 4
        assert abs(ud.real - math.exp(-4) / 2) < 1e-15
        assert abs(ud.real - 0.009158) < 1e-6

    def test_saturation(self):
        opt = eta_max(2.5)
        s = scenario(2.5, opt.theta_opt)
        _, ud = example_trajectory(s, math.sqrt(50.0 / s.gamma_prime))
        assert abs(ud.real - 0.2589) < 2e-4

    def test_agrees_with_elementwise_on_plus_state(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi))
            t = rng.uniform(0, 3)
            uu, ud = example_trajectory(s, t)
            ref = evolve_elementwise(plus_state(), s, t).matrix
            assert abs(uu - ref[0, 0].real) < 1e-12
            assert abs(ud - ref[0, 1]) < 1e-12

    def test_nonzero_azimuth_rejected(self):
        with pytest.raises(ValueError, match="phi"):
            example_trajectory(scenario(2.5, 0.5, phi=0.3), 1.0)

    def test_monotone_decay_with_saturation_floor(self):
        opt = eta_max(2.5)
        s = scenario(2.5, opt.theta_opt)
        floor = s.field.eta_mod / 2 - 1e-12
        values = [
            example_trajectory(s, math.sqrt(x / s.noise.gamma))[1].real
            for x in np.linspace(0.0, 12.0, 300)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= floor for v in values)
