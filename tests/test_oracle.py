"""Tests for the quadrature and Monte Carlo averaging oracles."""

import math

import numpy as np
import pytest

from spinboost.channel import NoiseSpec, Scenario, evolve_elementwise, plus_state
from spinboost.oracle import (
    McSpec,
    QuadratureSpec,
    _box_muller_normals,
    average_montecarlo,
    average_quadrature,
    gauss_hermite_nodes,
    two_qubit_average,
    unitary_at_field,
)
from spinboost.relkin import BoostParams
from spinboost.spinalg import (
    IDENTITY_2,
    DensityMatrix,
    frobenius_distance,
    pauli_rotation,
    random_density,
    tensor_product,
)


def scenario(xi, theta, phi=0.0, vartheta=None, gamma=1.0, mu=1.0):
    noise = NoiseSpec(vartheta=vartheta, mu=mu) if vartheta else NoiseSpec.from_gamma(gamma, mu=mu)
    return Scenario(BoostParams(xi=xi, theta=theta, phi=phi), noise)


def draw_cases(rng, count):
    cases = []
    for k in range(count):
        s = scenario(
            rng.uniform(0, 3),
            rng.uniform(0, math.pi),
            rng.uniform(0, 2 * math.pi),
            vartheta=rng.uniform(0.3, 1.5),
        )
        t = math.sqrt(rng.uniform(0, 5) / s.gamma_prime)
        cases.append((random_density(rng, 2, pure=bool(k % 2)), s, t))
    return cases


class TestSpecs:
    def test_quadrature_domain(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=1)
        with pytest.raises(ValueError):
            QuadratureSpec(method="trapezoid")

    def test_mc_domain(self):
        with pytest.raises(ValueError):
            McSpec(samples=0)
        with pytest.raises(ValueError):
            McSpec(seed=-1)


class TestGaussHermiteNodes:
    @pytest.mark.parametrize("n", [2, 21, 201, 402])
    def test_weights_normalized_and_symmetric(self, n):
        z, w = gauss_hermite_nodes(n)
        assert abs(w.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(z, -z[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert (w >= 0).all()

    def test_standard_normal_moments(self):
        z, w = gauss_hermite_nodes(201)
        assert abs((w * z).sum()) < 1e-14
        assert abs((w * z * z).sum() - 1.0) < 1e-12
        assert abs((w * z**4).sum() - 3.0) < 1e-12

    def test_gaussian_phase_integral_exact(self):
        # characteristic function E[exp(-i a Z)] = exp(-a^2/2); with
        # a = 2 mu t vartheta this is the dephasing factor exp(-gamma t^2)
        z, w = gauss_hermite_nodes(201)
        for g_t2 in np.linspace(0.5, 10.0, 20):
            a = math.sqrt(2.0 * g_t2)
            got = (w * np.exp(-1j * a * z)).sum()
            assert abs(got - math.exp(-g_t2)) < 1e-12


class TestUnitaryAtField:
    def test_zero_field_is_identity(self):
        s = scenario(1.5, 0.7, 0.3)
        np.testing.assert_allclose(unitary_at_field(0.0, s, 1.3), IDENTITY_2, atol=1e-15)

    def test_rest_frame_is_z_phase(self):
        s = scenario(0.0, 0.0, mu=1.0, gamma=1.0)
        b, t = 0.83, 1.21
        u = unitary_at_field(b, s, t)
        expected = np.diag([np.exp(-1j * b * t), np.exp(1j * b * t)])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_trace_and_rotation_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            b, t = rng.normal(), rng.uniform(0, 2)
            u = unitary_at_field(b, s, t)
            angle = 2.0 * s.field.kappa * s.noise.mu * t * b
            assert abs(np.trace(u) - 2.0 * math.cos(angle / 2.0)) < 1e-12
            np.testing.assert_allclose(u, pauli_rotation(s.field.n, angle), atol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            unitary_at_field(1.0, scenario(1.0, 1.0), -1.0)


class TestAverageQuadrature:
    def test_vanishing_noise_is_identity_channel(self):
        s = scenario(2.0, 0.9, vartheta=1e-12)
        rho = plus_state()
        out = average_quadrature(rho, s, 1.0)
        assert frobenius_distance(out.matrix, rho.matrix) < 1e-10

    def test_matches_elementwise(self):
        rng = np.random.default_rng(1)
        for rho, s, t in draw_cases(rng, 100):
            quad = average_quadrature(rho, s, t)
            ana = evolve_elementwise(rho, s, t)
            assert frobenius_distance(quad.matrix, ana.matrix) < 1e-8

    def test_node_doubling_converged(self):
        rng = np.random.default_rng(2)
        for rho, s, t in draw_cases(rng, 20):
            a = average_quadrature(rho, s, t, QuadratureSpec(nodes=201))
            b = average_quadrature(rho, s, t, QuadratureSpec(nodes=402))
            assert frobenius_distance(a.matrix, b.matrix) < 1e-10

    def test_trace_one(self):
        rng = np.random.default_rng(3)
        for rho, s, t in draw_cases(rng, 20):
            out = average_quadrature(rho, s, t)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-14


class TestAverageMonteCarlo:
    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        (rho, s, t), = draw_cases(rng, 1)
        mc = McSpec(samples=150_000, seed=7)
        first, se1 = average_montecarlo(rho, s, t, mc)
        second, se2 = average_montecarlo(rho, s, t, mc)
        np.testing.assert_array_equal(first.matrix, second.matrix)
        assert se1 == se2

    def test_within_three_stderr_of_quadrature(self):
        rng = np.random.default_rng(5)
        for k, (rho, s, t) in enumerate(draw_cases(rng, 5)):
            mean, stderr = average_montecarlo(rho, s, t, McSpec(samples=10**6, seed=100 + k))
            quad = average_quadrature(rho, s, t)
            assert frobenius_distance(mean.matrix, quad.matrix) <= 3.0 * stderr

    def test_mean_trace_one(self):
        rng = np.random.default_rng(6)
        (rho, s, t), = draw_cases(rng, 1)
        mean, _ = average_montecarlo(rho, s, t, McSpec(samples=50_000, seed=1))
        assert abs(np.trace(mean.matrix) - 1.0) < 1e-12

    def test_moments_match_per_draw_average(self):
        # the mean and per-entry variances of U rho U^dag, draw by draw
        rng = np.random.default_rng(10)
        for rho, s, t in draw_cases(rng, 3):
            mc = McSpec(samples=3000, seed=5)  # one chunk
            mean, stderr = average_montecarlo(rho, s, t, mc)
            fields = s.noise.vartheta * _box_muller_normals(mc.seed, 0, mc.samples)
            draws = np.array([u @ rho.matrix @ u.conj().T
                              for u in (unitary_at_field(b, s, t) for b in fields)])
            expected = draws.mean(axis=0)
            variance = (np.abs(draws - expected) ** 2).mean(axis=0) / (mc.samples - 1)
            assert frobenius_distance(mean.matrix, expected) < 1e-14
            assert abs(stderr - math.sqrt(variance.sum())) <= 1e-10 * stderr

    def test_stderr_scales_with_samples(self):
        rng = np.random.default_rng(7)
        (rho, s, t), = draw_cases(rng, 1)
        _, se_small = average_montecarlo(rho, s, t, McSpec(samples=10**4, seed=11))
        _, se_large = average_montecarlo(rho, s, t, McSpec(samples=10**6, seed=11))
        ratio = se_small / se_large
        assert 5.0 < ratio < 20.0  # 1/sqrt(samples): nominal factor 10


class TestTwoQubitAverage:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(8)
        rho4 = random_density(rng, 4)
        out = two_qubit_average(rho4, scenario(1.5, 0.8), 0.0)
        assert frobenius_distance(out.matrix, rho4.matrix) < 1e-14

    def test_rest_bell_corner_decay(self):
        # for the Bell pair at rest the corner coherence picks up
        # exp(-i 4 mu B t); its Gaussian average is exp(-4 gamma t^2)
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        s = scenario(0.0, 0.0, gamma=1.0)
        for g_t2 in (0.3, 1.0, 2.0):
            t = math.sqrt(g_t2)
            out = two_qubit_average(DensityMatrix(bell), s, t)
            expected = math.exp(-4.0 * g_t2) / 2.0
            assert abs(out.matrix[0, 3].real - expected) < 1e-12
            # independent cross-check: dense trapezoid over the Gaussian
            b_grid = np.linspace(-8, 8, 20001)
            pdf = np.exp(-0.5 * b_grid**2) / math.sqrt(2 * math.pi)
            brute = np.trapezoid(pdf * np.cos(4 * s.noise.mu * b_grid * s.noise.vartheta * t), b_grid) / 2
            assert abs(out.matrix[0, 3].real - brute) < 1e-8

    def test_matches_per_node_kronecker_loop(self):
        rng = np.random.default_rng(10)
        rho4 = random_density(rng, 4)
        s = scenario(2.0, 0.7, 0.4)
        z, w = gauss_hermite_nodes(201)
        expected = np.zeros((4, 4), dtype=complex)
        for wi, bi in zip(w, s.noise.vartheta * z):
            u2 = tensor_product(*[unitary_at_field(bi, s, 0.6)] * 2)
            expected += wi * (u2 @ rho4.matrix @ u2.conj().T)
        expected = 0.5 * (expected + expected.conj().T)
        np.testing.assert_allclose(two_qubit_average(rho4, s, 0.6).matrix, expected,
                                   rtol=0, atol=1e-15)

    def test_trace_one(self):
        rng = np.random.default_rng(9)
        rho4 = random_density(rng, 4)
        s = scenario(2.0, 0.7, 0.4)
        out = two_qubit_average(rho4, s, 0.6)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-14

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            two_qubit_average(plus_state(), scenario(1.0, 1.0), 1.0)
