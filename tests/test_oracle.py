"""Tests for the quadrature and Monte Carlo averaging oracles."""

import math

import numpy as np
import pytest

from spinboost.channel import NoiseSpec, Scenario, evolve_elementwise, plus_state
from spinboost.oracle import (
    _MC_CHUNK,
    McSpec,
    QuadratureSpec,
    _box_muller_normals,
    _cos_sin_double,
    _unitary_stack,
    average_montecarlo,
    average_quadrature,
    gauss_hermite_nodes,
    two_qubit_average,
)
from spinboost.relkin import BoostParams
from spinboost.spinalg import (
    IDENTITY_2,
    DensityMatrix,
    frobenius_distance,
    pauli_rotation,
    pauli_vector,
    random_density,
    tensor_product,
)


def scenario(xi, theta, phi=0.0, vartheta=None, gamma=1.0, mu=1.0):
    noise = NoiseSpec(vartheta=vartheta, mu=mu) if vartheta else NoiseSpec.from_gamma(gamma, mu=mu)
    return Scenario(BoostParams(xi=xi, theta=theta, phi=phi), noise)


def field_unitary(b, s, t):
    """exp(-i kappa mu t b sigma.n): the rotation by 2 kappa mu t b about the axis n."""
    return pauli_rotation(s.field.n, 2.0 * s.field.kappa * s.noise.mu * t * b)


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
    """The oracle's per-field unitaries against the closed-form SU(2) rotation."""

    def test_zero_field_is_identity(self):
        s = scenario(1.5, 0.7, 0.3)
        np.testing.assert_allclose(_unitary_stack(np.zeros(1), s, 1.3)[0], IDENTITY_2, atol=1e-15)

    def test_rest_frame_is_z_phase(self):
        s = scenario(0.0, 0.0, mu=1.0, gamma=1.0)
        b, t = 0.83, 1.21
        u = _unitary_stack(np.array([b]), s, t)[0]
        expected = np.diag([np.exp(-1j * b * t), np.exp(1j * b * t)])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_trace_and_rotation_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            b, t = rng.normal(), rng.uniform(0, 2)
            u = _unitary_stack(np.array([b]), s, t)[0]
            angle = 2.0 * s.field.kappa * s.noise.mu * t * b
            assert abs(np.trace(u) - 2.0 * math.cos(angle / 2.0)) < 1e-12
            np.testing.assert_allclose(u, field_unitary(b, s, t), atol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            average_quadrature(plus_state(), scenario(1.0, 1.0), -1.0)


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


def cos_sin_double(x):
    x = np.array(x, dtype=float)
    c, scratch = np.empty_like(x), np.empty_like(x)
    _cos_sin_double(x, c, scratch)
    return c, x


def philox(seed, chunk_index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)))


def reference_montecarlo(rho, s, t, mc):
    """Per-chunk Box-Muller with np.cos/np.sin, then U rho U^dag draw by draw."""
    normals = []
    for chunk_index, done in enumerate(range(0, mc.samples, _MC_CHUNK)):
        count = min(_MC_CHUNK, mc.samples - done)
        gen = philox(mc.seed, chunk_index)
        half = (count + 1) // 2
        u1, u2 = gen.random(half), gen.random(half)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        normals.append(np.concatenate([r * np.cos(angle), r * np.sin(angle)])[:count])
    half_angle = s.field.kappa * s.noise.mu * t * s.noise.vartheta * np.concatenate(normals)
    u = (np.cos(half_angle)[:, None, None] * IDENTITY_2
         - 1j * np.sin(half_angle)[:, None, None] * pauli_vector(s.field.n))
    # draws on the last, contiguous axis, so that each sum is pairwise
    draws = np.ascontiguousarray(((u @ rho.matrix) @ u.conj().transpose(0, 2, 1)).reshape(-1, 4).T)
    mean = draws.sum(axis=1) / mc.samples
    if mc.samples == 1:
        return mean.reshape(2, 2), math.inf
    variance = (np.abs(draws - mean[:, None]) ** 2).sum(axis=1) / mc.samples / (mc.samples - 1)
    return mean.reshape(2, 2), math.sqrt(variance.sum())


class TestHalfAngleCosSin:
    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                                   math.pi / 2, -math.pi / 2, math.pi / 4, math.pi, 1e6, -1e6])
    def test_special_arguments(self, x):
        c, s = cos_sin_double([x])
        assert abs(c[0] - np.cos(2.0 * x)) <= 4.5e-16
        assert abs(s[0] - np.sin(2.0 * x)) <= 4.5e-16

    def test_zero_and_subnormals_exact(self):
        x = np.array([0.0, 5e-324, -1e-310])
        c, s = cos_sin_double(x)
        np.testing.assert_array_equal(c, 1.0)
        np.testing.assert_array_equal(s, 2.0 * x)

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 100.0])
    def test_random_normals(self, scale):
        x = scale * np.random.default_rng(int(1e4 * scale)).normal(size=200_000)
        c, s = cos_sin_double(x)
        assert np.abs(c - np.cos(2.0 * x)).max() <= 4.5e-16
        assert np.abs(s - np.sin(2.0 * x)).max() <= 4.5e-16

    def test_one_draw_of_2n_is_two_draws_of_n(self):
        for n in (1, 7, _MC_CHUNK // 2):
            one = philox(42, 3).random(2 * n)
            gen = philox(42, 3)
            np.testing.assert_array_equal(one, np.concatenate([gen.random(n), gen.random(n)]))
            out = np.empty(2 * n)
            philox(42, 3).random(out=out)
            np.testing.assert_array_equal(out, one)


class TestAverageMonteCarlo:
    @pytest.mark.parametrize("samples", [1, 2, 3001, 2 * _MC_CHUNK + 12345])
    def test_matches_per_chunk_cos_sin_reference(self, samples):
        rng = np.random.default_rng(11)
        for k, (rho, s, t) in enumerate(draw_cases(rng, 4)):
            mc = McSpec(samples=samples, seed=9 + k)
            mean, stderr = average_montecarlo(rho, s, t, mc)
            ref_mean, ref_stderr = reference_montecarlo(rho, s, t, mc)
            assert frobenius_distance(mean.matrix, ref_mean) <= 1e-15
            assert abs(stderr - ref_stderr) <= 1e-10 * ref_stderr or stderr == ref_stderr

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
                              for u in (field_unitary(b, s, t) for b in fields)])
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
            u2 = tensor_product(*[field_unitary(bi, s, 0.6)] * 2)
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
