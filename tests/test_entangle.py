"""Tests for two-qubit concurrence under the common boosted bath."""

import math

import numpy as np
import pytest

from reference import bits, pauli_rotation, random_density, random_unit_vector, scenario
from spinboost.channel import decay_exponent
from spinboost.entangle import _YY, bell_phi_plus, concurrence
from spinboost.oracle import QuadratureSpec, _require_quadrature, two_qubit_average
from spinboost.relkin import eta_max
from spinboost.spinalg import _matmul, require_valid


def wootters_direct(rho4):
    """Independent concurrence oracle via the non-Hermitian product."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    m = rho4 @ yy @ rho4.conj() @ yy
    lam = np.sqrt(np.clip(np.sort(np.linalg.eigvals(m).real)[::-1], 0.0, None))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


class TestConcurrence:
    def test_bell_state_is_maximal(self):
        assert abs(concurrence(bell_phi_plus()) - 1.0) < 1e-12

    def test_product_states_are_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = random_density(rng, 2, pure=True)
            b = random_density(rng, 2, pure=True)
            assert concurrence(np.kron(a, b)) < 1e-12

    def test_werner_state(self):
        # p * Bell + (1-p) * I/4 has concurrence max(0, (3p-1)/2)
        p = 0.8
        rho = p * bell_phi_plus() + (1 - p) * np.eye(4) / 4
        assert abs(concurrence(rho) - 0.7) < 1e-12
        assert abs(concurrence(rho) - wootters_direct(rho)) < 1e-10

    def test_matches_direct_computation_on_random_states(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            rho = random_density(rng, 4)
            assert abs(concurrence(rho) - wootters_direct(rho)) < 1e-8

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density(rng, 4)
            u = np.kron(
                pauli_rotation(random_unit_vector(rng), rng.uniform(0, 6)),
                pauli_rotation(random_unit_vector(rng), rng.uniform(0, 6)),
            )
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_state_gives_nan(self, bad):
        # the finite states of a stack keep the bits they get alone
        broken = np.array(bell_phi_plus())
        broken[0, 3] = bad
        assert np.isnan(concurrence(broken)) and np.isnan(concurrence(np.full((4, 4), bad)))
        values = concurrence(np.stack([np.eye(4) / 4, broken, bell_phi_plus()]))
        assert np.isnan(values[1]) and values[0] == 0.0
        assert values[2] == concurrence(bell_phi_plus())

    def test_wrong_dimension_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="4x4 states"):
            concurrence(random_density(rng, 2))


def per_matrix_concurrence(m):
    """Wootters concurrence of one 4x4 matrix from the singular values of
    sqrt(rho) (sy(x)sy) conj(sqrt(rho)), with Python's max, as a loop over
    states would take it."""
    vals, vecs = np.linalg.eigh(m)
    sqrt_rho = _matmul(vecs * np.sqrt(np.clip(vals, 0.0, None)), vecs.conj().T)
    lam = np.linalg.svd(_matmul(_matmul(sqrt_rho, _YY), sqrt_rho.conj()), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def dephased_bell(e):
    """(|00><00| + |11><11|)/2 + (e/2)(|00><11| + h.c.) for each e, whose concurrence is e."""
    e = np.asarray(e, dtype=float)
    rho = np.zeros(e.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho[..., 3, 3] = 0.5
    rho[..., 0, 3] = rho[..., 3, 0] = 0.5 * e
    return rho


def random_x_states(rng, count):
    """Random two-qubit X states: populations from a Dirichlet draw, and the two
    coherences within their positivity bounds, of random phase."""
    p = rng.dirichlet(np.ones(4), count)
    c03, c12 = (np.sqrt(p[:, i] * p[:, j]) * rng.uniform(0.0, 1.0, count)
                * np.exp(1j * rng.uniform(0.0, 2 * math.pi, count)) for i, j in ((0, 3), (1, 2)))
    rho = np.zeros((count, 4, 4), dtype=complex)
    rho[:, range(4), range(4)] = p
    rho[:, 0, 3], rho[:, 3, 0], rho[:, 1, 2], rho[:, 2, 1] = c03, c03.conj(), c12, c12.conj()
    return rho


def x_state_concurrence(rho):
    """C = 2 max(0, |rho_03| - sqrt(rho_11 rho_22), |rho_12| - sqrt(rho_00 rho_33)) of
    X states (Yu & Eberly, Quantum Inf. Comput. 7, 459, 2007)."""
    d = rho[..., range(4), range(4)].real
    outer = np.abs(rho[..., 0, 3]) - np.sqrt(d[..., 1] * d[..., 2])
    inner = np.abs(rho[..., 1, 2]) - np.sqrt(d[..., 0] * d[..., 3])
    return 2.0 * np.maximum(0.0, np.maximum(outer, inner))


class TestConcurrenceAccuracy:
    """Full accuracy up to C = 1, against two families with exact concurrences."""

    def test_dephased_bell_family_near_one(self):
        # an eigenvalue clamp, or a square root of a noisy eigenvalue, misses
        # these by up to 3e-7, around 1 - e = 6e-7
        e = 1.0 - np.logspace(-16.0, -1.0, 400)
        rho = dephased_bell(e)
        require_valid(rho)
        assert np.abs(concurrence(rho) - e).max() <= 1e-14
        assert abs(concurrence(dephased_bell(1.0)) - 1.0) <= 1e-15

    def test_x_states_match_the_closed_form(self):
        rho = random_x_states(np.random.default_rng(21), 2000)
        require_valid(rho)
        assert np.abs(concurrence(rho) - x_state_concurrence(rho)).max() <= 1e-14

    def test_x_states_near_the_bell_state(self):
        # mixtures of X states are X states: 1 - C from 1e-16 to 1e-2
        weight = np.logspace(-16.0, -2.0, 300)[:, None, None]
        rho = ((1.0 - weight) * dephased_bell(1.0)
               + weight * random_x_states(np.random.default_rng(22), 300))
        require_valid(rho)
        c = x_state_concurrence(rho)
        assert np.abs(concurrence(rho) - c).max() <= 1e-14 and c.min() < 1.0 - 1e-3


class TestConcurrenceStack:
    @pytest.fixture(scope="class")
    def states(self):
        rng = np.random.default_rng(5)
        mixed = [random_density(rng, 4) for _ in range(60)]
        pure = [random_density(rng, 4, pure=True) for _ in range(60)]
        product = [np.kron(random_density(rng, 2, pure=bool(k % 2)), random_density(rng, 2))
                   for k in range(40)]
        bell = bell_phi_plus()
        werner = [p * bell + (1 - p) * np.eye(4) / 4 for p in (0.2, 1 / 3, 0.8)]
        return np.array(mixed + pure + product + werner + [bell, np.eye(4) / 4])

    def test_each_state_has_the_bits_of_a_per_matrix_concurrence(self, states):
        values = concurrence(states)
        assert values.shape == (len(states),)
        assert bits(values) == bits([per_matrix_concurrence(m) for m in states])
        assert bits(values) == bits([concurrence(m) for m in states])
        assert abs(values[-2] - 1.0) < 1e-12
        assert (values[120:160] < 1e-12).all() and values[-1] == 0.0

    def test_stacks_of_one_two_and_all_permuted_and_reshaped(self, states):
        values = concurrence(states)
        order = np.random.default_rng(6).permutation(len(states))
        assert bits(concurrence(states[order])) == bits(values[order])
        reshaped = concurrence(states[:162].reshape(2, 81, 4, 4))
        assert bits(reshaped.ravel()) == bits(values[:162])
        for k in (0, 61, 163):
            assert bits(concurrence(states[k])) == bits(values[k])
            assert bits(concurrence(states[k:k + 2])) == bits(values[k:k + 2])


def bell_concurrence(s, times):
    """The Bell pair's concurrence at ``times`` under the common bath, as the
    ``concurrence`` command computes it."""
    states = two_qubit_average(bell_phi_plus(), s, times)
    require_valid(states)
    return concurrence(states)


def reference(rate, times):
    """exp(-4 rate t**2), the command's reference curve at dephasing rate ``rate``."""
    return np.exp(-decay_exponent(4.0 * rate, np.asarray(times, dtype=float)))


class TestConcurrenceTrajectory:
    def test_initial_point_is_one(self):
        for xi in (0.0, 1.0, 2.5):
            s = scenario(xi, eta_max(xi).theta_opt if xi else 0.0)
            assert abs(bell_concurrence(s, [0.0])[0] - 1.0) < 1e-12

    def test_rest_matches_exponential_decay(self):
        s = scenario(0.0, 0.0)
        g_t2 = np.array([0.2, 0.6, 1.2, 2.0, 3.0])
        rest = reference(s.gamma, np.sqrt(g_t2))
        assert np.abs(bell_concurrence(s, np.sqrt(g_t2)) - rest).max() < 1e-8
        np.testing.assert_allclose(rest, np.exp(-4 * g_t2), atol=1e-15)

    def test_boosted_reference_deviation_is_noise_floor(self):
        # the boosted curve is exact at phi = 0 for every rapidity, so the
        # measured deviations are quadrature noise; the high-rapidity one
        # must not exceed the low-rapidity one beyond that noise
        devs = {}
        for xi in (3.0, 8.0):
            s = scenario(xi, eta_max(xi).theta_opt)
            t1 = math.sqrt(1.0 / s.gamma_prime)
            ref = reference(s.gamma_prime, [t1])[0]
            devs[xi] = abs(bell_concurrence(s, [t1])[0] - ref) / ref
        assert devs[8.0] <= devs[3.0] + 1e-10
        assert devs[3.0] < 1e-8 and devs[8.0] < 1e-8

    def test_boosted_never_exceeds_rest(self):
        rest = scenario(0.0, 0.0)
        for xi in (1.0, 2.5, 5.0):
            s = scenario(xi, eta_max(xi).theta_opt)
            for gp_t2 in (0.2, 1.0, 2.5, 4.0):
                t = math.sqrt(gp_t2 / s.gamma_prime)
                boosted = bell_concurrence(s, [t])[0]
                at_rest = bell_concurrence(rest, [t])[0]
                assert boosted <= at_rest + 1e-10

    def test_series_monotone_non_increasing(self):
        s = scenario(2.5, eta_max(2.5).theta_opt)
        times = np.sqrt(np.linspace(0.0, 4.0, 15) / s.gamma_prime)
        assert (np.diff(bell_concurrence(s, times)) <= 1e-9).all()
        assert (np.diff(reference(s.gamma, times)) < 0).all()
        assert (np.diff(reference(s.gamma_prime, times)) < 0).all()

    def test_concurrence_invariant_under_common_local_frame_change(self):
        # evolving then rotating both qubits by the same local unitary
        # leaves the concurrence unchanged
        s = scenario(2.0, 0.9, 0.7)
        t = math.sqrt(1.5 / s.gamma_prime)
        evolved = two_qubit_average(bell_phi_plus(), s, t)
        require_valid(evolved)
        rng = np.random.default_rng(4)
        w = pauli_rotation(random_unit_vector(rng), 1.234)
        u = np.kron(w, w)
        rotated = u @ evolved @ u.conj().T
        assert abs(concurrence(rotated) - concurrence(evolved)) < 1e-10

    def test_each_time_has_the_bits_of_the_per_time_path(self):
        # one stacked average and one batched concurrence for the whole grid,
        # against two_qubit_average and concurrence at each time
        for s in (scenario(0.0, 0.0), scenario(3.0, eta_max(3.0).theta_opt),
                  scenario(2.0, 0.9, 0.7)):
            times = np.sqrt(np.linspace(0.0, 4.0, 31) / s.gamma_prime)
            alone = np.array([two_qubit_average(bell_phi_plus(), s, t) for t in times])
            require_valid(alone)
            assert bits(bell_concurrence(s, times)) == bits([concurrence(m) for m in alone])

    def test_negative_or_nan_times_rejected(self):
        s = scenario(1.0, 0.5)
        with pytest.raises(ValueError, match="time must be >= 0, got -1.0"):
            two_qubit_average(bell_phi_plus(), s, [-1.0, 0.5])
        with pytest.raises(ValueError, match="time must be >= 0, got nan"):
            two_qubit_average(bell_phi_plus(), s, [0.0, math.nan, 0.5])

    def test_refused_time_raises_the_oracles_error(self):
        # t = 0 is fine; 1/sqrt(2) is the first time whose angle overflows at xi = 709
        s = scenario(709.0, 1.0)
        with pytest.raises(ValueError, match="rotation angle .* time t = 0.7071067811865476 "):
            _require_quadrature(s, np.sqrt([0.0, 0.5, 1.0]), QuadratureSpec().nodes)
