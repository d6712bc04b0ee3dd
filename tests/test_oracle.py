"""Tests for the quadrature and Monte Carlo averaging oracles."""

import ast
import inspect
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import bits, draw_cases, pauli_rotation, random_density, scenario, stacked
from spinboost import analysis, oracle, spinalg, verify
from spinboost.channel import evolve_elementwise, plus_state
from spinboost.oracle import (
    MC_RANDOMISATIONS,
    McSpec,
    QuadratureSpec,
    _cos_sin_double,
    _randomisation_means,
    _require_quadrature,
    _stratified_normals,
    average_montecarlo,
    average_quadrature,
    gauss_hermite_nodes,
    two_qubit_average,
)
from spinboost.spinalg import IDENTITY_2, pauli_vector, require_valid


def unitaries(b_values, s, t):
    """exp(-i kappa t b sigma.n) (len(b_values), 2, 2), one per scaled field b,
    built as ``pauli_rotation`` builds one."""
    half = s.field.kappa * t * np.asarray(b_values)[:, None, None]
    return np.cos(half) * IDENTITY_2 - 1j * np.sin(half) * pauli_vector(s.field.n)


def field_unitary(b, s, t):
    """exp(-i kappa t b sigma.n), the rotation by 2 kappa t b about the axis n, at b = sqrt(gamma/2) z."""
    return pauli_rotation(s.field.n, 2.0 * s.field.kappa * t * b)


class TestSpecs:
    def test_quadrature_domain(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=1)

    def test_mc_domain(self):
        with pytest.raises(ValueError):
            McSpec(samples=0)
        with pytest.raises(ValueError):
            McSpec(seed=-1)
        # 2 R m^2 normals: two in each of m x m strata of R randomisations
        assert McSpec().samples == 2 * MC_RANDOMISATIONS * McSpec().strata ** 2
        assert McSpec(samples=2 * MC_RANDOMISATIONS).strata == 1
        for samples in (1, 2 * MC_RANDOMISATIONS + 1, 3 * MC_RANDOMISATIONS, 10**6):
            with pytest.raises(ValueError, match="2 R m\\^2"):
                McSpec(samples=samples)

    def test_fractional_nodes_refused(self):
        with pytest.raises(ValueError, match="nodes must be an integer, got 2.5"):
            QuadratureSpec(nodes=2.5)

    def test_nan_nodes_refused(self):
        with pytest.raises(ValueError, match="nodes must be an integer, got nan"):
            QuadratureSpec(nodes=float("nan"))

    def test_float_samples_refused_even_when_whole(self):
        with pytest.raises(ValueError, match="samples must be an integer, got 115200.0"):
            McSpec(samples=115200.0)

    def test_fractional_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            McSpec(seed=1.5)

    @pytest.mark.parametrize("n", [3.0, 2.5, float("nan")])
    def test_gauss_hermite_nodes_refuse_a_float_order(self, n):
        with pytest.raises(ValueError, match="nodes must be an integer"):
            gauss_hermite_nodes(n)

    def test_numpy_integers_pass(self):
        assert QuadratureSpec(nodes=np.int64(201)).nodes == 201
        mc = McSpec(samples=np.int32(2 * MC_RANDOMISATIONS * 4), seed=np.uint64(2**64 - 1))
        assert mc.strata == 2
        np.testing.assert_array_equal(gauss_hermite_nodes(np.int16(5))[0],
                                      gauss_hermite_nodes(5)[0])


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
        # a = 2 t sqrt(gamma/2) this is the dephasing factor exp(-gamma t^2)
        z, w = gauss_hermite_nodes(201)
        for g_t2 in np.linspace(0.5, 10.0, 20):
            a = math.sqrt(2.0 * g_t2)
            got = (w * np.exp(-1j * a * z)).sum()
            assert abs(got - math.exp(-g_t2)) < 1e-12


class TestUnitaryAtField:
    """The oracle's per-field unitaries against the closed-form SU(2) rotation."""

    def test_zero_field_is_identity(self):
        s = scenario(1.5, 0.7, 0.3)
        np.testing.assert_allclose(unitaries(np.zeros(1), s, 1.3)[0], IDENTITY_2, atol=1e-15)

    def test_rest_frame_is_z_phase(self):
        s = scenario(0.0, 0.0, gamma=1.0)
        b, t = 0.83, 1.21
        u = unitaries(np.array([b]), s, t)[0]
        expected = np.diag([np.exp(-1j * b * t), np.exp(1j * b * t)])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_trace_and_rotation_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            b, t = rng.normal(), rng.uniform(0, 2)
            u = unitaries(np.array([b]), s, t)[0]
            angle = 2.0 * s.field.kappa * t * b
            assert abs(np.trace(u) - 2.0 * math.cos(angle / 2.0)) < 1e-12
            np.testing.assert_allclose(u, field_unitary(b, s, t), atol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            average_quadrature(plus_state(), scenario(1.0, 1.0), -1.0)

    @pytest.mark.parametrize("xi, t", [(700.0, 2e4), (700.0, 1e5), (1000.0, 0.0)])
    def test_overflowing_angle_named(self, xi, t):
        # kappa ~ 2.4e303 at (700, 0.5): at t = 2e4 kappa mu t is finite but
        # not its product with the largest node or draw; at 1e5 it is inf
        # itself, and at xi = 1000 kappa is
        # each oracle refuses the case with NaN, and the quadrature's refusal names it
        s = scenario(xi, 0.5)
        rho4 = np.kron(plus_state(), plus_state())
        assert np.isnan(average_quadrature(plus_state(), s, t)).all()
        assert np.isnan(two_qubit_average(rho4, s, t)).all()
        mean, stderr = average_montecarlo(plus_state(), s, t,
                                          McSpec(samples=2 * MC_RANDOMISATIONS))
        assert np.isnan(mean).all() and np.isnan(stderr)
        with pytest.raises(ValueError, match=f"xi = {xi!r}, angle theta = 0.5 and time "
                                             f"t = {t!r}"):
            _require_quadrature(s, t, 201)


class TestAverageQuadrature:
    def test_vanishing_noise_is_identity_channel(self):
        s = scenario(2.0, 0.9, gamma=2e-24)
        rho = plus_state()
        out = average_quadrature(rho, s, 1.0)
        require_valid(out)
        assert np.linalg.norm(out - rho) < 1e-10

    def test_matches_elementwise(self):
        rng = np.random.default_rng(1)
        for rho, s, t in draw_cases(rng, 100):
            quad = average_quadrature(rho, s, t)
            ana = evolve_elementwise(rho, s, t)
            require_valid(quad)
            require_valid(ana)
            assert np.linalg.norm(quad - ana) < 1e-8

    def test_node_doubling_converged(self):
        rng = np.random.default_rng(2)
        for rho, s, t in draw_cases(rng, 20):
            a = average_quadrature(rho, s, t, QuadratureSpec(nodes=201))
            b = average_quadrature(rho, s, t, QuadratureSpec(nodes=402))
            require_valid(a)
            require_valid(b)
            assert np.linalg.norm(a - b) < 1e-10

    def test_trace_one(self):
        rng = np.random.default_rng(3)
        for rho, s, t in draw_cases(rng, 20):
            out = average_quadrature(rho, s, t)
            require_valid(out)
            assert abs(np.trace(out) - 1.0) < 1e-14

    @pytest.mark.parametrize("nodes", [201, 402])
    def test_matches_per_node_matrix_products(self, nodes):
        # the broadcast 2x2 products against one u @ rho @ u^dag per node,
        # reduced over the nodes as the oracle does
        rng = np.random.default_rng(4)
        z, w = gauss_hermite_nodes(nodes)
        for rho, s, t in draw_cases(rng, 20):
            u = unitaries(math.sqrt(s.gamma / 2) * z, s, t)
            terms = np.array([uk @ rho @ uk.conj().T for uk in u])
            ref = np.tensordot(w, terms, axes=(0, 0))
            ref = 0.5 * (ref + ref.conj().T)
            out = average_quadrature(rho, s, t, QuadratureSpec(nodes=nodes))
            require_valid(out)
            assert np.abs(out - ref).max() <= 4.5e-16


def cos_sin_double(x):
    x = np.array(x, dtype=float)
    c, scratch = np.empty_like(x), np.empty_like(x)
    _cos_sin_double(x, c, scratch)
    return c, x


R = MC_RANDOMISATIONS


def spec(samples, seed):
    """The McSpec of the most normals 2 R m^2 up to ``samples``, with at least one stratum."""
    m = max(1, math.isqrt(samples // (2 * R)))
    return McSpec(samples=2 * R * m * m, seed=seed)


def stream(seed, r):
    """The uniforms of randomisation ``r``: SFC64 seeded by (seed, r)."""
    ss = np.random.SeedSequence(seed, spawn_key=(r,))
    return np.random.Generator(np.random.SFC64(ss))


def jittered_normals(mc, r):
    """The 2 m^2 normals of randomisation ``r`` with np.cos/np.sin: in stratum (i, j)
    the pair (U1, U2) gives 1 - u1 = (i + (1 - U1))/m and u2 = (j + U2)/m."""
    m = mc.strata
    pairs = stream(mc.seed, r).random(2 * m * m).reshape(m, m, 2)
    one_minus_u1 = (np.arange(m)[:, None] + (1.0 - pairs[..., 0])) / m
    u2 = (np.arange(m) + pairs[..., 1]) / m
    radius = np.sqrt(-2.0 * np.log(one_minus_u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([(radius * np.cos(angle)).ravel(), (radius * np.sin(angle)).ravel()])


def reference_montecarlo(rho, s, t, mc):
    """U rho U^dag draw by draw with np.cos/np.sin, averaged per randomisation; then the
    mean of the R averages and the standard error of their spread."""
    per_randomisation = []
    for r in range(R):
        half_angle = s.field.kappa * t * math.sqrt(s.gamma / 2) * jittered_normals(mc, r)
        u = (np.cos(half_angle)[:, None, None] * IDENTITY_2
             - 1j * np.sin(half_angle)[:, None, None] * pauli_vector(s.field.n))
        # draws on the last, contiguous axis, so that each sum is pairwise
        draws = np.ascontiguousarray(((u @ rho) @ u.conj().transpose(0, 2, 1)).reshape(-1, 4).T)
        per_randomisation.append(draws.sum(axis=1) / len(half_angle))
    per_randomisation = np.array(per_randomisation)
    mean = per_randomisation.mean(axis=0)
    spread = (np.abs(per_randomisation - mean) ** 2).sum()
    return mean.reshape(2, 2), math.sqrt(spread / (R * (R - 1)))


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
        # the sampler draws a randomisation's uniforms a block of rows at a time
        for n in (1, 7, oracle._MC_BLOCK // 2):
            one = stream(42, 3).random(2 * n)
            gen = stream(42, 3)
            np.testing.assert_array_equal(one, np.concatenate([gen.random(n), gen.random(n)]))
            out = np.empty(2 * n)
            stream(42, 3).random(out=out)
            np.testing.assert_array_equal(out, one)


def direct_means(mc, half_scale):
    """Per randomisation, the means of 1 - cos d and sin d from np.cos/np.sin of
    d = 2 half_scale z on the jittered normals: (2, R)."""
    d = 2.0 * half_scale * np.array([jittered_normals(mc, r) for r in range(R)])
    return np.array([(1.0 - np.cos(d)).mean(axis=-1), np.sin(d).mean(axis=-1)])


def kernel_sums(mc, half_scale, r):
    """The two sums of randomisation ``r`` as the kernel forms them, block of rows by
    block of rows: of h (hw) and of hw, with h = tan(d/2) and w = 1/(1 + h^2)."""
    m = mc.strata
    rows = min(m, max(1, oracle._MC_BLOCK // (4 * m)))
    gen, work, sums = oracle._stream(mc.seed, r), np.empty(4 * rows * m), np.zeros(2)
    for first in range(0, m, rows):
        h = np.tan(half_scale * _stratified_normals(gen, m, first, min(rows, m - first), work))
        w = 1.0 / (h * h + 1.0)
        hw = h * w
        sums += ((hw * h).sum(), hw.sum())
    return sums


class TestRotationMoments:
    """The per-randomisation means of ``_randomisation_means``."""

    @pytest.mark.parametrize("samples", [1, 2, 3001, 65_537, 2 * 65_536 + 12345])
    @pytest.mark.parametrize("half_scale", [1e-3, 0.2, 1.0, 7.5])
    def test_means_match_direct_cos_sin(self, samples, half_scale):
        # one stratum per randomisation, a few and many
        mc = spec(samples, 31)
        got = _randomisation_means(mc, [half_scale])[:, 0]
        assert got.shape == (2, R)
        assert np.abs(got - direct_means(mc, half_scale)).max() <= 1e-14

    @pytest.mark.parametrize("block", [1, 64, 1000])
    def test_means_match_direct_cos_sin_in_small_blocks(self, monkeypatch, block):
        # several blocks of rows per randomisation and of cases per block
        mc = spec(3001, 32)
        monkeypatch.setattr(oracle, "_MC_BLOCK", block)
        got = _randomisation_means(mc, [1e-3, 0.2, 1.0, 7.5])
        for k, half_scale in enumerate([1e-3, 0.2, 1.0, 7.5]):
            assert np.abs(got[:, k] - direct_means(mc, half_scale)).max() <= 1e-14

    def test_sin_square_keeps_relative_accuracy_at_small_angles(self):
        # 1 - cos d = 2 sin^2(d/2), summed as 2 h (hw), not 1 less the mean of cos d
        mc = spec(3001, 5)
        vers = _randomisation_means(mc, [1e-6])[0, 0]
        d = 2e-6 * np.array([jittered_normals(mc, r) for r in range(R)])
        ref = (2.0 * np.sin(0.5 * d) ** 2).mean(axis=-1)
        assert np.abs(vers / ref - 1.0).max() <= 1e-12
        spread, ref_spread = vers - vers.mean(), ref - ref.mean()
        assert np.abs(spread - ref_spread).max() <= 1e-9 * np.abs(ref_spread).max()

    def test_same_seed_and_count_give_the_same_bits(self):
        for samples in (1, 3001, 2 * 65_536 + 1):
            mc = spec(samples, 77)
            first, second = _randomisation_means(mc, [0.6]), _randomisation_means(mc, [0.6])
            assert first.view(np.uint64).tolist() == second.view(np.uint64).tolist()

    def test_chunks_in_any_order_give_the_same_bits(self, monkeypatch):
        # each randomisation's sums built on their own, last randomisation first,
        # a block of rows of strata at a time, as the kernel forms them
        mc, half_scale = spec(20_000, 2024), 0.8
        for rows in (1, 3, 100):
            monkeypatch.setattr(oracle, "_MC_BLOCK", 4 * mc.strata * rows)
            sums = {r: kernel_sums(mc, half_scale, r) for r in reversed(range(R))}
            ref = np.array([sums[r] for r in range(R)]).T / mc.strata**2
            got = _randomisation_means(mc, [half_scale])[:, 0]
            assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()

    @pytest.mark.parametrize("seed, r", [(0, 0), (42, 3), (2**64 - 2, 7)])
    def test_neighbouring_keys_start_with_different_draws(self, seed, r):
        keys = [(seed, r), (seed, r + 1), (seed + 1, r)]
        firsts = [_stratified_normals(oracle._stream(s, k), 1, 0, 1, np.empty(4))[0]
                  for s, k in keys]
        assert len(set(firsts)) == 3
        uniforms = [stream(s, k).random() for s, k in keys]
        assert len(set(uniforms)) == 3


class TestAverageMonteCarlo:
    @pytest.mark.parametrize("samples", [1, 2, 3001, 2 * 65_536 + 12345])
    def test_matches_per_chunk_cos_sin_reference(self, samples):
        # per randomisation, as the oracle draws them
        rng = np.random.default_rng(11)
        for k, (rho, s, t) in enumerate(draw_cases(rng, 4)):
            mc = spec(samples, 9 + k)
            mean, stderr = average_montecarlo(rho, s, t, mc)
            ref_mean, ref_stderr = reference_montecarlo(rho, s, t, mc)
            require_valid(mean)
            assert np.linalg.norm(mean - ref_mean) <= 1e-15
            assert abs(stderr - ref_stderr) <= 1e-10 * ref_stderr

    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        (rho, s, t), = draw_cases(rng, 1)
        mc = McSpec(seed=7)
        first, se1 = average_montecarlo(rho, s, t, mc)
        second, se2 = average_montecarlo(rho, s, t, mc)
        require_valid(first)
        np.testing.assert_array_equal(first, second)
        assert se1 == se2

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        script = ("import hashlib, sys, numpy as np\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from spinboost import oracle, verify\n"
                  "pool = verify.case_pool(7)\n"
                  "means, stderrs = oracle.average_montecarlo(pool.rhos[:20], pool.scenarios[:20],"
                  " pool.times[:20], oracle.McSpec(seed=7))\n"
                  "print(hashlib.sha256(means.tobytes() + stderrs.tobytes()).hexdigest())\n")
        src = str(Path(oracle.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script, src], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout)
        assert len(digests) == 1

    def test_within_three_stderr_of_quadrature(self):
        rng = np.random.default_rng(5)
        for k, (rho, s, t) in enumerate(draw_cases(rng, 5)):
            mean, stderr = average_montecarlo(rho, s, t, McSpec(seed=100 + k))
            quad = average_quadrature(rho, s, t)
            require_valid(mean)
            require_valid(quad)
            assert np.linalg.norm(mean - quad) <= 3.0 * stderr

    def test_mean_trace_one(self):
        rng = np.random.default_rng(6)
        (rho, s, t), = draw_cases(rng, 1)
        mean, _ = average_montecarlo(rho, s, t, spec(50_000, 1))
        require_valid(mean)
        assert abs(np.trace(mean) - 1.0) < 1e-12

    def test_moments_match_per_draw_average(self):
        # the mean and standard error of U rho U^dag, draw by draw on the
        # oracle's own normals, averaged per randomisation
        rng = np.random.default_rng(10)
        for rho, s, t in draw_cases(rng, 3):
            mc = spec(3000, 5)
            mean, stderr = average_montecarlo(rho, s, t, mc)
            require_valid(mean)
            m = mc.strata
            per_randomisation = []
            for r in range(R):
                z = _stratified_normals(oracle._stream(mc.seed, r), m, 0, m, np.empty(4 * m * m))
                fields = math.sqrt(s.gamma / 2) * z
                draws = np.array([u @ rho @ u.conj().T
                                  for u in (field_unitary(b, s, t) for b in fields)])
                per_randomisation.append(draws.mean(axis=0))
            per_randomisation = np.array(per_randomisation)
            expected = per_randomisation.mean(axis=0)
            spread = (np.abs(per_randomisation - expected) ** 2).sum()
            assert np.linalg.norm(mean - expected) < 1e-14
            assert abs(stderr - math.sqrt(spread / (R * (R - 1)))) <= 1e-10 * stderr

    def test_stderr_scales_with_samples(self):
        # jittered strata in two dimensions: the error of a smooth integrand
        # falls as 1/m^2, a sixteenth for 16 times the normals (a quarter
        # for plain sampling)
        rng = np.random.default_rng(7)
        (rho, s, t), = draw_cases(rng, 1)
        _, se_small = average_montecarlo(rho, s, t, McSpec(samples=2 * R * 10**2, seed=11))
        _, se_large = average_montecarlo(rho, s, t, McSpec(samples=2 * R * 40**2, seed=11))
        ratio = se_small / se_large
        assert 8.0 < ratio < 32.0


def montecarlo_stack(cases, mc):
    return average_montecarlo(*stacked(cases), mc)


class TestMonteCarloStack:
    @pytest.mark.parametrize("samples", [1, 3001, 2 * 65_536 + 12345])
    @pytest.mark.parametrize("size", [1, 2, 20])
    def test_each_case_has_the_bits_of_a_stack_of_one(self, size, samples):
        cases = draw_cases(np.random.default_rng(size), size)
        mc = spec(samples, size + samples)
        means, stderrs = montecarlo_stack(cases, mc)
        assert means.shape == (size, 2, 2) and stderrs.shape == (size,)
        for (rho, s, t), mean, stderr in zip(cases, means, stderrs):
            one, one_stderr = average_montecarlo(rho, s, t, mc)
            require_valid(one)
            assert bits(mean) == bits(one)
            assert bits(stderr) == bits(one_stderr)

    @pytest.mark.parametrize("block", [1, 64, 1000])
    def test_small_blocks_keep_each_case_to_the_bits_of_a_stack_of_one(self, monkeypatch,
                                                                        block):
        monkeypatch.setattr(oracle, "_MC_BLOCK", block)
        cases = draw_cases(np.random.default_rng(24), 7)
        mc = spec(3001, 3)
        means, stderrs = montecarlo_stack(cases, mc)
        for k in (0, 3, 6):
            one, one_stderr = average_montecarlo(*cases[k], mc)
            assert bits(means[k]) == bits(one) and bits(stderrs[k]) == bits(one_stderr)

    def test_permuting_the_stack_permutes_the_results(self):
        cases = draw_cases(np.random.default_rng(21), 20)
        mc = spec(3001, 8)
        means, stderrs = montecarlo_stack(cases, mc)
        order = np.random.default_rng(22).permutation(20)
        shuffled_means, shuffled_stderrs = montecarlo_stack([cases[k] for k in order], mc)
        assert bits(shuffled_means) == bits(means[order])
        assert bits(shuffled_stderrs) == bits(stderrs[order])

    def test_a_case_whose_angle_overflows_is_nan_and_spares_the_others(self):
        cases = draw_cases(np.random.default_rng(23), 3)
        cases.insert(1, (plus_state(), scenario(700.0, 0.5), 2e4))
        mc = spec(3001, 4)
        means, stderrs = montecarlo_stack(cases, mc)
        assert np.isnan(means[1]).all() and np.isnan(stderrs[1])
        kept = [0, 2, 3]
        alone_means, alone_stderrs = montecarlo_stack([cases[k] for k in kept], mc)
        require_valid(alone_means)
        assert bits(means[kept]) == bits(alone_means)
        assert bits(stderrs[kept]) == bits(alone_stderrs)


def quadrature_stack(cases, nodes=201):
    return average_quadrature(*stacked(cases), QuadratureSpec(nodes))


class TestQuadratureStack:
    @pytest.fixture(scope="class")
    def cases(self):
        return draw_cases(np.random.default_rng(31), 250)

    @pytest.mark.parametrize("nodes", [2, 201, 402])
    def test_each_case_has_the_bits_of_a_stack_of_one(self, cases, nodes):
        alone = np.array([average_quadrature(rho, s, t, QuadratureSpec(nodes=nodes))
                          for rho, s, t in cases])
        require_valid(alone)
        for size in (1, 2, 100, 250):
            out = quadrature_stack(cases[:size], nodes)
            assert out.shape == (size, 2, 2)
            assert bits(out) == bits(alone[:size])
        # shifted by one case, every block boundary falls elsewhere
        assert bits(quadrature_stack(cases[1:], nodes)) == bits(alone[1:])

    def test_permuting_the_stack_permutes_the_results(self, cases):
        out = quadrature_stack(cases)
        order = np.random.default_rng(32).permutation(len(cases))
        assert bits(quadrature_stack([cases[k] for k in order])) == bits(out[order])

    @pytest.mark.parametrize("block", [1, 3, 7, 249, 250, 251])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, cases, block):
        out = quadrature_stack(cases)
        monkeypatch.setattr(oracle, "_QUAD_BLOCK", block)
        assert bits(quadrature_stack(cases)) == bits(out)

    def test_matches_the_conjugation_by_each_unitary(self, monkeypatch, cases):
        # Gaussian nodes are symmetric, so sum w c s vanishes and hides the
        # commutator term; shifted nodes make it count
        z, w = gauss_hermite_nodes(201)
        z = z + 0.4
        monkeypatch.setattr(oracle, "gauss_hermite_nodes", lambda n: (z, w))
        out = quadrature_stack(cases[:100])
        worst, commutator = 0.0, 0.0
        for (rho, s, t), got in zip(cases[:100], out):
            u = unitaries(math.sqrt(s.gamma / 2) * z, s, t)
            u_dag = u.conj().transpose(0, 2, 1)
            ref = (w[:, None, None] * (u @ rho @ u_dag)).sum(axis=0)
            ref = 0.5 * (ref + ref.conj().T)
            worst = max(worst, np.abs(got - ref).max())
            # the commutator term with the wrong sign, U^dag rho U
            flipped = (w[:, None, None] * (u_dag @ rho @ u)).sum(axis=0)
            commutator = max(commutator, np.abs(flipped - ref).max())
        assert worst <= 1e-15
        assert commutator > 0.1

    def test_an_empty_stack(self):
        assert quadrature_stack([]).shape == (0, 2, 2)

    def test_a_refused_case_is_nan_and_spares_the_others(self, cases):
        kept = list(cases[:70])
        out = quadrature_stack(kept[:1] + [(plus_state(), scenario(700.0, 0.5), 2e4)]
                               + kept[1:])
        assert np.isnan(out[1]).all()
        assert bits(np.delete(out, 1, axis=0)) == bits(quadrature_stack(kept))

    def test_refused_exactly_where_average_quadrature_raises(self):
        # bisect to the last time the kernel maps; the next float is refused by both
        s = scenario(709.0, 1.0)
        lo, hi = 0.1, 1.0
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            if np.isnan(quadrature_stack([(plus_state(), s, mid)])).any():
                hi = mid
            else:
                lo = mid
        assert np.isnan(quadrature_stack([(plus_state(), s, hi)])).all()
        _require_quadrature(s, lo, 201)
        with pytest.raises(ValueError, match="rotation angle"):
            _require_quadrature(s, hi, 201)


class TestBroadcastProducts:
    @pytest.mark.parametrize("nodes", [2, 201, 402])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_within_1e_15_of_matmul_products(self, monkeypatch, dim, nodes):
        # the kernel with numpy's ``@`` in place of its broadcast products
        rng = np.random.default_rng(50)
        cases = draw_cases(rng, 150)
        _, stack, times = stacked(cases)
        states = (np.array([rho for rho, _, _ in cases]) if dim == 2 else
                  np.array([random_density(rng, 4, pure=bool(k % 2)) for k in range(150)]))
        q = QuadratureSpec(nodes)
        out = oracle._bath_average(states, stack, times, q)
        monkeypatch.setattr(oracle, "_matmul", np.matmul)
        ref = oracle._bath_average(states, stack, times, q)
        require_valid(out)
        assert np.abs(out - ref).max() <= 1e-15


def blas_products(func):
    """The ``@`` operators and the calls of numpy's BLAS product functions in ``func``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return [ast.dump(node) for node in ast.walk(tree)
            if isinstance(node, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot", "tensordot")]


@pytest.mark.parametrize("func", [oracle._bath_average, analysis.kraus_residuals,
                                  spinalg._random_states, verify._draw_channel_cases])
def test_no_blas_product(func):
    assert blas_products(func) == []


def test_blas_products_are_found():
    def uses_them(a, b):
        return a @ b + np.matmul(a, b) + np.dot(a, b)

    assert len(blas_products(uses_them)) == 3


class TestTwoQubitAverage:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(8)
        rho4 = random_density(rng, 4)
        out = two_qubit_average(rho4, scenario(1.5, 0.8), 0.0)
        require_valid(out)
        assert np.linalg.norm(out - rho4) < 1e-14

    def test_rest_bell_corner_decay(self):
        # for the Bell pair at rest the corner coherence picks up
        # exp(-i 4 t sqrt(gamma/2) z); its Gaussian average is exp(-4 gamma t^2)
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        s = scenario(0.0, 0.0, gamma=1.0)
        for g_t2 in (0.3, 1.0, 2.0):
            t = math.sqrt(g_t2)
            out = two_qubit_average(bell, s, t)
            require_valid(out)
            expected = math.exp(-4.0 * g_t2) / 2.0
            assert abs(out[0, 3].real - expected) < 1e-12
            # independent cross-check: dense trapezoid over the Gaussian
            b_grid = np.linspace(-8, 8, 20001)
            pdf = np.exp(-0.5 * b_grid**2) / math.sqrt(2 * math.pi)
            brute = np.trapezoid(pdf * np.cos(4 * b_grid * math.sqrt(s.gamma / 2) * t), b_grid) / 2
            assert abs(out[0, 3].real - brute) < 1e-8

    def test_matches_per_node_kronecker_loop(self):
        rng = np.random.default_rng(10)
        rho4 = random_density(rng, 4)
        s = scenario(2.0, 0.7, 0.4)
        out = two_qubit_average(rho4, s, 0.6)
        require_valid(out)
        np.testing.assert_allclose(out, kronecker_loop(rho4, s, 0.6), rtol=0, atol=1e-15)

    def test_trace_one(self):
        rng = np.random.default_rng(9)
        rho4 = random_density(rng, 4)
        s = scenario(2.0, 0.7, 0.4)
        out = two_qubit_average(rho4, s, 0.6)
        require_valid(out)
        assert abs(np.trace(out) - 1.0) < 1e-14

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            two_qubit_average(plus_state(), scenario(1.0, 1.0), 1.0)


class TestOneQubitInTwo:
    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(37)
        _, stack, times = stacked(draw_cases(rng, 200))
        rho, sigma = (np.array([random_density(rng, 2) for _ in range(200)])
                      for _ in range(2))
        pairs = np.array([np.kron(a, b) for a, b in zip(rho, sigma)])
        return rho, sigma, pairs, stack, times

    @pytest.mark.parametrize("nodes", [2, 201, 402])
    def test_partial_traces_are_the_one_qubit_averages(self, cases, nodes):
        # each qubit of rho (x) sigma turns by the same U(z), so tracing
        # either one out of the common-bath average leaves the one-qubit
        # average of the other factor
        rho, sigma, pairs, stack, times = cases
        q = QuadratureSpec(nodes)
        out = two_qubit_average(pairs, stack, times, q).reshape(-1, 2, 2, 2, 2)
        first, second = np.einsum("...ikjk->...ij", out), np.einsum("...kikj->...ij", out)
        np.testing.assert_allclose(first, average_quadrature(rho, stack, times, q),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(second, average_quadrature(sigma, stack, times, q),
                                   rtol=0, atol=1e-15)


def kronecker_loop(rho4, s, t, nodes=201, shift=0.0):
    """The common-bath average node by node: w [U (x) U] rho4 [U (x) U]^dag,
    with U (x) U a Kronecker product per node, summed in node order; the
    nodes z are moved to z + ``shift``."""
    z, w = gauss_hermite_nodes(nodes)
    z = z + shift
    out = np.zeros((4, 4), dtype=complex)
    for wi, bi in zip(w, math.sqrt(s.gamma / 2) * z):
        u2 = np.kron(*[field_unitary(bi, s, t)] * 2)
        out += wi * (u2 @ rho4 @ u2.conj().T)
    return 0.5 * (out + out.conj().T)


def two_qubit_stack(rho4, s, times, nodes):
    return two_qubit_average(rho4, s, np.array(times, dtype=float), QuadratureSpec(nodes))


def singlet():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return np.outer(psi, psi).astype(complex)


pinned = settings(max_examples=150, derandomize=True, database=None, deadline=None)


class TestTwoQubitStack:
    @pytest.fixture(scope="class")
    def rho4(self):
        return random_density(np.random.default_rng(33), 4)

    TIMES = np.sort(np.random.default_rng(34).uniform(0.0, 1.2, 23)).tolist()

    @pytest.mark.parametrize("nodes", [2, 201, 402])
    def test_each_time_has_the_bits_of_a_per_time_average(self, rho4, nodes):
        s = scenario(2.0, 0.7, 0.4)
        out = two_qubit_stack(rho4, s, self.TIMES, nodes)
        assert out.shape == (len(self.TIMES), 4, 4)
        alone = [two_qubit_average(rho4, s, t, QuadratureSpec(nodes)) for t in self.TIMES]
        require_valid(np.array(alone))
        assert bits(out) == bits(alone)
        loop = [kronecker_loop(rho4, s, t, nodes) for t in self.TIMES]
        np.testing.assert_allclose(out, loop, rtol=0, atol=1e-15)

    def test_each_case_of_a_scenario_stack_has_its_own_bits(self, rho4):
        cases = draw_cases(np.random.default_rng(35), 9)
        _, stack, times = stacked(cases)
        states = np.array([rho4, np.eye(4) / 4, rho4.T] * 3)
        out = two_qubit_average(states, stack, times)
        alone = [two_qubit_average(m, s, t) for m, (_, s, t) in zip(states, cases)]
        require_valid(np.array(alone))
        assert bits(out) == bits(alone)

    @pytest.mark.parametrize("per_block", [1, 2, 3, 7, 22, 23, 24])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, rho4, per_block):
        s = scenario(1.2, 2.0, 5.0)
        out = two_qubit_stack(rho4, s, self.TIMES, 201)
        monkeypatch.setattr(oracle, "_QUAD_BLOCK", per_block)
        assert bits(two_qubit_stack(rho4, s, self.TIMES, 201)) == bits(out)
        # shifted by one time, every block boundary falls elsewhere
        assert bits(two_qubit_stack(rho4, s, self.TIMES[1:], 201)) == bits(out[1:])

    @pytest.mark.parametrize("nodes, count", [(201, 47), (2048, 5), (4096, 3)])
    def test_each_block_stays_under_the_pair_cap(self, monkeypatch, rho4, nodes, count):
        # a block holds _QUAD_BLOCK cases (at least one) at any node count, so
        # its (cases, nodes) temporaries hold at most _QUAD_BLOCK * nodes pairs
        z, w = gauss_hermite_nodes(201)
        nodes_z, nodes_w = np.resize(z, nodes), np.resize(w, nodes) * (201 / nodes)
        monkeypatch.setattr(oracle, "gauss_hermite_nodes", lambda n: (nodes_z, nodes_w))
        monkeypatch.setattr(oracle, "_QUAD_BLOCK", 2)
        blocks = []
        axes_of = oracle.pauli_vector

        def recorded(n):  # called once per block, on the block's axes
            blocks.append(len(n))
            return axes_of(n)

        monkeypatch.setattr(oracle, "pauli_vector", recorded)
        times = np.linspace(0.0, 1.0, count).tolist()
        out = two_qubit_stack(rho4, scenario(1.0, 1.0), times, nodes)
        assert len(out) == count and np.isfinite(out).all()
        assert blocks == [2] * (count // 2) + [1] * (count % 2)

    def test_matches_the_kronecker_loop_on_shifted_nodes(self, monkeypatch, rho4):
        # Gaussian nodes are symmetric, so the odd moments sum w c^3 s and
        # sum w c s^3 vanish and hide their terms; shifted nodes make them count
        z, w = gauss_hermite_nodes(201)
        monkeypatch.setattr(oracle, "gauss_hermite_nodes", lambda n: (z + 0.4, w))
        cases = draw_cases(np.random.default_rng(36), 12)
        _, stack, times = stacked(cases)
        out = two_qubit_average(rho4, stack, times)
        loop = [kronecker_loop(rho4, s, t, shift=0.4) for _, s, t in cases]
        np.testing.assert_allclose(out, loop, rtol=0, atol=1e-15)
        # the odd terms with the wrong sign: the loop of U^dag (x) U^dag
        flipped = [kronecker_loop(rho4, s, t, shift=-0.4) for _, s, t in cases]
        assert np.abs(out - flipped).max() > 0.05

    @pinned
    @given(xi=st.floats(0.0, 700.0), theta=st.floats(0.0, math.pi),
           phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True), gamma=st.floats(1e-3, 1e3),
           g=st.floats(0.0, 30.0), seed=st.integers(0, 2**32 - 1),
           nodes=st.sampled_from([2, 201, 402]))
    def test_matches_the_kronecker_loop_over_the_parameter_box(self, xi, theta, phi, gamma, g,
                                                                seed, nodes):
        s = scenario(xi, theta, phi, gamma)
        t = math.sqrt(g / gamma) / s.field.kappa  # gamma' t^2 = g, also where gamma' overflows
        rho4 = random_density(np.random.default_rng(seed), 4)
        out = two_qubit_average(rho4, s, t, QuadratureSpec(nodes))
        np.testing.assert_allclose(out, kronecker_loop(rho4, s, t, nodes), rtol=0, atol=1e-15)

    @pinned
    @given(xi=st.floats(0.0, 700.0), theta=st.floats(0.0, math.pi),
           phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True), g=st.floats(0.0, 1e4))
    def test_the_singlet_is_invariant(self, xi, theta, phi, g):
        # U (x) U fixes the singlet for every U in SU(2): it lies in the
        # decoherence-free subspace of the common bath (Lidar, Chuang &
        # Whaley, PRL 81, 2594, 1998)
        s = scenario(xi, theta, phi)
        times = np.sqrt(g * np.array([0.0, 0.01, 0.25, 1.0])) / s.field.kappa
        out = two_qubit_average(singlet(), s, times)
        np.testing.assert_allclose(out, np.broadcast_to(singlet(), out.shape), rtol=0, atol=1e-15)
    def test_first_refused_time_raises_its_own_error(self, rho4):
        # at xi = 709 the angle at the largest node overflows between these times
        s = scenario(709.0, 1.0)
        times = [0.0, 0.1, 0.2, 0.3, 0.5, 1.0]
        refused = [t for t in times if np.isnan(two_qubit_average(rho4, s, t)).all()]
        assert 0 < len(refused) < len(times) - 1
        out = two_qubit_stack(rho4, s, times, 201)
        assert [t for t, m in zip(times, out) if np.isnan(m).all()] == refused
        assert not np.isnan(out[:len(times) - len(refused)]).any()
        require_valid(out[:len(times) - len(refused)])
        with pytest.raises(ValueError, match="rotation angle") as alone:
            _require_quadrature(s, refused[0], 201)
        with pytest.raises(ValueError, match="rotation angle") as stacked_error:
            _require_quadrature(s, np.array(times), 201)
        assert str(stacked_error.value) == str(alone.value)

    def test_an_empty_stack(self, rho4):
        assert two_qubit_stack(rho4, scenario(1.0, 1.0), [], 201).shape == (0, 4, 4)
