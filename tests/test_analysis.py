"""Tests for Choi construction and CPTP figures on stacks, and for what they imply of the
canonical Kraus set (built by the test-side reference)."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import kraus_from_choi, kraus_residuals, kraus_to_choi, scenario
from spinboost.analysis import PROBES, choi_diagnostics, choi_stack
from spinboost.channel import evolve_elementwise, operator_sum_apply
from spinboost.oracle import average_quadrature
from spinboost.spinalg import PAULI_X, PAULI_Z, require_valid

TOL = 1e-10


def identity_map(m):
    return np.array(m, dtype=complex)


def z_conjugation(m):
    return PAULI_Z @ m @ PAULI_Z


def dephasing_map(p0, p1):
    return lambda m: p0 * np.asarray(m, dtype=complex) + p1 * (PAULI_Z @ m @ PAULI_Z)


def skew_map(m):
    """rho -> rho + 0.3i sigma_x tr(rho): trace preserving, but its Choi matrix is not Hermitian."""
    m = np.asarray(m, dtype=complex)
    return m + 0.3j * PAULI_X * np.trace(m)


def transpose_map(m):
    return np.asarray(m).T.copy()


def images_of(map_fn):
    """The images (6, 2, 2) of the probe states under ``map_fn``."""
    return np.array([map_fn(p) for p in PROBES])


def choi_of(images):
    """The Choi matrix of one map's probe images, which must be linear within TOL."""
    c, linearity = choi_stack(images)
    assert linearity.max() <= TOL
    return c


def boosted_images(s, t):
    images = evolve_elementwise(PROBES, s, t)
    require_valid(images)
    return images


def cptp(d, tol=TOL):
    """(CP, TP) verdicts of a ChoiDiagnostics of one map."""
    return bool(d.min_eigenvalue >= -tol and d.herm_residual <= tol), bool(d.tp_residual <= tol)


class TestChoiOf:
    def test_identity_channel(self):
        c = choi_of(images_of(identity_map))
        vals = np.linalg.eigvalsh(c)
        np.testing.assert_allclose(sorted(vals), [0, 0, 0, 2], atol=1e-12)
        np.testing.assert_allclose(c, kraus_to_choi([np.eye(2)]), atol=1e-12)

    def test_pure_dephasing_eigenvalues(self):
        p0, p1 = 0.85, 0.15
        c = choi_of(images_of(dephasing_map(p0, p1)))
        vals = sorted(np.linalg.eigvalsh(c))
        np.testing.assert_allclose(vals, [0, 0, 2 * p1, 2 * p0], atol=1e-12)
        # brute-force oracle: assemble the Choi from the known Kraus set
        oracle = kraus_to_choi([math.sqrt(p0) * np.eye(2), math.sqrt(p1) * PAULI_Z])
        assert np.linalg.norm(c - oracle) < 1e-12

    def test_unitary_conjugation_rank_one(self):
        c = choi_of(images_of(z_conjugation))
        vals = np.linalg.eigvalsh(c)
        np.testing.assert_allclose(sorted(vals), [0, 0, 0, 2], atol=1e-12)

    def test_trace_two(self):
        c = choi_of(boosted_images(scenario(2.0, 0.8, 0.5), 0.9))
        assert abs(np.trace(c) - 2.0) < 1e-12

    def test_nonlinear_map_rejected(self):
        def squared(m):
            m = np.asarray(m, dtype=complex)
            out = m @ m
            return out / np.trace(out)

        _, linearity = choi_stack(images_of(squared))
        assert not linearity.max() <= TOL

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            choi_diagnostics(np.eye(2))
        with pytest.raises(ValueError):
            choi_stack(np.eye(2))


class TestVerifyCptp:
    def test_boosted_channel_is_cptp(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 2)
            d = choi_diagnostics(choi_of(boosted_images(s, t)))
            assert cptp(d) == (True, True), (d.min_eigenvalue, d.herm_residual, d.tp_residual)

    def test_transpose_map_fails_cp(self):
        d = choi_diagnostics(choi_of(images_of(transpose_map)))
        cp_ok, tp_ok = cptp(d)
        assert not cp_ok
        assert abs(d.min_eigenvalue + 1.0) < 1e-12
        assert tp_ok  # transpose is trace preserving

    def test_dephasing_tp_residual(self):
        d = choi_diagnostics(choi_of(images_of(dephasing_map(0.7, 0.3))))
        assert d.tp_residual < 1e-14

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_choi_gives_nan_eigenvalues(self, bad):
        # the finite maps of a stack keep the bits they get alone
        c = choi_of(images_of(dephasing_map(0.7, 0.3)))
        broken = c.copy()
        broken[1, 2] = bad
        d = choi_diagnostics(np.stack([broken, c, np.full((4, 4), bad)]))
        alone = choi_diagnostics(c)
        assert np.isnan(d.min_eigenvalue[[0, 2]]).all()
        assert not (d.min_eigenvalue[[0, 2]] >= -TOL).any()  # so no CP verdict passes
        assert d.min_eigenvalue[1] == alone.min_eigenvalue
        assert d.tp_residual[1] == alone.tp_residual and d.herm_residual[1] == alone.herm_residual


class TestKrausFromChoi:
    """The test-side Kraus reference on maps whose Kraus sets are known."""

    def test_identity_channel_single_kraus(self):
        ops = kraus_from_choi(choi_of(images_of(identity_map)))
        assert len(ops) == 1
        k = ops[0]
        phase = k[0, 0] / abs(k[0, 0])
        np.testing.assert_allclose(k / phase, np.eye(2), atol=1e-12)

    def test_dephasing_two_kraus_with_weights(self):
        p0, p1 = 0.8, 0.2
        ops = kraus_from_choi(choi_of(images_of(dephasing_map(p0, p1))))
        assert len(ops) == 2
        weights = sorted(float(np.trace(k.conj().T @ k).real) / 2.0 for k in ops)
        np.testing.assert_allclose(weights, [p1, p0], atol=1e-12)

    def test_boosted_channel_completeness_and_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0.1, 2)
            c = choi_of(boosted_images(s, t))
            assert cptp(choi_diagnostics(c))[0]
            ops = kraus_from_choi(c)
            assert len(ops) <= 4
            completeness = sum(k.conj().T @ k for k in ops)
            assert np.linalg.norm(completeness - np.eye(2)) < 1e-9
            assert np.linalg.norm(kraus_to_choi(ops) - c) < 1e-9

    def test_refuses_non_cp(self):
        d = choi_diagnostics(choi_of(images_of(transpose_map)))
        assert not cptp(d)[0]
        assert d.min_eigenvalue < -0.9


class TestChannelDistance:
    def test_self_distance_zero(self):
        c = choi_of(images_of(identity_map))
        assert np.linalg.norm(c - c) == 0.0

    def test_analytic_vs_oracle_channel(self):
        s = scenario(2.5, 0.6, 1.1)
        t = 0.4
        analytic = choi_of(boosted_images(s, t))
        quadrature = average_quadrature(PROBES, s, t)
        require_valid(quadrature)
        numeric = choi_of(quadrature)
        assert np.linalg.norm(analytic - numeric) < 1e-8

    def test_identity_vs_z_conjugation(self):
        # the two Choi matrices are orthogonal rank-one projectors with
        # eigenvalue 2, so the Frobenius distance is sqrt(4+4) = 2 sqrt(2)
        d = np.linalg.norm(choi_of(images_of(identity_map)) - choi_of(images_of(z_conjugation)))
        assert abs(d - 2.0 * math.sqrt(2.0)) < 1e-12
        brute = np.linalg.norm(kraus_to_choi([np.eye(2)]) - kraus_to_choi([PAULI_Z]))
        assert abs(d - brute) < 1e-12


class TestDecompositionChoiAgreement:
    def test_signed_weights_define_same_channel_as_canonical_kraus(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 2)
            images = operator_sum_apply(PROBES, s, t)
            require_valid(images)
            signed = choi_of(images)
            d = choi_diagnostics(signed)
            assert cptp(d)[0]
            canonical = kraus_to_choi(kraus_from_choi(signed))
            assert np.linalg.norm(signed - canonical) < 1e-10

    def test_cptp_on_coarse_grid(self):
        for xi in np.linspace(0, 3, 4):
            for theta in np.linspace(0, math.pi / 2, 4):
                s = scenario(float(xi), float(theta))
                for g_t2 in (0.0, 2.5, 5.0):
                    d = choi_diagnostics(choi_of(boosted_images(s, math.sqrt(g_t2))))
                    assert d.min_eigenvalue >= -1e-10
                    assert d.tp_residual < 1e-12


class TestHermiticity:
    def test_non_hermitian_choi_fails_cp(self):
        d = choi_diagnostics(choi_of(images_of(skew_map)))
        cp_ok, tp_ok = cptp(d)
        # its Hermitian part alone looks CPTP; the skew part is what fails it
        assert d.min_eigenvalue >= -1e-10
        assert tp_ok
        assert abs(d.herm_residual - 1.2) < 1e-12
        assert not cp_ok and not (cp_ok and tp_ok)

    def test_kraus_refuses_non_hermitian_choi(self):
        d = choi_diagnostics(choi_of(images_of(skew_map)))
        assert not d.herm_residual <= TOL
        assert abs(d.herm_residual - 1.2) < 1e-12

    def test_hermitian_control_passes(self):
        c = choi_of(images_of(dephasing_map(0.75, 0.25)))
        d = choi_diagnostics(c)
        assert d.herm_residual == 0.0
        assert cptp(d) == (True, True)
        assert len(kraus_from_choi(c)) == 2

    def test_stacked_path_applies_the_same_rule(self):
        images = [[skew_map(p) for p in PROBES], [dephasing_map(0.75, 0.25)(p) for p in PROBES]]
        c, _ = choi_stack(images)
        d = choi_diagnostics(c)
        assert abs(d.herm_residual[0] - 1.2) < 1e-12
        assert d.herm_residual[1] == 0.0


class TestStackedAgreesWithPerMap:
    def maps(self):
        """Probe images of the boosted channel at a seeded sample of verify's CPTP grid
        points, then of the transpose map."""
        rng = np.random.default_rng(21)
        xis, thetas, g_t2 = np.linspace(0, 3, 10), np.linspace(0, math.pi / 2, 10), np.linspace(0, 5, 5)
        out = []
        for _ in range(25):
            s = scenario(float(rng.choice(xis)), float(rng.choice(thetas)))
            out.append(boosted_images(s, math.sqrt(float(rng.choice(g_t2)))))
        return out + [images_of(transpose_map)]

    def test_choi_cptp_and_kraus_figures_equal(self):
        # each map of a stack gets the figures that a stack of one gives it, and the
        # reference's Kraus set of each CP map is complete and reassembles its Choi matrix
        maps = self.maps()
        c, linearity = choi_stack(maps)
        d = choi_diagnostics(c)
        assert c.shape == (26, 4, 4) and linearity.shape == (26, 2)
        assert (linearity <= 1e-10).all()
        for k, images in enumerate(maps):
            choi = choi_of(images)
            np.testing.assert_array_equal(c[k], choi)
            alone = choi_diagnostics(choi)
            assert d.min_eigenvalue[k] == alone.min_eigenvalue
            assert d.tp_residual[k] == alone.tp_residual
            assert d.herm_residual[k] == alone.herm_residual
            complete, reassembled = kraus_residuals(choi)
            if k == len(maps) - 1:  # the transpose map
                assert not cptp(alone)[0]
                # the dropped negative eigenvalue leaves the Kraus set incomplete
                assert complete > 0.5 and reassembled > 0.5
            else:
                assert complete < 1e-9 and reassembled < 1e-9


def rules_pass(d) -> bool:
    """The three CPTP rules of ``verify``'s cptp_grid, at its tolerances."""
    return bool(d.min_eigenvalue >= -1e-10 and d.tp_residual < 1e-12 and d.herm_residual <= 1e-10)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(xi=st.floats(0.0, 3.0), theta=st.floats(0.0, math.pi), g=st.floats(0.0, 5.0),
       scale=st.floats(-16.0, -6.0), hermitian=st.booleans(), trace_free=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(xi=0.0, theta=0.0, g=0.0, scale=-10.0, hermitian=True, trace_free=True, seed=0)
@example(xi=2.0, theta=0.0, g=1.0, scale=-10.3, hermitian=True, trace_free=True, seed=1)
def test_three_rules_imply_both_kraus_identities(xi, theta, g, scale, hermitian, trace_free,
                                                 seed):
    # A channel's Choi matrix, perturbed at 10**scale (Hermitian, with no trace-out part,
    # or neither), then held to the eigenvalue, TP and Hermiticity rules. Where all
    # three pass, the canonical Kraus set is complete and reassembles C within 1e-9:
    # sum K^dag K is tr_out of the kept part of (C + C^dag)/2, and Choi(K) that part.
    c = choi_of(boosted_images(scenario(xi, theta, 0.7), math.sqrt(g)))
    re, im = np.random.default_rng(seed).standard_normal((2, 4, 4))
    noise = re + 1j * im
    noise = 0.5 * (noise + noise.conj().T) if hermitian else noise
    if trace_free:  # tr_out of I (x) M is 2M
        noise = noise - np.kron(np.eye(2), noise[0::2, 0::2] + noise[1::2, 1::2]) / 2.0
    c = c + 10.0**scale * noise
    assume(rules_pass(choi_diagnostics(c)))
    complete, reassembled = kraus_residuals(c)
    assert complete < 1e-9 and reassembled < 1e-9
