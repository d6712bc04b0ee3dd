"""Tests for Choi construction, CPTP verification and Kraus extraction."""

import math

import numpy as np
import pytest

from spinboost.analysis import (
    ChoiMatrix,
    CompletePositivityError,
    InvalidMapError,
    choi_of,
    kraus_from_choi,
    kraus_to_choi,
    partial_trace_output,
    verify_cptp,
)
from spinboost.channel import NoiseSpec, Scenario, evolve_elementwise, operator_sum_apply
from spinboost.oracle import average_quadrature
from spinboost.relkin import BoostParams
from spinboost.spinalg import PAULI_Z, DensityMatrix, frobenius_distance


def identity_map(m):
    return np.array(m, dtype=complex)


def z_conjugation(m):
    return PAULI_Z @ m @ PAULI_Z


def dephasing_map(p0, p1):
    return lambda m: p0 * np.asarray(m, dtype=complex) + p1 * (PAULI_Z @ m @ PAULI_Z)


def boosted_map(s, t):
    return lambda m: evolve_elementwise(DensityMatrix(m), s, t).matrix


def scenario(xi, theta, phi=0.0):
    return Scenario(BoostParams(xi=xi, theta=theta, phi=phi), NoiseSpec.from_gamma(1.0))


class TestChoiOf:
    def test_identity_channel(self):
        c = choi_of(identity_map)
        vals = np.linalg.eigvalsh(c.matrix)
        np.testing.assert_allclose(sorted(vals), [0, 0, 0, 2], atol=1e-12)
        np.testing.assert_allclose(c.matrix, kraus_to_choi([np.eye(2)]), atol=1e-12)

    def test_pure_dephasing_eigenvalues(self):
        p0, p1 = 0.85, 0.15
        c = choi_of(dephasing_map(p0, p1))
        vals = sorted(np.linalg.eigvalsh(c.matrix))
        np.testing.assert_allclose(vals, [0, 0, 2 * p1, 2 * p0], atol=1e-12)
        # brute-force oracle: assemble the Choi from the known Kraus set
        oracle = kraus_to_choi([math.sqrt(p0) * np.eye(2), math.sqrt(p1) * PAULI_Z])
        assert frobenius_distance(c.matrix, oracle) < 1e-12

    def test_unitary_conjugation_rank_one(self):
        c = choi_of(z_conjugation)
        vals = np.linalg.eigvalsh(c.matrix)
        np.testing.assert_allclose(sorted(vals), [0, 0, 0, 2], atol=1e-12)

    def test_trace_two(self):
        c = choi_of(boosted_map(scenario(2.0, 0.8, 0.5), 0.9))
        assert abs(np.trace(c.matrix) - 2.0) < 1e-12

    def test_nonlinear_map_rejected(self):
        def squared(m):
            m = np.asarray(m, dtype=complex)
            out = m @ m
            return out / np.trace(out)

        with pytest.raises(InvalidMapError):
            choi_of(squared)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            ChoiMatrix(np.eye(2))


class TestVerifyCptp:
    def test_boosted_channel_is_cptp(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 2)
            report = verify_cptp(choi_of(boosted_map(s, t)), tol=1e-10)
            assert report.verdict, str(report)

    def test_transpose_map_fails_cp(self):
        c = choi_of(lambda m: np.asarray(m).T.copy())
        report = verify_cptp(c, tol=1e-10)
        assert not report.cp_ok
        assert abs(report.min_eigenvalue + 1.0) < 1e-12
        assert report.tp_ok  # transpose is trace preserving

    def test_dephasing_tp_residual(self):
        report = verify_cptp(choi_of(dephasing_map(0.7, 0.3)))
        assert report.tp_residual < 1e-14

    def test_partial_trace_output(self):
        c = choi_of(identity_map)
        np.testing.assert_allclose(partial_trace_output(c), np.eye(2), atol=1e-14)


class TestKrausFromChoi:
    def test_identity_channel_single_kraus(self):
        ops = kraus_from_choi(choi_of(identity_map))
        assert len(ops) == 1
        k = ops[0]
        phase = k[0, 0] / abs(k[0, 0])
        np.testing.assert_allclose(k / phase, np.eye(2), atol=1e-12)

    def test_dephasing_two_kraus_with_weights(self):
        p0, p1 = 0.8, 0.2
        ops = kraus_from_choi(choi_of(dephasing_map(p0, p1)))
        assert len(ops) == 2
        weights = sorted(float(np.trace(k.conj().T @ k).real) / 2.0 for k in ops)
        np.testing.assert_allclose(weights, [p1, p0], atol=1e-12)

    def test_boosted_channel_completeness_and_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0.1, 2)
            c = choi_of(boosted_map(s, t))
            ops = kraus_from_choi(c)
            assert len(ops) <= 4
            completeness = sum(k.conj().T @ k for k in ops)
            assert frobenius_distance(completeness, np.eye(2)) < 1e-9
            assert frobenius_distance(kraus_to_choi(ops), c.matrix) < 1e-9

    def test_refuses_non_cp(self):
        c = choi_of(lambda m: np.asarray(m).T.copy())
        with pytest.raises(CompletePositivityError) as err:
            kraus_from_choi(c)
        assert err.value.min_eigenvalue < -0.9


class TestChannelDistance:
    def test_self_distance_zero(self):
        c = choi_of(identity_map)
        assert frobenius_distance(c.matrix, c.matrix) == 0.0

    def test_analytic_vs_oracle_channel(self):
        s = scenario(2.5, 0.6, 1.1)
        t = 0.4
        analytic = choi_of(boosted_map(s, t))
        numeric = choi_of(lambda m: average_quadrature(DensityMatrix(m), s, t).matrix)
        assert frobenius_distance(analytic.matrix, numeric.matrix) < 1e-8

    def test_identity_vs_z_conjugation(self):
        # the two Choi matrices are orthogonal rank-one projectors with
        # eigenvalue 2, so the Frobenius distance is sqrt(4+4) = 2 sqrt(2)
        d = frobenius_distance(choi_of(identity_map).matrix, choi_of(z_conjugation).matrix)
        assert abs(d - 2.0 * math.sqrt(2.0)) < 1e-12
        brute = frobenius_distance(kraus_to_choi([np.eye(2)]), kraus_to_choi([PAULI_Z]))
        assert abs(d - brute) < 1e-12


class TestDecompositionChoiAgreement:
    def test_signed_weights_define_same_channel_as_canonical_kraus(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = scenario(rng.uniform(0, 3), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 2)
            signed = choi_of(lambda m: operator_sum_apply(DensityMatrix(m), s, t).matrix)
            canonical = kraus_to_choi(kraus_from_choi(signed))
            assert frobenius_distance(signed.matrix, canonical) < 1e-10

    def test_cptp_on_coarse_grid(self):
        for xi in np.linspace(0, 3, 4):
            for theta in np.linspace(0, math.pi / 2, 4):
                s = scenario(float(xi), float(theta))
                for g_t2 in (0.0, 2.5, 5.0):
                    report = verify_cptp(choi_of(boosted_map(s, math.sqrt(g_t2))))
                    assert report.min_eigenvalue >= -1e-10
                    assert report.tp_residual < 1e-12
