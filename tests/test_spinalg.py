"""Tests for the fixed-size complex matrix kernel."""

import numpy as np
import pytest

from spinboost.spinalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    DensityMatrixError,
    _residuals,
    eigh_descending,
    frobenius_distance,
    pauli_rotation,
    pauli_vector,
    random_density,
    tensor_product,
)


def rotation_matrix_3d(axis, angle):
    """Independent Rodrigues rotation, used as the conjugation-law oracle."""
    axis = np.asarray(axis, dtype=float)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestPauliRotation:
    def test_z_axis_is_diagonal_phase(self):
        delta = 0.7734
        u = pauli_rotation([0, 0, 1], delta)
        expected = np.diag([np.exp(-0.5j * delta), np.exp(0.5j * delta)])
        np.testing.assert_allclose(u, expected, atol=1e-15)

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = pauli_rotation(random_unit_vector(rng), 0.0)
            np.testing.assert_allclose(u, IDENTITY_2, atol=1e-15)

    def test_half_turn_about_x(self):
        u = pauli_rotation([1, 0, 0], np.pi)
        np.testing.assert_allclose(u, -1j * PAULI_X, atol=1e-15)

    def test_inverse_pairs_give_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            axis = random_unit_vector(rng)
            delta = rng.uniform(-10, 10)
            prod = pauli_rotation(axis, delta) @ pauli_rotation(axis, -delta)
            assert frobenius_distance(prod, IDENTITY_2) < 1e-12

    def test_unitary_and_special(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = pauli_rotation(random_unit_vector(rng), rng.uniform(-7, 7))
            np.testing.assert_allclose(u @ u.conj().T, IDENTITY_2, atol=1e-12)
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_conjugation_law_matches_3d_rotation(self):
        # U (sigma.a) U^dag = sigma.(R a) with R the rotation by the same
        # angle about the same axis
        rng = np.random.default_rng(4)
        for _ in range(100):
            axis = random_unit_vector(rng)
            delta = rng.uniform(-6, 6)
            a = rng.normal(size=3)
            u = pauli_rotation(axis, delta)
            lhs = u @ pauli_vector(a) @ u.conj().T
            rhs = pauli_vector(rotation_matrix_3d(axis, delta) @ a)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            pauli_rotation([1, 1, 0], 0.3)


class TestTensorProduct:
    def test_identity_tensor_identity(self):
        np.testing.assert_array_equal(tensor_product(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_zz(self):
        np.testing.assert_array_equal(
            tensor_product(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]).astype(complex)
        )

    def test_shape_contract(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        assert tensor_product(a, b).shape == (4, 4)

    def test_block_structure(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out = tensor_product(a, b)
        np.testing.assert_allclose(out[0:2, 2:4], a[0, 1] * b)

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            tensor_product(np.eye(4), np.eye(2))


class TestFrobeniusDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert frobenius_distance(a, a) == 0.0

    def test_zero_vs_identity(self):
        assert abs(frobenius_distance(np.zeros((2, 2)), np.eye(2)) - np.sqrt(2)) < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert frobenius_distance(a, b) == frobenius_distance(b, a)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            frobenius_distance(np.eye(2), np.eye(4))


class TestValidateDensity:
    def test_maximally_mixed_accepted(self):
        dm = DensityMatrix(np.eye(2) / 2)
        assert dm.dim == 2

    def test_plus_state_accepted(self):
        DensityMatrix(np.full((2, 2), 0.5))

    def test_trace_violation(self):
        with pytest.raises(DensityMatrixError) as err:
            DensityMatrix(np.diag([0.45, 0.45]))
        assert err.value.check == "trace"
        assert abs(err.value.residual - 0.1) < 1e-12

    def test_hermiticity_violation(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(DensityMatrixError) as err:
            DensityMatrix(m)
        assert err.value.check == "hermiticity"
        assert err.value.residual > 0

    def test_positivity_violation(self):
        m = np.array([[0.9, 0.45], [0.45, 0.1]], dtype=complex)  # min eig < 0
        with pytest.raises(DensityMatrixError) as err:
            DensityMatrix(m)
        assert err.value.check == "positivity"

    @pytest.mark.parametrize("m", [np.full((2, 2), np.nan), np.diag([np.nan, 0.5]),
                                   np.array([[0.5, np.nan], [np.nan, 0.5]])])
    def test_nan_rejected(self, m):
        with pytest.raises(DensityMatrixError):
            DensityMatrix(m)

    def test_bad_dimension(self):
        with pytest.raises(DensityMatrixError) as err:
            DensityMatrix(np.eye(3) / 3)
        assert err.value.check == "dimension"

    def test_wrapped_matrix_is_read_only(self):
        dm = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 5.0


def reference_residuals(m):
    hermitian_part = 0.5 * (m + m.conj().T)
    return (np.linalg.norm(m - m.conj().T), abs(np.trace(m) - 1.0),
            np.linalg.eigvalsh(hermitian_part).min())


def random_2x2(rng, kind):
    """A 2x2 complex matrix with entries of a density matrix's size."""
    if kind == "general":  # neither Hermitian nor of unit trace
        return 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    if kind == "density":
        return random_density(rng, 2).matrix
    if kind == "off_trace":
        return rng.uniform(0.5, 1.5) * random_density(rng, 2).matrix
    # unit trace, Hermitian, one negative eigenvalue
    x = rng.uniform(1e-3, 0.5)
    vecs = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    return (vecs * [-x, 1.0 + x]) @ vecs.conj().T


class TestClosedFormResiduals:
    @pytest.mark.parametrize("kind", ["general", "density", "off_trace", "non_psd"])
    def test_matches_eigvalsh_reference(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(500):
            m = random_2x2(rng, kind)
            got = _residuals(m)
            want = reference_residuals(m)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15

    def test_non_psd_case_is_negative(self):
        m = random_2x2(np.random.default_rng(13), "non_psd")
        assert _residuals(m)[2] < -1e-3

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                     complex(0, np.inf), complex(np.inf, np.inf)])
    def test_non_finite_entry_rejected(self, entry, bad):
        m = np.full((2, 2), 0.5, dtype=complex)
        m[entry] = bad
        with pytest.raises(DensityMatrixError):
            DensityMatrix(m)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_huge_finite_entry_rejected_not_overflowing(self, entry):
        m = np.full((2, 2), 0.5, dtype=complex)
        m[entry] = complex(1.5e308, -1.5e308)
        with pytest.raises(DensityMatrixError):
            DensityMatrix(m)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (3, 0), (2, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_4x4(self, entry, bad):
        m = np.eye(4, dtype=complex) / 4
        m[entry] = bad
        with pytest.raises(DensityMatrixError):
            DensityMatrix(m)

    def test_failing_check_and_residual_match_reference(self):
        rng = np.random.default_rng(14)
        for kind, check in (("general", "hermiticity"), ("off_trace", "trace"),
                            ("non_psd", "positivity")):
            for _ in range(50):
                m = random_2x2(rng, kind)
                herm, tr, min_eig = reference_residuals(m)
                if kind == "off_trace" and tr <= 1e-10:
                    continue
                with pytest.raises(DensityMatrixError) as err:
                    DensityMatrix(m)
                assert err.value.check == check
                want = {"hermiticity": herm, "trace": tr, "positivity": -min_eig}[check]
                assert abs(err.value.residual - want) <= 1e-15


class TestEighDescending:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = a + a.conj().T
            vals, vecs = eigh_descending(h)
            rebuilt = (vecs * vals) @ vecs.conj().T
            assert frobenius_distance(rebuilt, h) < 1e-10

    def test_descending_order(self):
        vals, _ = eigh_descending(np.diag([1.0, 3.0, -2.0, 0.5]))
        assert (np.diff(vals) <= 0).all()


class TestRandomDensity:
    @pytest.mark.parametrize("dim,pure", [(2, False), (2, True), (4, False), (4, True)])
    def test_outputs_are_valid(self, dim, pure):
        rng = np.random.default_rng(10)
        for _ in range(10):
            dm = random_density(rng, dim, pure=pure)
            assert dm.dim == dim
            if pure:
                # projector: rho^2 == rho
                m = dm.matrix
                assert frobenius_distance(m @ m, m) < 1e-12
