"""Tests for the fixed-size complex matrix kernel."""

import math
import warnings

import numpy as np
import pytest

from reference import pauli_rotation, random_density, random_unit_vector
from spinboost.spinalg import (IDENTITY_2, PAULI_X, PAULI_Z, DensityMatrix, DensityMatrixError,
                               _invalid, _kron, _matmul, _random_states, _residuals,
                               _states, pauli_vector, require_valid)


def rotation_matrix_3d(axis, angle):
    """Independent Rodrigues rotation, used as the conjugation-law oracle."""
    axis = np.asarray(axis, dtype=float)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


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
            assert np.linalg.norm(prod - IDENTITY_2) < 1e-12

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

    @pytest.mark.parametrize("axis", [[math.nan, 0, 0], [0, 0, math.inf], [math.nan] * 3])
    def test_non_finite_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="unit vector"):
            pauli_rotation(axis, 0.3)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"rotation angle must be finite, got {angle!r}$"):
                pauli_rotation([0, 0, 1], angle)


class TestTensorProduct:
    def test_identity_tensor_identity(self):
        np.testing.assert_array_equal(_kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_zz(self):
        np.testing.assert_array_equal(_kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))

    def test_shape_contract(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        assert _kron(a, b).shape == (4, 4)
        assert _kron(np.stack([a, b]), b).shape == (2, 4, 4)

    def test_block_structure(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out = _kron(a, b)
        np.testing.assert_allclose(out[0:2, 2:4], a[0, 1] * b)
        np.testing.assert_array_equal(out, np.kron(a, b))


class TestValidateDensity:
    def test_maximally_mixed_accepted(self):
        dm = DensityMatrix(np.eye(2) / 2)
        assert dm.matrix.shape == (2, 2)

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
        return random_density(rng, 2)
    if kind == "off_trace":
        return rng.uniform(0.5, 1.5) * random_density(rng, 2)
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


def per_matrix_check(m, tol=1e-10):
    """The first check a 2x2 matrix fails, '' for none: one matrix at a time,
    in Python complex arithmetic with math.hypot."""
    a, b, c, d = m.ravel().tolist()
    skew, off, tr = b - c.conjugate(), 0.5 * (b + c.conjugate()), a + d - 1.0
    herm = math.hypot(2.0 * a.imag, 2.0 * d.imag, math.sqrt(2.0) * skew.real,
                      math.sqrt(2.0) * skew.imag)
    min_eig = 0.5 * (a.real + d.real) - math.hypot(0.5 * (a.real - d.real), off.real, off.imag)
    if not herm <= tol:
        return "hermiticity"
    if not math.hypot(tr.real, tr.imag) <= tol:
        return "trace"
    if not min_eig >= -tol:
        return "positivity"
    return ""


def stacked_checks(stack, tol=1e-10):
    """The first check each matrix of a stack fails, from the stacked residuals."""
    herm, tr, min_eig = _residuals(stack)
    return np.where(~(herm <= tol), "hermiticity",
                    np.where(~(tr <= tol), "trace", np.where(~(min_eig >= -tol), "positivity", "")))


def edge_stack(rng):
    """Valid states, and copies with non-finite entries or a violation at 2e-10 or 5e-11."""
    states = [random_density(rng, 2, pure=bool(k % 2)) for k in range(60)]
    out = list(states)
    for k, m in enumerate(states):
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, -np.inf)):
            broken = m.copy()
            broken[divmod(k % 4, 2)] = bad
            out.append(broken)
        for eps in (2e-10, 5e-11):
            skewed = m.copy()
            skewed[0, 1] += eps  # off-Hermitian by eps
            off_trace = m.copy()
            off_trace[k % 2, k % 2] += eps
            out.extend([skewed, off_trace])
    for eps in (2e-10, 5e-11):  # unit trace, Hermitian, least eigenvalue -eps
        for _ in range(60):
            vecs = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            out.append((vecs * [-eps, 1.0 + eps]) @ vecs.conj().T)
    return np.array(out)


def bits(x):
    return np.asarray(x, dtype=float).reshape(-1).view(np.uint64).tolist()


class TestStackedResiduals:
    def test_verdicts_and_kinds_match_the_per_matrix_check(self):
        stack = edge_stack(np.random.default_rng(15))
        want = [per_matrix_check(m) for m in stack]
        assert {"", "hermiticity", "trace", "positivity"} <= set(want)
        assert stacked_checks(stack).tolist() == want
        assert _invalid(stack).tolist() == [kind != "" for kind in want]
        for m, kind in zip(stack, want):
            if kind:
                with pytest.raises(DensityMatrixError) as err:
                    DensityMatrix(m)
                assert err.value.check == kind
            else:
                DensityMatrix(m)

    def test_the_shape_of_the_stack_does_not_matter(self):
        # the same bits per matrix: one at a time, reshaped, reversed
        stack = edge_stack(np.random.default_rng(16))[:-4]
        flat = [bits(r) for r in _residuals(stack)]
        assert [bits(r.ravel()) for r in _residuals(stack.reshape(-1, 4, 2, 2))] == flat
        assert [bits(r[::-1]) for r in _residuals(stack[::-1])] == flat
        for k in (0, 3, 100, len(stack) - 1):
            assert [bits(r)[0] for r in _residuals(stack[k])] == [f[k] for f in flat]

    def test_random_valid_states_pass(self):
        rng = np.random.default_rng(17)
        stack = np.array([random_density(rng, 2, pure=bool(k % 3)) for k in range(500)])
        assert not _invalid(stack).any()
        assert _invalid(stack[:0]).shape == (0,)


def per_matrix_check_4x4(m, tol=1e-10):
    """The first check a 4x4 matrix fails, '' for none: one matrix at a time,
    each residual taken only once the checks before it pass."""
    if not np.isfinite(m).all():
        return "hermiticity"
    with np.errstate(over="ignore"):
        if not np.linalg.norm(m - m.conj().T) <= tol:
            return "hermiticity"
        if not abs(np.trace(m) - 1.0) <= tol:
            return "trace"
        if not np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() >= -tol:
            return "positivity"
    return ""


def edge_stack_4x4(rng):
    """Valid 4x4 states, and copies with a non-finite or huge entry or a
    violation at 2e-10 or 5e-11."""
    states = [random_density(rng, 4, pure=bool(k % 2)) for k in range(30)]
    out = list(states)
    for k, m in enumerate(states):
        for bad in (np.nan, np.inf, complex(0, -np.inf), 1.5e308):
            broken = m.copy()
            broken[divmod(k % 16, 4)] = bad
            out.append(broken)
        for eps in (2e-10, 5e-11):
            skewed = m.copy()
            skewed[k % 3, 3] += eps
            off_trace = m.copy()
            off_trace[k % 4, k % 4] += eps
            vecs = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            negative = (vecs * [-eps, 0.25, 0.25, 0.5 + eps]) @ vecs.conj().T
            out.extend([skewed, off_trace, negative])
    return np.array(out)


class TestStackedResiduals4x4:
    def test_verdicts_and_kinds_match_the_per_matrix_check(self):
        stack = edge_stack_4x4(np.random.default_rng(18))
        want = [per_matrix_check_4x4(m) for m in stack]
        assert {"", "hermiticity", "trace", "positivity"} <= set(want)
        assert stacked_checks(stack).tolist() == want
        assert _invalid(stack).tolist() == [kind != "" for kind in want]
        for m, kind in zip(stack, want):
            if kind:
                with pytest.raises(DensityMatrixError) as err:
                    DensityMatrix(m)
                assert err.value.check == kind
            else:
                DensityMatrix(m)

    def test_the_shape_of_the_stack_does_not_matter(self):
        stack = edge_stack_4x4(np.random.default_rng(19))[:-2]
        flat = [bits(r) for r in _residuals(stack)]
        assert [bits(r.ravel()) for r in _residuals(stack.reshape(-1, 4, 4, 4))] == flat
        assert [bits(r[::-1]) for r in _residuals(stack[::-1])] == flat
        for k in (0, 3, 100, len(stack) - 1):
            assert [bits(r)[0] for r in _residuals(stack[k])] == [f[k] for f in flat]

    def test_empty_stack(self):
        assert _invalid(np.zeros((0, 4, 4), dtype=complex)).shape == (0,)


class TestRequireValid:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_first_invalid_matrix_raises_its_own_error(self, dim):
        rng = np.random.default_rng(20 + dim)
        stack = _random_states(rng.standard_normal((12, 2 * dim * dim)), dim, False)
        stack = stack.reshape(3, 4, dim, dim)
        require_valid(stack)
        stack[1, 2] *= 1.001  # trace
        stack[2, 0, 0, -1] += 0.1j  # Hermiticity, later in the stack
        with pytest.raises(DensityMatrixError) as err:
            require_valid(stack)
        with pytest.raises(DensityMatrixError) as alone:
            DensityMatrix(stack[1, 2])
        assert (err.value.check, str(err.value)) == ("trace", str(alone.value))

    def test_nan_and_empty_stacks(self):
        require_valid(np.zeros((0, 2, 2), dtype=complex))
        with pytest.raises(DensityMatrixError, match="not Hermitian"):
            require_valid(np.full((3, 2, 2), np.nan, dtype=complex))


class TestRandomDensity:
    @pytest.mark.parametrize("dim,pure", [(2, False), (2, True), (4, False), (4, True)])
    def test_outputs_are_valid(self, dim, pure):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m = random_density(rng, dim, pure=pure)
            assert m.shape == (dim, dim)
            require_valid(m)
            if pure:
                # projector: rho^2 == rho
                assert np.linalg.norm(m @ m - m) < 1e-12

    @pytest.mark.parametrize("dim,pure", [(2, False), (2, True), (4, False), (4, True)])
    def test_unvalidated_draw_is_the_same_matrix(self, dim, pure):
        # the sampler on the next normals, and the same stream afterwards
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(5):
            m = _random_states(rng_a.standard_normal(2 * dim * (1 if pure else dim)), dim, pure)
            assert bits(m.view(float)) == bits(random_density(rng_b, dim, pure).view(float))
        assert rng_a.random() == rng_b.random()


def cbits(x):
    """The bits of a complex array, real and imaginary parts in turn."""
    return bits(np.ascontiguousarray(x, dtype=complex).view(float))


class TestRandomStates:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_pure_states_have_purity_one(self, dim):
        rhos = _random_states(np.random.default_rng(40).standard_normal((2000, 2 * dim)), dim, True)
        purity = np.einsum("kij,kji->k", rhos, rhos).real
        assert np.abs(purity - 1.0).max() <= 1e-15

    def test_mean_mixed_purity_is_the_hilbert_schmidt_mean(self):
        # E tr rho^2 = 2N / (N^2 + 1) = 4/5 for Hilbert-Schmidt qubit states
        # (Zyczkowski & Sommers, J. Phys. A 34, 7111, 2001)
        rhos = _random_states(np.random.default_rng(41).standard_normal((20_000, 8)), 2, False)
        purity = np.einsum("kij,kji->k", rhos, rhos).real
        stderr = purity.std(ddof=1) / math.sqrt(len(purity))
        assert abs(purity.mean() - 0.8) <= 5.0 * stderr

    @pytest.mark.parametrize("dim", [2, 4])
    def test_every_draw_is_a_valid_state(self, dim):
        g = np.random.default_rng(42 + dim).standard_normal((3000, 2 * dim * dim))
        pure = np.arange(3000) % 3 == 0
        rhos = _random_states(g, dim, pure)
        assert rhos.shape == (3000, dim, dim)
        require_valid(rhos)
        assert not _invalid(rhos).any()

    def test_each_row_has_the_bits_it_has_alone(self):
        # a pure row reads its first 2 dim normals and ignores the rest
        g = np.random.default_rng(45).standard_normal((50, 8))
        pure = np.random.default_rng(46).random(50) < 0.5
        rhos = _random_states(g, 2, pure)
        for k in (0, 1, 17, 49):
            row = g[k, :4] if pure[k] else g[k]
            assert cbits(_random_states(row, 2, bool(pure[k]))) == cbits(rhos[k])



class TestBroadcastProducts:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_matmul(self, dim):
        re, im = np.random.default_rng(48).standard_normal((2, 2, 15, dim, dim))
        a, b = re + 1j * im
        assert np.abs(_matmul(a, b) - a @ b).max() <= 1e-14
        # stacks broadcast against each other and against one matrix
        assert np.abs(_matmul(a[:, :1], b) - a[:, :1] @ b).max() <= 1e-14
        assert np.abs(_matmul(np.eye(dim), b) - b).max() == 0.0

    def test_a_2x2_product_adds_its_two_terms_in_order(self):
        a, b = np.random.default_rng(49).standard_normal((2, 100, 2, 2)) * (1.0 + 0.5j)
        ref = a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]
        assert cbits(_matmul(a, b)) == cbits(ref)


class TestStatesConversion:
    def test_a_complex_array_is_returned_itself(self):
        a = np.eye(2, dtype=complex)
        assert _states(a, 2, "x") is a

    def test_other_input_is_converted_to_a_new_complex_array(self):
        a = np.eye(2)
        m = _states(a, 2, "x")
        assert m.dtype == complex and not np.shares_memory(m, a)
        assert _states([[1, 0], [0, 0]], 2, "x").dtype == complex
