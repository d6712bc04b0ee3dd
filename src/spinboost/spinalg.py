"""Dense fixed-size complex matrix kernel for spin-1/2 problems.

Pauli algebra, SU(2) rotations in closed form, Kronecker products,
Hermitian eigendecompositions and density-matrix validation. Everything
here works on plain ``numpy`` arrays of dimension 2 or 4; all returned
values are freshly allocated and never alias their inputs, so the
functions are safe to call from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _const(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    a.setflags(write=False)
    return a


PAULI_X = _const([[0, 1], [1, 0]])
PAULI_Y = _const([[0, -1j], [1j, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])
IDENTITY_2 = _const([[1, 0], [0, 1]])

_VALID_DIMS = (2, 4)
_SQRT2 = math.sqrt(2.0)


class DensityMatrixError(ValueError):
    """A matrix failed one of the density-matrix checks.

    Attributes
    ----------
    check : str
        Which check failed: ``"dimension"``, ``"hermiticity"``,
        ``"trace"`` or ``"positivity"``.
    residual : float
        Size of the violation (0 for dimension errors).
    """

    def __init__(self, check: str, residual: float, message: str):
        super().__init__(message)
        self.check = check
        self.residual = float(residual)


def pauli_vector(v) -> np.ndarray:
    """Return v . (sigma_x, sigma_y, sigma_z) for a real or complex 3-vector v."""
    v = np.asarray(v)
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def pauli_rotation(axis, angle: float) -> np.ndarray:
    """SU(2) rotation exp(-i*angle/2 * sigma.axis) in closed form.

    Parameters
    ----------
    axis : array_like, shape (3,)
        Unit rotation axis; |axis| must equal 1 within 1e-12.
    angle : float
        Rotation angle in radians (signed).

    Returns
    -------
    numpy.ndarray
        2x2 unitary cos(angle/2)*I - i*sin(angle/2)*(sigma.axis),
        with determinant 1.
    """
    axis = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(axis))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"rotation axis must be a unit vector, got |axis| = {norm!r}")
    half = 0.5 * angle
    return np.cos(half) * IDENTITY_2 - 1j * np.sin(half) * pauli_vector(axis)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices; block (i,j) is a[i,j]*b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"tensor_product needs two 2x2 matrices, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance sqrt(sum |a_ij - b_ij|^2); zero iff a == b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def eigh_descending(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with eigenvalues sorted descending.

    Returns ``(values, vectors)`` with ``vectors[:, k]`` the eigenvector
    of ``values[k]``. Backed by the deterministic LAPACK solver; the
    input is Hermitian-symmetrised first so that callers may pass
    matrices carrying ~1e-16 floating-point asymmetry.
    """
    m = np.asarray(m, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def _residuals(m: np.ndarray) -> tuple[float, float, float]:
    """Hermiticity residual, trace residual and least eigenvalue of a square ``m``.

    ``|m - m^dag|`` (Frobenius), ``|tr m - 1|`` and the smallest
    eigenvalue of the Hermitian part ``(m + m^dag)/2``. A NaN or infinite
    entry makes the first or second residual NaN or infinite (all three
    NaN for a 4x4 matrix, which is checked before any arithmetic). A 2x2
    matrix [[a, b], [c, d]] is done in closed form: the first residual is
    |(2 Im a, 2 Im d, sqrt2 (b - conj c))|, and the Hermitian part has
    eigenvalues (Re a + Re d)/2 -+ |((Re a - Re d)/2, b')| with
    b' = (b + conj c)/2.
    """
    if m.shape == (2, 2):
        # math.hypot, unlike abs of a complex, gives inf rather than raising on overflow
        a, b, c, d = m.ravel().tolist()
        skew, off, tr = b - c.conjugate(), 0.5 * (b + c.conjugate()), a + d - 1.0
        herm = math.hypot(2.0 * a.imag, 2.0 * d.imag, _SQRT2 * skew.real, _SQRT2 * skew.imag)
        min_eig = 0.5 * (a.real + d.real) - math.hypot(0.5 * (a.real - d.real), off.real, off.imag)
        return herm, math.hypot(tr.real, tr.imag), min_eig
    if not np.isfinite(m).all():
        return math.nan, math.nan, math.nan
    herm = float(np.linalg.norm(m - m.conj().T))
    tr = float(abs(np.trace(m) - 1.0))
    return herm, tr, float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated 2x2 or 4x4 density matrix.

    The wrapped array is checked to be Hermitian, unit trace and
    positive semidefinite within ``tol`` at construction and stored
    read-only. Each check is written so that a NaN residual fails it.
    """

    matrix: np.ndarray
    tol: float = 1e-10
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in _VALID_DIMS:
            raise DensityMatrixError(
                "dimension", 0.0, f"density matrix must be 2x2 or 4x4, got shape {m.shape}"
            )
        herm, tr, min_eig = _residuals(m)
        if not herm <= self.tol:
            raise DensityMatrixError(
                "hermiticity", herm, f"matrix is not Hermitian (residual {herm:.3e})"
            )
        if not tr <= self.tol:
            raise DensityMatrixError("trace", tr, f"trace differs from 1 (residual {tr:.3e})")
        if not min_eig >= -self.tol:
            raise DensityMatrixError(
                "positivity", -min_eig, f"matrix is not positive (min eigenvalue {min_eig:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])


def random_density(rng: np.random.Generator, dim: int = 2, pure: bool = False) -> DensityMatrix:
    """Draw a Haar-ish random density matrix (Wishart construction).

    With ``pure=True`` returns a random pure-state projector instead.
    Intended for property tests and the verification suite.
    """
    if dim not in _VALID_DIMS:
        raise ValueError(f"dim must be one of {_VALID_DIMS}, got {dim}")
    if pure:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        return DensityMatrix(np.outer(psi, psi.conj()))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)
