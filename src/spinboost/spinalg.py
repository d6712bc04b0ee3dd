"""Dense fixed-size complex matrix kernel for spin-1/2 problems.

Pauli algebra, SU(2) rotations in closed form, Kronecker products,
broadcast products of stacked matrices, adjoints and Hermitian parts,
random states and density-matrix validation. Everything here works on
plain ``numpy`` arrays of dimension 2 or 4, or stacks of them (..., 2, 2)
or (..., 4, 4). Returned values are freshly allocated and never alias
their inputs, with one exception: ``_states`` returns its argument itself
when that is already a complex array, so its callers only read it.
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
# Tolerance of DensityMatrix and of the stacked verdict ``_invalid``.
_TOL = 1e-10


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
    """Return v . (sigma_x, sigma_y, sigma_z), (..., 2, 2), for real or complex
    3-vectors v (..., 3)."""
    v = np.asarray(v)[..., None, None]
    return v[..., 0, :, :] * PAULI_X + v[..., 1, :, :] * PAULI_Y + v[..., 2, :, :] * PAULI_Z


def pauli_rotation(axis, angle: float) -> np.ndarray:
    """SU(2) rotation exp(-i*angle/2 * sigma.axis) in closed form.

    Parameters
    ----------
    axis : array_like, shape (3,)
        Unit rotation axis; |axis| must equal 1 within 1e-12.
    angle : float
        Rotation angle in radians (signed, finite).

    Returns
    -------
    numpy.ndarray
        2x2 unitary cos(angle/2)*I - i*sin(angle/2)*(sigma.axis),
        with determinant 1.
    """
    axis = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(axis))
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"rotation axis must be a unit vector, got |axis| = {norm!r}")
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of stacked 2x2 or 4x4 matrices, broadcast in place of one BLAS call
    per matrix: the terms a_ij b_jk are added in the order of j."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def _dagger(m: np.ndarray) -> np.ndarray:
    """Adjoints of a stack of matrices (..., d, d)."""
    return m.conj().swapaxes(-1, -2)


def _hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian parts (m + m^dag)/2 of a stack of matrices (..., d, d)."""
    return 0.5 * (m + _dagger(m))


def _residuals(m: np.ndarray):
    """Hermiticity residual, trace residual and least eigenvalue of ``m``.

    ``|m - m^dag|`` (Frobenius), ``|tr m - 1|`` and the smallest
    eigenvalue of the Hermitian part ``(m + m^dag)/2``, for each matrix
    of a stack (..., 2, 2) or (..., 4, 4), which gives arrays of shape
    (...), or for one such matrix. A NaN or infinite entry makes the
    first or second residual NaN or infinite (all three NaN for a 4x4
    matrix, whose eigenvalues are taken only where its Hermitian part is
    finite). A 2x2 matrix [[a, b], [c, d]] is done in closed form: the
    first residual is |(2 Im a, 2 Im d, sqrt2 (b - conj c))|, and the
    Hermitian part has eigenvalues (Re a + Re d)/2 -+ |((Re a - Re d)/2, b')|
    with b' = (b + conj c)/2. A 4x4 matrix gets the bits it gets alone,
    from numpy's stacked LAPACK eigensolver.
    """
    if m.shape[-2:] == (2, 2):
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        # hypot, unlike abs of a complex, gives inf rather than overflowing
        # in a square; non-finite entries give NaN or inf, which fail
        with np.errstate(all="ignore"):
            c_bar = c.conj()
            skew, off, tr = b - c_bar, 0.5 * (b + c_bar), a + d - 1.0
            herm = np.hypot(np.hypot(2.0 * a.imag, 2.0 * d.imag),
                            _SQRT2 * np.hypot(skew.real, skew.imag))
            min_eig = 0.5 * (a.real + d.real) - np.hypot(np.hypot(0.5 * (a.real - d.real),
                                                                  off.real), off.imag)
            return herm, np.hypot(tr.real, tr.imag), min_eig
    with np.errstate(all="ignore"):
        skew, part = m - _dagger(m), _hermitize(m)
        herm = np.sqrt((skew.real**2 + skew.imag**2).sum(axis=(-2, -1)))
        tr = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    finite = np.isfinite(part).all(axis=(-2, -1))
    min_eig = np.full(finite.shape, math.nan)
    min_eig[finite] = np.linalg.eigvalsh(part[finite])[..., 0]
    entries_finite = np.isfinite(m).all(axis=(-2, -1))
    return (np.where(entries_finite, herm, math.nan), np.where(entries_finite, tr, math.nan),
            min_eig)


def _invalid(m: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (..., 2, 2) or (..., 4, 4): True where ``DensityMatrix``
    would refuse it."""
    herm, tr, min_eig = _residuals(m)
    return ~((herm <= _TOL) & (tr <= _TOL) & (min_eig >= -_TOL))


def _states(m, dim: int, name: str) -> np.ndarray:
    """``m`` as a complex stack (..., dim, dim); ``name`` names the caller that needs it.

    A complex array is returned itself, not copied."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (dim, dim):
        raise ValueError(f"{name} needs {dim}x{dim} states, got shape {m.shape}")
    return m


def require_valid(m: np.ndarray) -> None:
    """Refuse a stack (..., 2, 2) or (..., 4, 4) unless ``DensityMatrix`` accepts
    each of its matrices: the first refused matrix raises its own
    ``DensityMatrixError``."""
    bad = _invalid(m)
    if bad.any():
        DensityMatrix(m.reshape((-1,) + m.shape[-2:])[bad.argmax()])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated 2x2 or 4x4 density matrix.

    The wrapped array is checked to be Hermitian, unit trace and
    positive semidefinite within 1e-10 at construction and stored
    read-only. Each check is written so that a NaN residual fails it.
    """

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in _VALID_DIMS:
            raise DensityMatrixError(
                "dimension", 0.0, f"density matrix must be 2x2 or 4x4, got shape {m.shape}"
            )
        herm, tr, min_eig = (float(r) for r in _residuals(m))
        if not herm <= _TOL:
            raise DensityMatrixError(
                "hermiticity", herm, f"matrix is not Hermitian (residual {herm:.3e})"
            )
        if not tr <= _TOL:
            raise DensityMatrixError("trace", tr, f"trace differs from 1 (residual {tr:.3e})")
        if not min_eig >= -_TOL:
            raise DensityMatrixError(
                "positivity", -min_eig, f"matrix is not positive (min eigenvalue {min_eig:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])


def random_density(rng: np.random.Generator, dim: int = 2, pure: bool = False) -> DensityMatrix:
    """Draw a random density matrix: ``_random_states`` on the next 2 dim^2
    normals of ``rng``, a Hilbert-Schmidt random mixed state.

    With ``pure=True`` it takes the next 2 dim normals and returns the
    projector on a Haar-random vector instead. Intended for property tests.
    """
    if dim not in _VALID_DIMS:
        raise ValueError(f"dim must be one of {_VALID_DIMS}, got {dim}")
    return DensityMatrix(_random_states(rng.standard_normal(2 * dim * (1 if pure else dim)),
                                        dim, pure))


def _random_states(g: np.ndarray, dim: int, pure) -> np.ndarray:
    """Random states (..., dim, dim) from standard normals g (..., k), not validated.

    Each state is a a^dag / tr(a a^dag) for a complex dim x r matrix a
    whose real parts are the first dim r normals of its row of g, row by
    row, and whose imaginary parts the next dim r. Where ``pure`` (which
    broadcasts against g's leading shape) is True, r = 1: the projector on
    a Haar-random vector. Elsewhere r = dim: a Hilbert-Schmidt random mixed
    state (Zyczkowski & Sommers, J. Phys. A 34, 7111, 2001). A row needs
    k >= 2 dim r normals; a pure row ignores the rest. The products are
    broadcast, so no state depends on the others or on the BLAS threads.
    """
    g = np.asarray(g, dtype=float)
    pure = np.broadcast_to(pure, g.shape[:-1])
    out = np.empty(pure.shape + (dim, dim), dtype=complex)
    for rank, cases in ((1, pure), (dim, ~pure)):
        if cases.any():
            n, h = dim * rank, g[cases]
            a = (h[:, :n] + 1j * h[:, n:2 * n]).reshape(-1, dim, rank)
            m = (a[:, :, None, :] * a.conj()[:, None, :, :]).sum(axis=-1)
            out[cases] = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    return out
