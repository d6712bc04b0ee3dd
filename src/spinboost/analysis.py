"""Channel-level diagnostics: Choi matrices, CPTP checks, Kraus extraction.

Convention: the Choi matrix of a single-qubit map E is

    C = sum_ij E(|i><j|) (x) |i><j|

(output factor first, unnormalised, trace 2 for trace-preserving maps).
E is positive-semidefinite as a matrix iff the map is completely
positive, and tracing out the output factor of a TP map gives the 2x2
identity. Kraus operators are recovered from the eigendecomposition:
K_k = sqrt(lambda_k) * unvec(v_k) with unvec the row-major (output,
input) reshape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spinalg import eigh_descending, frobenius_distance

MapFn = Callable[[np.ndarray], np.ndarray]

# Probe states: |0><0|, |1><1|, |+><+|, |+i><+i| -- a spanning set of
# genuine density matrices, so maps defined only on physical states can
# be tomographed. |-><-| and a generic mixed state are held out for the
# linearity check (the mixed one catches maps that fix all pure states).
_P00 = np.array([[1, 0], [0, 0]], dtype=complex)
_P11 = np.array([[0, 0], [0, 1]], dtype=complex)
_PPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
_PIMAG = np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)
_PMINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
_PMIXED = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)


class InvalidMapError(ValueError):
    """The probed map is not linear on the spanning set."""


class CompletePositivityError(ValueError):
    """Kraus extraction refused: the Choi matrix is not positive."""

    def __init__(self, min_eigenvalue: float):
        super().__init__(f"channel is not completely positive (min Choi eigenvalue {min_eigenvalue:.3e})")
        self.min_eigenvalue = float(min_eigenvalue)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """4x4 Choi matrix of a single-qubit map."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"Choi matrix must be 4x4, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CPTPReport:
    """Outcome of a complete-positivity / trace-preservation check."""

    min_eigenvalue: float
    tp_residual: float
    cp_ok: bool
    tp_ok: bool
    tol: float

    @property
    def verdict(self) -> bool:
        return self.cp_ok and self.tp_ok

    def __str__(self) -> str:
        state = "CPTP" if self.verdict else ("not CP" if not self.cp_ok else "not TP")
        return (
            f"{state}: min eigenvalue {self.min_eigenvalue:.3e}, "
            f"TP residual {self.tp_residual:.3e} (tol {self.tol:.1e})"
        )


def choi_of(map_fn: MapFn, linearity_tol: float = 1e-10) -> ChoiMatrix:
    """Build the Choi matrix of a map evaluated on probe states.

    ``map_fn`` is called on the four spanning density matrices; the
    images of the matrix units are reconstructed by linearity and
    assembled into C = sum_ij E(|i><j|) (x) |i><j|. A fifth probe
    (|-><-|) cross-checks linearity; deviations beyond
    ``linearity_tol`` raise InvalidMapError.
    """
    e00 = np.asarray(map_fn(_P00), dtype=complex)
    e11 = np.asarray(map_fn(_P11), dtype=complex)
    e_plus = np.asarray(map_fn(_PPLUS), dtype=complex)
    e_imag = np.asarray(map_fn(_PIMAG), dtype=complex)
    # |0><1| = P+ + i*Pi - (1+i)/2 (P00 + P11), and |1><0| its adjoint image
    e01 = e_plus + 1j * e_imag - 0.5 * (1.0 + 1j) * (e00 + e11)
    e10 = e_plus - 1j * e_imag - 0.5 * (1.0 - 1j) * (e00 + e11)

    held_out = (
        (_PMINUS, 0.5 * (e00 + e11) - 0.5 * (e01 + e10)),
        (_PMIXED, 0.7 * e00 + 0.3 * e11 + (0.2 - 0.1j) * e01 + (0.2 + 0.1j) * e10),
    )
    for probe, predicted in held_out:
        residual = frobenius_distance(np.asarray(map_fn(probe), dtype=complex), predicted)
        if residual > linearity_tol:
            raise InvalidMapError(
                f"map is not linear on the spanning set "
                f"(residual {residual:.3e} > {linearity_tol:.1e})"
            )

    c = np.zeros((4, 4), dtype=complex)
    units = {(0, 0): e00, (0, 1): e01, (1, 0): e10, (1, 1): e11}
    for (i, j), image in units.items():
        unit = np.zeros((2, 2), dtype=complex)
        unit[i, j] = 1.0
        c += np.kron(image, unit)
    return ChoiMatrix(c)


def kraus_to_choi(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Choi matrix assembled directly from Kraus operators (brute force)."""
    c = np.zeros((4, 4), dtype=complex)
    for k in kraus_ops:
        v = np.asarray(k, dtype=complex).reshape(4)
        c += np.outer(v, v.conj())
    return c


def partial_trace_output(c: ChoiMatrix) -> np.ndarray:
    """Trace out the output (first) tensor factor of a Choi matrix."""
    m = c.matrix.reshape(2, 2, 2, 2)
    return np.trace(m, axis1=0, axis2=2)


def verify_cptp(c: ChoiMatrix, tol: float = 1e-10) -> CPTPReport:
    """Check complete positivity and trace preservation of a Choi matrix.

    CP passes iff the smallest Choi eigenvalue is >= -tol; the TP
    residual is the Frobenius norm of (partial trace over the output
    factor - identity), compared against the same tolerance.
    """
    vals, _ = eigh_descending(c.matrix)
    min_eig = float(vals[-1])
    tp_residual = frobenius_distance(partial_trace_output(c), np.eye(2, dtype=complex))
    return CPTPReport(
        min_eigenvalue=min_eig,
        tp_residual=tp_residual,
        cp_ok=min_eig >= -tol,
        tp_ok=tp_residual <= tol,
        tol=tol,
    )


def kraus_from_choi(
    c: ChoiMatrix, tol: float = 1e-10, retain_rel: float = 1e-12
) -> list[np.ndarray]:
    """Canonical Kraus operators from the Choi eigendecomposition.

    Refuses (CompletePositivityError) if the smallest eigenvalue is
    below -tol. Eigenvalues above ``retain_rel`` times the largest one
    are kept; K_k = sqrt(lambda_k) * unvec(v_k). The returned set
    satisfies sum K^dag K = I and reassembles the Choi matrix within
    10*tol for CPTP inputs.
    """
    vals, vecs = eigh_descending(c.matrix)
    if vals[-1] < -tol:
        raise CompletePositivityError(float(vals[-1]))
    cutoff = retain_rel * max(float(vals[0]), 0.0)
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam > cutoff:
            ops.append(np.sqrt(lam) * v.reshape(2, 2))
    return ops
