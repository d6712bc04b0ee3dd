"""Channel-level diagnostics: Choi matrices and their CP and TP figures.

Convention: the Choi matrix of a single-qubit map E is

    C = sum_ij E(|i><j|) (x) |i><j|

(output factor first, unnormalised, trace 2 for trace-preserving maps).
E is completely positive iff C is Hermitian and positive-semidefinite,
and tracing out the output factor of a TP map gives the 2x2 identity.
These three figures also bound the canonical Kraus set's completeness
and reassembly residuals, so no Kraus operator is built here.

The arithmetic works on stacks and broadcasts over leading axes (...):
``choi_stack`` takes the images (..., 6, 2, 2) of the six ``PROBES``
and returns Choi matrices (..., 4, 4) with linearity residuals (..., 2);
``choi_diagnostics`` returns per-matrix least eigenvalues, TP and
Hermiticity residuals (...). Nothing is refused here: callers compare
the figures with their tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinalg import _dagger, _eigh, _hermitize

# Probe states: |0><0|, |1><1|, |+><+|, |+i><+i| -- a spanning set of
# genuine density matrices, so maps defined only on physical states can
# be tomographed. |-><-| and a generic mixed state are held out for the
# linearity check (the mixed one catches maps that fix all pure states).
PROBES = np.array([
    [[1, 0], [0, 0]],
    [[0, 0], [0, 1]],
    [[0.5, 0.5], [0.5, 0.5]],
    [[0.5, -0.5j], [0.5j, 0.5]],
    [[0.5, -0.5], [-0.5, 0.5]],
    [[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]],
], dtype=complex)
PROBES.setflags(write=False)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes of a stack."""
    return np.linalg.norm(x, axis=(-2, -1))


def choi_stack(images) -> tuple[np.ndarray, np.ndarray]:
    """Choi matrices and linearity residuals from stacked probe images.

    ``images`` (..., 6, 2, 2) holds a map's images of ``PROBES``. Returns
    the Choi matrices (..., 4, 4), assembled from the four spanning
    images, and the Frobenius residuals (..., 2) between the two
    held-out images and their predictions by linearity.
    """
    images = np.asarray(images, dtype=complex)
    if images.shape[-3:] != PROBES.shape:
        raise ValueError(f"probe images must have shape (..., 6, 2, 2), got {images.shape}")
    e00, e11, e_plus, e_imag = np.moveaxis(images[..., :4, :, :], -3, 0)
    # |0><1| = P+ + i*Pi - (1+i)/2 (P00 + P11), and |1><0| its adjoint image
    e01 = e_plus + 1j * e_imag - 0.5 * (1.0 + 1j) * (e00 + e11)
    e10 = e_plus - 1j * e_imag - 0.5 * (1.0 - 1j) * (e00 + e11)
    predicted = np.stack([
        0.5 * (e00 + e11) - 0.5 * (e01 + e10),
        0.7 * e00 + 0.3 * e11 + (0.2 - 0.1j) * e01 + (0.2 + 0.1j) * e10,
    ], axis=-3)
    linearity = _frobenius(images[..., 4:, :, :] - predicted)
    # C[(a, i), (b, j)] = E(|i><j|)[a, b]
    units = np.stack([np.stack([e00, e01], axis=-3), np.stack([e10, e11], axis=-3)], axis=-4)
    c = np.moveaxis(units, (-4, -3), (-3, -1)).reshape(units.shape[:-4] + (4, 4))
    return c, linearity


def _trace_out(m: np.ndarray) -> np.ndarray:
    """Trace out the output (first) factor of Choi matrices (..., 4, 4)."""
    m = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    return m[..., 0, :, 0, :] + m[..., 1, :, 1, :]


@dataclass(frozen=True, eq=False)
class ChoiDiagnostics:
    """CP and TP figures of a stack of Choi matrices (..., 4, 4), each of the
    stack's leading shape (...)."""

    min_eigenvalue: np.ndarray
    tp_residual: np.ndarray
    herm_residual: np.ndarray


def choi_diagnostics(c) -> ChoiDiagnostics:
    """Least eigenvalue, TP and Hermiticity residuals of each Choi matrix in a stack (..., 4, 4).

    The least eigenvalue is that of (C + C^dag)/2, from one stacked
    Hermitian eigenvalue solve; the TP residual is |tr_out C - I| and the
    Hermiticity residual |C - C^dag| (Frobenius). Nothing is refused here;
    the callers compare against a tolerance. A matrix with a NaN or
    infinite entry gets a NaN eigenvalue, without a warning
    (``spinalg._eigh``).
    """
    c = np.asarray(c, dtype=complex)
    if c.shape[-2:] != (4, 4):
        raise ValueError(f"Choi matrices must be 4x4, got shape {c.shape}")
    with np.errstate(invalid="ignore"):
        vals = _eigh(_hermitize(c), vectors=False)
        tp_residual = _frobenius(_trace_out(c) - np.eye(2))
        herm_residual = _frobenius(c - _dagger(c))
    return ChoiDiagnostics(min_eigenvalue=vals[..., 0], tp_residual=tp_residual,
                           herm_residual=herm_residual)
