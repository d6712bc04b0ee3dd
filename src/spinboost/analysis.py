"""Channel-level diagnostics: Choi matrices, CPTP checks, Kraus extraction.

Convention: the Choi matrix of a single-qubit map E is

    C = sum_ij E(|i><j|) (x) |i><j|

(output factor first, unnormalised, trace 2 for trace-preserving maps).
E is completely positive iff C is Hermitian and positive-semidefinite,
and tracing out the output factor of a TP map gives the 2x2 identity.
Kraus operators are recovered from the eigendecomposition:
K_k = sqrt(lambda_k) * unvec(v_k) with unvec the row-major (output,
input) reshape.

The arithmetic works on stacks and broadcasts over leading axes (...):
``choi_stack`` takes the images (..., 6, 2, 2) of the six ``PROBES``
and returns Choi matrices (..., 4, 4) with linearity residuals (..., 2);
``choi_diagnostics`` returns per-matrix least eigenvalues, TP and
Hermiticity residuals (...) and Kraus stacks (..., 4, 2, 2), in which
dropped eigenvalues leave zero operators under a mask (..., 4) rather
than a ragged list; ``kraus_residuals`` checks Kraus stacks
(..., k, 2, 2), and ``kraus_to_choi`` assembles them. Nothing is
refused here: callers compare the figures with their tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinalg import _dagger, _eigh, _hermitize, _matmul

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

# Kraus operators are kept for eigenvalues above this fraction of the largest.
_RETAIN_REL = 1e-12


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


def kraus_to_choi(kraus_ops) -> np.ndarray:
    """Choi matrix assembled directly from Kraus operators (brute force).

    ``kraus_ops`` is a sequence of 2x2 operators, or a stack (..., k, 2, 2)
    that gives Choi matrices (..., 4, 4).
    """
    ops = np.asarray(kraus_ops, dtype=complex)
    if ops.ndim < 3:  # an empty sequence
        ops = ops.reshape(0, 2, 2)
    v = ops.reshape(ops.shape[:-2] + (4,))
    return (v[..., :, None] * v.conj()[..., None, :]).sum(axis=-3)


def _trace_out(m: np.ndarray) -> np.ndarray:
    """Trace out the output (first) factor of Choi matrices (..., 4, 4)."""
    m = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    return m[..., 0, :, 0, :] + m[..., 1, :, 1, :]


@dataclass(frozen=True, eq=False)
class ChoiDiagnostics:
    """CP, TP and Kraus figures of a stack of Choi matrices (..., 4, 4).

    ``min_eigenvalue``, ``tp_residual`` and ``herm_residual`` have the
    stack's leading shape (...); ``kraus`` is (..., 4, 2, 2) with the
    operators of dropped eigenvalues set to zero, and ``kept`` (..., 4)
    marks the retained ones.
    """

    min_eigenvalue: np.ndarray
    tp_residual: np.ndarray
    herm_residual: np.ndarray
    kraus: np.ndarray
    kept: np.ndarray


def choi_diagnostics(c) -> ChoiDiagnostics:
    """Eigen-analysis of each Choi matrix in a stack (..., 4, 4).

    One Hermitian eigen-solve of (C + C^dag)/2 per matrix gives the least
    eigenvalue and the canonical Kraus set: K_k = sqrt(lambda_k) *
    unvec(v_k) for each eigenvalue above ``_RETAIN_REL`` times the largest
    one (and above 0), in descending order. The TP residual is
    |tr_out C - I| and the Hermiticity residual |C - C^dag| (Frobenius).
    Nothing is refused here; the callers compare against a tolerance. A
    matrix with a NaN or infinite entry gets NaN eigenvalues and no Kraus
    operator, without a warning (``spinalg._eigh``).
    """
    c = np.asarray(c, dtype=complex)
    if c.shape[-2:] != (4, 4):
        raise ValueError(f"Choi matrices must be 4x4, got shape {c.shape}")
    with np.errstate(invalid="ignore"):
        vals, vecs = _eigh(_hermitize(c))
        tp_residual = _frobenius(_trace_out(c) - np.eye(2))
        herm_residual = _frobenius(c - _dagger(c))
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    kept = vals > _RETAIN_REL * np.maximum(vals[..., :1], 0.0)
    weights = np.sqrt(np.where(kept, vals, 0.0))
    kraus = (weights[..., None, :] * vecs).swapaxes(-1, -2)
    return ChoiDiagnostics(
        min_eigenvalue=vals[..., -1],
        tp_residual=tp_residual,
        herm_residual=herm_residual,
        kraus=kraus.reshape(kraus.shape[:-1] + (2, 2)),
        kept=kept,
    )


def kraus_residuals(kraus, c) -> tuple[np.ndarray, np.ndarray]:
    """|sum K^dag K - I| and |Choi(K) - C| (Frobenius) for Kraus stacks (..., k, 2, 2)."""
    kraus = np.asarray(kraus, dtype=complex)
    completeness = _matmul(_dagger(kraus), kraus).sum(axis=-3)
    return (_frobenius(completeness - np.eye(2)),
            _frobenius(kraus_to_choi(kraus) - np.asarray(c)))
