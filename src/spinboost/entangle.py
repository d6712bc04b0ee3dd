"""Two-qubit entanglement under the common boosted bath.

Both spins ride the same boost and see the same Gaussian field, so the
pair state is averaged with U(B) (x) U(B) (``oracle.two_qubit_average``).
Entanglement is quantified by the concurrence; for the Bell state
(|uu> + |dd>)/sqrt(2) at rest it decays as exp(-4 gamma t**2), and the
boosted reference curve is exp(-4 gamma' t**2).

Note on the boosted reference: for phi in {0, pi} the dressing rotation
is real, the Bell state is invariant under V (x) V, and the boosted
curve is exact for *every* rapidity (not only asymptotically): the
residual chi at finite rapidity provably does not perturb the
concurrence at these azimuths. So a deviation from the reference is
numerical, not physics: the quadrature's where the pair has decayed.

U (x) U fixes the singlet for every U, so the common bath leaves it
unchanged (decoherence-free).
"""

from __future__ import annotations

import math

import numpy as np

from .spinalg import PAULI_Y, _const, _dagger, _eigh, _kron, _matmul, _states

_YY = _kron(PAULI_Y, PAULI_Y)


def bell_phi_plus() -> np.ndarray:
    """(|uu> + |dd>)/sqrt(2) as a read-only density matrix."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    return _const(np.outer(psi, psi.conj()))


def concurrence(m) -> np.ndarray:
    """Wootters concurrences (...) of two-qubit states ``m`` (..., 4, 4), not validated.

    C = max(0, l1 - l2 - l3 - l4) with l_k the descending square roots
    of the eigenvalues of rho (sy(x)sy) rho* (sy(x)sy): the singular
    values of A = sqrt(rho) (sy(x)sy) conj(sqrt(rho)), as A A^dag =
    sqrt(rho) rho~ sqrt(rho) (Wootters, PRL 80, 2245, 1998; Uhlmann, PRA
    62, 032307, 2000). They come to an absolute ~1e-16, with no square
    root of a noisy eigenvalue, so C is exact to ~1e-15 up to C = 1. One
    stacked ``eigh`` of rho (``spinalg._eigh``), broadcast products and
    one stacked ``svd`` of the finite A: each state gets the bits it gets
    alone, and a state with a NaN or infinite entry gets NaN.
    """
    m = _states(m, 4, "concurrence")
    vals, vecs = _eigh(m)
    # overflow, or inf * 0, only where rho's entries are near the largest
    # float; the singular values are NaN there
    with np.errstate(over="ignore", invalid="ignore"):
        sqrt_rho = _matmul(vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :], _dagger(vecs))
        a = _matmul(_matmul(sqrt_rho, _YY), sqrt_rho.conj())
    lam = np.full(a.shape[:-1], math.nan)
    finite = np.isfinite(a).all(axis=(-2, -1))
    lam[finite] = np.linalg.svd(a[finite], compute_uv=False)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.where(c <= 0.0, 0.0, c)[()]
