"""Two-qubit entanglement under the common boosted bath.

Both spins ride the same boost and see the same Gaussian field, so the
pair state is averaged with U(B) (x) U(B). Entanglement is quantified by
the concurrence; for the Bell state (|uu> + |dd>)/sqrt(2) at rest it
decays as exp(-4 gamma t**2), and the boosted reference curve is
exp(-4 gamma' t**2).

Note on the boosted reference: for phi in {0, pi} the dressing rotation
is real, the Bell state is invariant under V (x) V, and the boosted
curve is exact for *every* rapidity (not only asymptotically): the
residual chi at finite rapidity provably does not perturb the
concurrence at these azimuths. Tests therefore treat deviations from the
reference as quadrature noise, not physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Scenario, decay_exponent
from .oracle import QuadratureSpec, two_qubit_average
from .spinalg import PAULI_Y, DensityMatrix, tensor_product

_YY = tensor_product(PAULI_Y, PAULI_Y)

# Relative floor below which squared Wootters eigenvalues are rounded to
# zero: absorbs +/-1e-14 eigensolver noise that would otherwise turn
# into sqrt-scale (1e-7) garbage in the concurrence.
_EIG_CLAMP_REL = 1e-13


@dataclass(frozen=True, eq=False)
class ConcurrenceSeries:
    """Concurrence along a time grid plus both reference decay curves."""

    times: np.ndarray
    values: np.ndarray
    reference_rest: np.ndarray
    reference_boosted: np.ndarray

    def __post_init__(self):
        arrays = {}
        length = None
        for name in ("times", "values", "reference_rest", "reference_boosted"):
            a = np.array(getattr(self, name), dtype=float)
            if length is None:
                length = len(a)
            elif len(a) != length:
                raise ValueError("series fields must have equal length")
            a.setflags(write=False)
            arrays[name] = a
        for name, a in arrays.items():
            object.__setattr__(self, name, a)


def bell_phi_plus() -> DensityMatrix:
    """(|uu> + |dd>)/sqrt(2) as a density matrix."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    return DensityMatrix(np.outer(psi, psi.conj()))


def concurrence(rho4: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with l_k the descending square roots
    of the eigenvalues of rho (sy(x)sy) rho* (sy(x)sy), computed through
    the Hermitian form sqrt(rho) rho~ sqrt(rho) with tiny eigenvalues
    clamped to zero before the square roots.
    """
    m = rho4.matrix
    if rho4.dim != 4:
        raise ValueError(f"concurrence needs a 4x4 state, got dim {rho4.dim}")
    rho_tilde = _YY @ m.conj() @ _YY
    vals, vecs = np.linalg.eigh(m)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    h = sqrt_rho @ rho_tilde @ sqrt_rho
    ev = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
    cutoff = _EIG_CLAMP_REL * max(float(ev[-1]), 1.0)
    ev = np.where(ev < cutoff, 0.0, ev)
    lam = np.sqrt(ev)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_trajectory(
    s: Scenario, times: Sequence[float], q: QuadratureSpec = QuadratureSpec()
) -> ConcurrenceSeries:
    """Evolve the Bell state through the common bath along a time grid.

    ``times`` must be sorted and non-negative. The attached references
    are exp(-4 gamma t**2) (rest) and exp(-4 gamma' t**2) (boosted).
    """
    times = np.asarray(times, dtype=float)
    if len(times) and (np.diff(times) < 0).any():
        raise ValueError("times must be sorted ascending")
    if len(times) and times[0] < 0:
        raise ValueError("times must be non-negative")
    bell = bell_phi_plus()
    values = np.array([concurrence(two_qubit_average(bell, s, t, q)) for t in times])
    return ConcurrenceSeries(
        times=times,
        values=values,
        reference_rest=np.exp(-4.0 * s.noise.gamma * times**2),
        reference_boosted=np.exp(-4.0 * decay_exponent(s.gamma_prime, times)),
    )
