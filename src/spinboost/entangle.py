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

A trajectory is computed on stacks: one ``two_qubit_average`` call, the
oracle's one quadrature kernel at two qubits, for all its times, one
stacked validation and one batched Wootters solve (``concurrence``, one
LAPACK eigen-solve per matrix). Each time gets the bits it gets alone.
U (x) U fixes the singlet for every U, so the common bath leaves it
unchanged (decoherence-free).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Scenario, _require_nonneg_time, decay_exponent
from .oracle import QuadratureSpec, _require_quadrature, two_qubit_average
from .spinalg import PAULI_Y, DensityMatrix, _hermitize, _states, require_valid, tensor_product

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


def concurrence(m) -> np.ndarray:
    """Wootters concurrences (...) of two-qubit states ``m`` (..., 4, 4), not validated.

    C = max(0, l1 - l2 - l3 - l4) with l_k the descending square roots
    of the eigenvalues of rho (sy(x)sy) rho* (sy(x)sy), computed through
    the Hermitian form sqrt(rho) rho~ sqrt(rho) with tiny eigenvalues
    clamped to zero before the square roots. One eigen-solve per matrix
    (numpy's stacked LAPACK calls): each state gets the bits it gets alone.
    """
    m = _states(m, 4, "concurrence")
    rho_tilde = _YY @ m.conj() @ _YY
    vals, vecs = np.linalg.eigh(m)
    sqrt_rho = ((vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :])
                @ vecs.conj().swapaxes(-1, -2))
    h = sqrt_rho @ rho_tilde @ sqrt_rho
    ev = np.linalg.eigvalsh(_hermitize(h))
    cutoff = _EIG_CLAMP_REL * np.maximum(ev[..., -1:], 1.0)
    lam = np.sqrt(np.where(ev < cutoff, 0.0, ev))
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    return np.where(c > 0.0, c, 0.0)[()]


def concurrence_trajectory(
    s: Scenario, times: Sequence[float], q: QuadratureSpec = QuadratureSpec()
) -> ConcurrenceSeries:
    """Evolve the Bell state through the common bath along a time grid.

    ``times`` must be sorted and non-negative. All times are averaged in
    one ``two_qubit_average`` call, validated in one call and reduced in
    one ``concurrence`` call. A time the quadrature refuses raises its
    error, naming the first such time. The attached references are
    exp(-4 gamma t**2) (rest) and exp(-4 gamma' t**2) (boosted).
    """
    times = np.asarray(times, dtype=float)
    if len(times) and (np.diff(times) < 0).any():
        raise ValueError("times must be sorted ascending")
    _require_nonneg_time(times)
    _require_quadrature(s, times, q.nodes)
    states = two_qubit_average(bell_phi_plus().matrix, s, times, q)
    require_valid(states)
    return ConcurrenceSeries(
        times=times,
        values=concurrence(states),
        reference_rest=np.exp(-decay_exponent(4.0 * s.gamma, times)),
        reference_boosted=np.exp(-decay_exponent(4.0 * s.gamma_prime, times)),
    )
