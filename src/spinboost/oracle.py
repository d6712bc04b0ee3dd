"""Independent numerical ground truth for the Gaussian-averaged channel.

Nothing in here reuses the closed forms: the state is propagated with the
exact per-field unitary U(B) = exp(-i kappa mu t B sigma.n) and averaged
over B ~ N(0, vartheta**2) either by Gauss-Hermite quadrature (spectrally
exact for these Gaussian-times-trigonometric integrands) or by seeded
Monte Carlo. The quadrature covers one and two qubits (common bath:
U(B) (x) U(B)).

Determinism contracts: node/weight generation is the Golub-Welsch
eigen-solve of the symmetric tridiagonal Jacobi matrix (numpy's dense
Hermitian solver); Monte Carlo draws
come from counter-based Philox streams keyed by (seed, chunk_index) with
a Box-Muller transform, accumulated in fixed chunk order, so identical
(seed, samples) produce bit-identical results whether chunks are
evaluated serially or in parallel.

Monte Carlo trigonometry: every cos/sin pair (the Box-Muller angle and
the rotation angle d of each draw) comes from one tangent of the half
angle, cos 2x = (1 - h^2) w and sin 2x = 2 h w with h = tan x and
w = 1/(1 + h^2). numpy dispatches float64 ``tan`` to SIMD code on common
x86-64 builds, where ``cos`` and ``sin`` are scalar libm calls, so one
``tan`` and a few multiply-adds cost about a tenth of the pair. Results
stay within 2.3e-16 of ``np.cos``/``np.sin`` and are bit-reproducible on
one machine; which ``tan`` numpy picks (SIMD or libm) may move last bits
between machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Scenario
from .spinalg import IDENTITY_2, DensityMatrix, pauli_vector

_MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite quadrature order for the Gaussian field average."""

    nodes: int = 201

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError(f"need at least 2 quadrature nodes, got {self.nodes!r}")


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo sample count and 64-bit seed."""

    samples: int = 100_000
    seed: int = 42

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@lru_cache(maxsize=16)
def gauss_hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights (z, w) for expectations under the standard normal.

    E[f(Z)] ~= sum_i w_i f(z_i). Built from the physicists' Hermite
    three-term recurrence: eigenvalues of the symmetric tridiagonal
    Jacobi matrix are the nodes, squared first eigenvector components
    the weights (Golub-Welsch). Nodes are symmetrised exactly about 0
    and the weights normalised to sum to 1.
    """
    if n < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {n!r}")
    off_diag = np.sqrt(np.arange(1, n) / 2.0)
    x, vecs = np.linalg.eigh(np.diag(off_diag, 1) + np.diag(off_diag, -1))
    w = vecs[0] ** 2
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    z = math.sqrt(2.0) * x
    w = w / w.sum()
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def _half_angle_rate(s: Scenario, t: float) -> float:
    """kappa mu t, half the rotation angle per unit field; refused where kappa is inf."""
    if s.field.kappa == math.inf:
        raise ValueError(f"kappa overflows at rapidity xi = {float(s.boost.xi)!r} and angle "
                         f"theta = {float(s.boost.theta)!r}: the oracle's rotation angle "
                         "2 kappa mu t B is not representable")
    return s.field.kappa * s.noise.mu * t


def _unitary_stack(b_values: np.ndarray, s: Scenario, t: float) -> np.ndarray:
    """Vectorised stack of unitaries exp(-i kappa mu t b sigma.n), one per field value b."""
    nx, ny, nz = s.field.n
    half = _half_angle_rate(s, t) * b_values
    c, si = np.cos(half), np.sin(half)
    u = np.empty((len(b_values), 2, 2), dtype=complex)
    u[:, 0, 0] = c - 1j * si * nz
    u[:, 0, 1] = -1j * si * (nx - 1j * ny)
    u[:, 1, 0] = -1j * si * (nx + 1j * ny)
    u[:, 1, 1] = c + 1j * si * nz
    return u


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def average_quadrature(
    rho: DensityMatrix, s: Scenario, t: float, q: QuadratureSpec = QuadratureSpec()
) -> DensityMatrix:
    """Gaussian average of U(B) rho U(B)^dag by Gauss-Hermite quadrature."""
    if rho.dim != 2:
        raise ValueError(f"average_quadrature needs a 2x2 state, got dim {rho.dim}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    z, w = gauss_hermite_nodes(q.nodes)
    u = _unitary_stack(s.noise.vartheta * z, s, t)
    terms = (u @ rho.matrix) @ u.conj().transpose(0, 2, 1)
    out = np.tensordot(w, terms, axes=(0, 0))
    return DensityMatrix(_hermitize(out))


def two_qubit_average(
    rho4: DensityMatrix, s: Scenario, t: float, q: QuadratureSpec = QuadratureSpec()
) -> DensityMatrix:
    """Common-bath average of [U(B) (x) U(B)] rho4 [..]^dag (same B, same boost)."""
    if rho4.dim != 4:
        raise ValueError(f"two_qubit_average needs a 4x4 state, got dim {rho4.dim}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    z, w = gauss_hermite_nodes(q.nodes)
    u = _unitary_stack(s.noise.vartheta * z, s, t)
    u2 = (u[:, :, None, :, None] * u[:, None, :, None, :]).reshape(-1, 4, 4)  # U (x) U per node
    terms = (u2 @ rho4.matrix) @ u2.conj().transpose(0, 2, 1)
    # summed slice by slice in node order, which no BLAS reduction order can change
    out = (w[:, None, None] * terms).sum(axis=0)
    return DensityMatrix(_hermitize(out))


def _cos_sin_double(x: np.ndarray, cos_out: np.ndarray, scratch: np.ndarray) -> None:
    """Overwrite ``x`` with sin 2x and ``cos_out`` with cos 2x.

    Half-angle forms of one tangent h = tan x: cos 2x = (1 - h^2) w and
    sin 2x = 2 h w with w = 1/(1 + h^2). ``scratch`` is overwritten;
    all three arrays have one shape and must not overlap. Doubling x is
    exact, so the angle is the same as that passed to ``np.cos(2 x)``.
    """
    np.tan(x, out=x)
    np.multiply(x, x, out=cos_out)
    np.add(cos_out, 1.0, out=scratch)
    np.divide(1.0, scratch, out=scratch)
    np.subtract(1.0, cos_out, out=cos_out)
    cos_out *= scratch
    x *= scratch
    x *= 2.0


def _box_muller_normals(seed: int, chunk_index: int, count: int,
                        work: np.ndarray | None = None) -> np.ndarray:
    """Standard normals from a Philox stream keyed by (seed, chunk_index).

    ``work``, a float array of shape (3, n) with n >= count rounded up to
    even, holds every intermediate; the normals are returned as a view
    of ``work[2, :count]``.
    """
    half = (count + 1) // 2
    if work is None:
        work = np.empty((3, 2 * half))
    key = np.array([seed, chunk_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random(out=work[0, :2 * half])  # u1, then u2: the bits of two draws of half
    r, angle = u[:half], u[half:]
    np.negative(r, out=r)
    np.log1p(r, out=r)  # log(1 - u1) with 1 - u1 in (0, 1], no log(0)
    r *= -2.0
    np.sqrt(r, out=r)
    angle *= np.pi  # half of the angle 2 pi u2
    cos_a, z = work[1, :half], work[2, :count]
    _cos_sin_double(angle, cos_a, z[:half])  # angle now holds the sines
    np.multiply(r, cos_a, out=z[:half])
    np.multiply(r[:count - half], angle[:count - half], out=z[half:])
    return z


def average_montecarlo(
    rho: DensityMatrix, s: Scenario, t: float, mc: McSpec = McSpec()
) -> tuple[DensityMatrix, float]:
    """Seeded Monte Carlo estimate of the Gaussian average.

    Returns the sample mean of U(B) rho U(B)^dag over
    B ~ N(0, vartheta**2) and a standard-error estimate: per-entry
    sample variances of the mean, aggregated in Frobenius norm.

    Each draw rotates the Bloch vector by d = 2 kappa mu t B about n, so
    (Rodrigues) U rho U^dag = A + B cos d + C sin d with fixed matrices
    A, B, C. Only the sample moments of (cos d, sin d) are accumulated;
    the mean and every entry's sample variance follow from them exactly.
    """
    if rho.dim != 2:
        raise ValueError(f"average_montecarlo needs a 2x2 state, got dim {rho.dim}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    half_scale = _half_angle_rate(s, t) * s.noise.vartheta  # d = 2 half_scale z
    work = np.empty((3, 2 * ((min(_MC_CHUNK, mc.samples) + 1) // 2)))
    sums = np.zeros(5)
    for chunk_index, done in enumerate(range(0, mc.samples, _MC_CHUNK)):
        count = min(_MC_CHUNK, mc.samples - done)
        si = _box_muller_normals(mc.seed, chunk_index, count, work)
        si *= half_scale
        c, tmp = work[0, :count], work[1, :count]
        _cos_sin_double(si, c, tmp)
        sums += (c.sum(), si.sum(), np.multiply(c, c, out=tmp).sum(),
                 np.multiply(si, si, out=tmp).sum(), np.multiply(c, si, out=tmp).sum())
    mean_c, mean_s, mean_cc, mean_ss, mean_cs = sums / mc.samples
    # rho = a0 I + a.sigma with complex a; the rotation acts on a:
    # a -> (n.a) n + cos d (a - (n.a) n) + sin d (n x a)
    m = rho.matrix
    n = s.field.n
    a = 0.5 * np.array([m[0, 1] + m[1, 0], 1j * (m[0, 1] - m[1, 0]), m[0, 0] - m[1, 1]])
    along = np.dot(n, a) * n
    fixed = 0.5 * np.trace(m) * IDENTITY_2 + pauli_vector(along)
    b_mat, c_mat = pauli_vector(a - along), pauli_vector(np.cross(n, a))
    out = fixed + mean_c * b_mat + mean_s * c_mat
    if mc.samples > 1:
        var = (np.abs(b_mat) ** 2 * (mean_cc - mean_c**2)
               + np.abs(c_mat) ** 2 * (mean_ss - mean_s**2)
               + 2.0 * (b_mat * c_mat.conj()).real * (mean_cs - mean_c * mean_s))
        stderr = float(np.sqrt(np.clip(var / (mc.samples - 1), 0.0, None).sum()))
    else:
        stderr = float("inf")
    return DensityMatrix(_hermitize(out)), stderr
