"""Independent numerical ground truth for the Gaussian-averaged channel.

Nothing in here reuses the closed forms: the state is propagated with the
exact per-draw unitary U(z), the rotation by 2 kappa t sigma z about n,
and averaged over z ~ N(0, 1) either by Gauss-Hermite quadrature
(spectrally exact for these Gaussian-times-trigonometric integrands) or
by seeded Monte Carlo. The field scale sigma = sqrt(gamma/2), the
coupling times the field's standard deviation, comes from the one rate
of a ``Scenario``. The only code shared with ``channel`` is generic 2x2
algebra (``spinalg._matmul_2x2``). The quadrature covers one and two
qubits (common bath: U(z) (x) U(z)).

Each oracle is one function on stacks in numpy's (..., 2, 2) convention:
states, a ``Scenario`` (one case or a stack) and times broadcast against
each other, and the averages are returned without validation, NaN where
the oracle refuses a case because its rotation angle 2 kappa t sigma z
has no finite value (``_half_angle_rates``). ``_require_quadrature``
names the first case the quadrature refuses.

Single-qubit quadrature: with U(z) = c I - i s N, c = cos x, s = sin x,
x = kappa t sigma z and N = n.sigma, the conjugation expands exactly as
U rho U^dag = c^2 rho + s^2 N rho N + i c s [rho, N]. So a case needs
only three weighted sums over the nodes, of w c^2, w s^2 and w c s, each
a numpy pairwise sum along the node axis in node order (no BLAS product,
so the bits do not depend on the BLAS thread count), and then a few 2x2
products. ``average_quadrature`` takes its cases in blocks of fixed
size, and a case gets the same bits alone, among others or in another
order.

Two-qubit quadrature: per case, the average of U(z) (x) U(z) rho4
[..]^dag over the nodes, with one 4x4 product per node and matrix
(numpy's stacked ``matmul``) and a sum over the nodes slice by slice in
node order. ``two_qubit_average`` takes its cases in blocks of at most
``_PAIR_BLOCK`` (case, node) pairs, so a block's (cases, nodes, 4, 4)
temporaries stay under a fixed size, and a case gets the bits it gets
alone.

Determinism contracts: node/weight generation is the Golub-Welsch
eigen-solve of the symmetric tridiagonal Jacobi matrix (numpy's dense
Hermitian solver), whose bits were found equal on one and two BLAS
threads for n <= 402 nodes but not at n = 1000 or 2048, where LAPACK
runs threaded. Monte Carlo draws
come from SFC64 streams keyed by (seed, chunk_index), each seeded by
numpy's ``SeedSequence(seed, spawn_key=(chunk_index,))``, with a
Box-Muller transform, accumulated in fixed chunk order, so identical
(seed, samples) produce bit-identical results whether chunks are
evaluated serially or in any order, on one BLAS thread or several. A
Monte Carlo call draws each chunk's normals once and rotates every case
on them: all its cases see one stream, and each case gets the bits it
would get alone, whatever else is in the stack or in what order.

Monte Carlo trigonometry: every cos/sin pair comes from one tangent of
the half angle. For the Box-Muller angle, cos 2x = (1 - h^2) w and
sin 2x = 2 h w with h = tan x and w = 1/(1 + h^2). For the rotation angle
d of each draw only the moments are needed: with h = tan(d/2),
cos d = 2w - 1 and sin d = 2hw, and four pairwise sums per chunk (w, hw,
hw w, (hw)^2) give all five means of (cos d, sin d) and their products.
numpy dispatches float64 ``tan`` to SIMD code on common x86-64 builds,
where ``cos`` and ``sin`` are scalar libm calls, so one ``tan`` and a
few multiply-adds cost about a tenth of the pair. The pairs stay within
2.3e-16, the means within 1e-14, of ``np.cos``/``np.sin``; results are
bit-reproducible on one machine and do not depend on the BLAS thread
count, but which ``tan`` numpy picks (SIMD or libm) may move last bits
between machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Scenario, _require_nonneg_time
from .spinalg import IDENTITY_2, _matmul_2x2, _states, pauli_vector

# Largest distance between a closed form and the quadrature oracle at its
# default nodes that ``spinboost verify`` and the CLI accept.
ORACLE_TOL = 1e-8

_MC_CHUNK = 1 << 16
# Largest |z| _box_muller_normals returns: the radius sqrt(-2 log(1 - u1))
# at the largest draw u1 = 1 - 2**-53.
_BOX_MULLER_MAX = math.sqrt(106.0 * math.log(2.0))


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


def _field_scale(s: Scenario):
    """sigma = sqrt(gamma/2) per case: the rotation angle is 2 kappa t sigma z, z ~ N(0, 1)."""
    return np.sqrt(np.divide(s.gamma, 2.0))


def _half_angle_rates(s: Scenario, t, b_max):
    """kappa t per case, half the rotation angle per unit of the scaled field b = sigma z.

    NaN where kappa t b_max is not finite, with b_max (per case) a bound
    on the |b| the caller applies: the rotation angle 2 kappa t b has no
    value there, and the oracle refuses the case.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rate = s.field.kappa * np.asarray(t, dtype=float)
        return np.where(np.isfinite(rate * b_max), rate, math.nan)


def _quadrature_rates(s: Scenario, t, z: np.ndarray):
    """``_half_angle_rates`` at Gauss-Hermite nodes ``z``, whose largest is z[-1]."""
    return _half_angle_rates(s, t, _field_scale(s) * z[-1])


def _require_quadrature(s: Scenario, t, nodes: int) -> None:
    """Raise, naming it, for the first case that the quadrature at ``nodes`` refuses."""
    refused = np.isnan(_quadrature_rates(s, t, gauss_hermite_nodes(nodes)[0]))
    if refused.any():
        k = np.unravel_index(refused.argmax(), refused.shape)

        def at(a) -> float:
            return float(np.broadcast_to(a, refused.shape)[k])

        raise ValueError(f"the oracle's rotation angle 2 kappa t sqrt(gamma/2) z is not finite "
                         f"at rapidity xi = {at(s.boost.xi)!r}, angle theta = "
                         f"{at(s.boost.theta)!r} and time t = {at(t)!r} "
                         f"(kappa = {at(s.field.kappa)!r}, gamma = {at(s.gamma)!r})")


def _cases(m: np.ndarray, s: Scenario, per_case) -> tuple:
    """The broadcast shape of states ``m`` and per-case arrays ``per_case``
    (each of a shape that broadcasts with it), then ``m``, the axes of ``s``
    and each of ``per_case`` flattened to one case per row."""
    shape = np.broadcast_shapes(m.shape[:-2], *(np.shape(a) for a in per_case))
    flat = [np.broadcast_to(a, shape).ravel() for a in per_case]
    return (shape, np.broadcast_to(m, shape + m.shape[-2:]).reshape((-1,) + m.shape[-2:]),
            np.broadcast_to(s.field.n, shape + (3,)).reshape(-1, 3), *flat)


def _unitaries(half: np.ndarray, n: np.ndarray) -> np.ndarray:
    """exp(-i half sigma.n) (..., 2, 2) for half angles ``half`` (...) and unit axes
    ``n`` (..., 3), which broadcast to the shape of ``half``."""
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    c, si = np.cos(half), np.sin(half)
    u = np.empty(half.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * si * nz
    u[..., 0, 1] = -1j * si * (nx - 1j * ny)
    u[..., 1, 0] = -1j * si * (nx + 1j * ny)
    u[..., 1, 1] = c + 1j * si * nz
    return u


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


# Cases per block of ``average_quadrature``: bounds its (cases x nodes) temporaries.
_QUAD_BLOCK = 64


def average_quadrature(m, s: Scenario, t, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Gaussian average of U(z) rho U(z)^dag by Gauss-Hermite quadrature.

    States ``m`` (..., 2, 2), the cases of ``s`` and times ``t`` broadcast;
    returns the averages (..., 2, 2), not validated. Per case, the half
    angles x = kappa t sigma z at every node give the node-order pairwise
    sums of w c^2, w s^2 and w c s, and the average is
    (sum w c^2) rho + (sum w s^2) N rho N + i (sum w c s) [rho, N]. Cases
    run in blocks of ``_QUAD_BLOCK``; a case whose rotation angle is not
    finite gets NaN.
    """
    _require_nonneg_time(t)
    m = _states(m, 2, "average_quadrature")
    z, w = gauss_hermite_nodes(q.nodes)
    shape, rhos, n, rates, sigmas = _cases(m, s, (_quadrature_rates(s, t, z), _field_scale(s)))
    axis = np.empty((len(n), 2, 2), dtype=complex)  # N = n.sigma
    axis[:, 0, 0], axis[:, 1, 1] = n[:, 2], -n[:, 2]
    axis[:, 0, 1], axis[:, 1, 0] = n[:, 0] - 1j * n[:, 1], n[:, 0] + 1j * n[:, 1]
    out = np.empty((len(rates), 2, 2), dtype=complex)
    for k0 in range(0, len(rates), _QUAD_BLOCK):
        block = slice(k0, k0 + _QUAD_BLOCK)
        half = rates[block, None] * (sigmas[block, None] * z)
        cos_x, sin_x = np.cos(half), np.sin(half)
        w_cos = np.multiply(w, cos_x, out=half)
        sum_cs = np.multiply(w_cos, sin_x).sum(axis=-1)[:, None, None]
        sum_cc = np.multiply(w_cos, cos_x, out=cos_x).sum(axis=-1)[:, None, None]
        sin_x *= sin_x
        sum_ss = np.multiply(w, sin_x, out=sin_x).sum(axis=-1)[:, None, None]
        rho, nb = rhos[block], axis[block]
        rho_n, n_rho = _matmul_2x2(rho, nb), _matmul_2x2(nb, rho)
        out[block] = _hermitize(sum_cc * rho + sum_ss * _matmul_2x2(n_rho, nb)
                                + 1j * sum_cs * (rho_n - n_rho))
    return out.reshape(shape + (2, 2))


# (case, node) pairs per block of ``two_qubit_average``: at most 512 KiB per
# (cases, nodes, 4, 4) temporary; a block holds at least one case.
_PAIR_BLOCK = 2048


def two_qubit_average(m4, s: Scenario, t, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Common-bath average of [U(z) (x) U(z)] rho4 [..]^dag (same z, same boost).

    States ``m4`` (..., 4, 4), the cases of ``s`` and times ``t``
    broadcast; returns the averages (..., 4, 4), not validated. Per case,
    the sum over the nodes of w [U(z) (x) U(z)] rho4 [..]^dag, slice by
    slice in node order, which no BLAS reduction order can change. Cases
    run in blocks of ``_PAIR_BLOCK // nodes``; a case whose rotation angle
    is not finite gets NaN.
    """
    _require_nonneg_time(t)
    m4 = _states(m4, 4, "two_qubit_average")
    z, w = gauss_hermite_nodes(q.nodes)
    shape, rhos, n, rates, sigmas = _cases(m4, s, (_quadrature_rates(s, t, z), _field_scale(s)))
    per_block = max(1, _PAIR_BLOCK // q.nodes)
    out = np.empty((len(rates), 4, 4), dtype=complex)
    for k0 in range(0, len(rates), per_block):
        block = slice(k0, k0 + per_block)
        u = _unitaries(rates[block, None] * (sigmas[block, None] * z), n[block, None])
        # U (x) U per node
        u2 = (u[..., :, None, :, None] * u[..., None, :, None, :]).reshape(u.shape[:-2] + (4, 4))
        terms = (u2 @ rhos[block, None]) @ u2.conj().swapaxes(-1, -2)
        out[block] = _hermitize((w[:, None, None] * terms).sum(axis=-3))
    return out.reshape(shape + (4, 4))


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
    """Standard normals from an SFC64 stream keyed by (seed, chunk_index).

    ``work``, a float array of shape (3, n) with n >= count rounded up to
    even, holds every intermediate; the normals are returned as a view
    of ``work[2, :count]``.
    """
    half = (count + 1) // 2
    if work is None:
        work = np.empty((3, 2 * half))
    seq = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    gen = np.random.Generator(np.random.SFC64(seq))
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


def _rotation_moments(mc: McSpec, half_scales) -> np.ndarray:
    """Sample means of cos d, sin d, cos^2 d, sin^2 d and cos d sin d.

    One row per half scale: d = 2 half_scale z over the ``mc.samples``
    normals z of the SFC64 streams of ``mc.seed``. Each chunk's normals
    are drawn once and seen by every half scale, so a row does not
    depend on the others. With h = tan(d/2) and w = 1/(1 + h^2),
    cos d = 2w - 1 and sin d = 2hw, so four pairwise sums per chunk (of
    w, hw, hw w and (hw)^2) give all five means. (hw)^2 rather than w^2
    gives E[sin^2 d] without the cancellation of 1 - E[cos^2 d] at
    small angles.
    """
    work = np.empty((3, 2 * ((min(_MC_CHUNK, mc.samples) + 1) // 2)))
    sums = np.zeros((len(half_scales), 4))
    for chunk_index, done in enumerate(range(0, mc.samples, _MC_CHUNK)):
        count = min(_MC_CHUNK, mc.samples - done)
        z = _box_muller_normals(mc.seed, chunk_index, count, work)
        # rows 0 and 1 are spent once the normals are built: row 0 holds
        # h, then hw; row 1 holds w, then the products' scratch
        h, w = work[0, :count], work[1, :count]
        for row, half_scale in zip(sums, np.asarray(half_scales).tolist()):
            np.multiply(z, half_scale, out=h)
            np.tan(h, out=h)
            np.multiply(h, h, out=w)
            w += 1.0
            np.divide(1.0, w, out=w)
            sum_w = w.sum()
            hw = np.multiply(h, w, out=h)
            # numpy's pairwise sums, unlike a BLAS dot, do not depend on
            # the BLAS thread count
            row += (sum_w, hw.sum(), np.multiply(hw, w, out=w).sum(),
                    np.multiply(hw, hw, out=w).sum())
    mean_w, mean_hw, mean_hww, mean_hwhw = (sums / mc.samples).T
    mean_ss = 4.0 * mean_hwhw
    return np.stack([2.0 * mean_w - 1.0, 2.0 * mean_hw, 1.0 - mean_ss, mean_ss,
                     4.0 * mean_hww - 2.0 * mean_hw], axis=1)


def _rodrigues_average(m: np.ndarray, n: np.ndarray, moments: np.ndarray,
                       samples: int) -> tuple[np.ndarray, float]:
    """Mean and standard error of U rho U^dag from the moments of (cos d, sin d)."""
    mean_c, mean_s, mean_cc, mean_ss, mean_cs = moments.tolist()
    # rho = a0 I + a.sigma with complex a; the rotation acts on a:
    # a -> (n.a) n + cos d (a - (n.a) n) + sin d (n x a)
    a = 0.5 * np.array([m[0, 1] + m[1, 0], 1j * (m[0, 1] - m[1, 0]), m[0, 0] - m[1, 1]])
    along = np.dot(n, a) * n
    fixed = 0.5 * np.trace(m) * IDENTITY_2 + pauli_vector(along)
    b_mat, c_mat = pauli_vector(a - along), pauli_vector(np.cross(n, a))
    out = fixed + mean_c * b_mat + mean_s * c_mat
    if samples > 1:
        var = (np.abs(b_mat) ** 2 * (mean_cc - mean_c**2)
               + np.abs(c_mat) ** 2 * (mean_ss - mean_s**2)
               + 2.0 * (b_mat * c_mat.conj()).real * (mean_cs - mean_c * mean_s))
        stderr = float(np.sqrt(np.clip(var / (samples - 1), 0.0, None).sum()))
    else:
        stderr = float("inf")
    return _hermitize(out), stderr


def average_montecarlo(m, s: Scenario, t, mc: McSpec = McSpec()) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Monte Carlo estimate of the Gaussian average.

    Returns the sample means of U(z) rho U(z)^dag over z ~ N(0, 1) and
    standard-error estimates: per-entry sample variances of the mean,
    aggregated in Frobenius norm. States ``m`` (..., 2, 2), the cases of
    ``s`` and times ``t`` broadcast to means (..., 2, 2), not validated,
    and standard errors (...).

    Each draw rotates the Bloch vector by d = 2 kappa t sigma z about n, so
    (Rodrigues) U rho U^dag = A + B cos d + C sin d with fixed matrices
    A, B, C. Only the sample moments of (cos d, sin d) are accumulated;
    the mean and every entry's sample variance follow from them exactly.
    Every case sees the same ``mc.samples`` normals of ``mc.seed``, drawn
    once per chunk. A case whose rotation angle is not finite at the
    largest |z| that ``_box_muller_normals`` returns gets NaN.
    """
    _require_nonneg_time(t)
    m = _states(m, 2, "average_montecarlo")
    sigma = _field_scale(s)
    # kappa t sigma, half the rotation angle per draw z: d = 2 kappa t sigma z
    half_scales = _half_angle_rates(s, t, sigma * _BOX_MULLER_MAX) * sigma
    shape, rhos, n, half_scales = _cases(m, s, (half_scales,))
    moments = _rotation_moments(mc, half_scales)
    means = np.empty((len(half_scales), 2, 2), dtype=complex)
    stderrs = np.empty(len(half_scales))
    # one case at a time: a stacked np.dot and sums would round differently
    for k, (rho, axis, case_moments) in enumerate(zip(rhos, n, moments)):
        means[k], stderrs[k] = _rodrigues_average(rho, axis, case_moments, mc.samples)
    return means.reshape(shape + (2, 2)), stderrs.reshape(shape)[()]
