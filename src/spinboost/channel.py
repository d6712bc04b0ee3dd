"""Closed-form decoherence channel of a boosted spin in Gaussian magnetic noise.

The lab-frame field B ez is quasi-static and Gaussian, B ~ N(0, vartheta**2),
and couples through the magnetic moment mu. Every result depends on the
noise only through the rest-frame rate gamma = 2 vartheta**2 mu**2, which
is the one noise parameter of a ``Scenario``. At rest the spin dephases:
off-diagonals shrink by exp(-gamma t**2), populations frozen. In the
moving frame the spin precesses about the boosted axis n by the angle
2 kappa t sqrt(gamma/2) z with z ~ N(0, 1), and the Gaussian average of
that precession is the exact channel

    r(t) = exp(-gamma' t**2) r + (1 - exp(-gamma' t**2)) (n.r) n,

on Bloch vectors, with gamma' = kappa**2 gamma: the component of the state
along the axis survives, everything else decays at the amplified rate.
Three equivalent faces of this map are implemented: the element-wise
closed form, which is the production path, and two cross-checks of it,
an operator-sum (signed-weight Kraus-like) decomposition and the dressed
picture (rotate the axis onto ez, dephase, rotate back).

This module holds only the closed forms; a case, or a stack of cases,
is a ``relkin.Scenario``. Each form is one function
on stacks in numpy's (..., 2, 2) convention: ``evolve_elementwise``,
``operator_sum_apply`` and ``dressed_apply`` take states (..., 2, 2), a
scenario and times that broadcast against each other, and return the
images (..., 2, 2) without validating them; callers validate, for
example with ``spinalg.require_valid``. Every factor exp(-rate t**2) is
``decay_exponent`` followed by ``decay_factors`` (numpy's ``exp`` and
``expm1``), which give an element the same bits wherever it sits in a
stack, so each image has the bits it has alone.
"""

from __future__ import annotations

import numpy as np

from .relkin import Scenario, _require_nonneg_time
from .spinalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, _const, _matmul, _states

# exp(-x) for x >= ~745 underflows anyway; 50 already rounds every reported
# digit, so "t -> infinity" is evaluated at gamma' t**2 = 50.
LONG_TIME_GAMMA_T2 = 50.0

# sz m sz flips the sign of the off-diagonal entries of m
_SZ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def decay_exponent(rate, t):
    """The dephasing exponent rate * t**2, evaluated as ``rate * t * t``.

    inf where it overflows and 0 at t = 0, also for an infinite rate, so
    exp(-exponent) is never NaN. ``rate`` and ``t`` may be arrays, which
    broadcast.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(np.equal(t, 0), 0.0, rate * t * t)[()]


def _dephase(m: np.ndarray, decay) -> np.ndarray:
    """States ``m`` (..., 2, 2) with off-diagonals scaled by ``decay`` (...)."""
    m = np.asarray(m)
    out = np.empty(np.broadcast_shapes(m.shape, np.shape(decay) + (2, 2)), dtype=complex)
    out[...] = m
    out[..., 0, 1] = m[..., 0, 1] * decay
    out[..., 1, 0] = m[..., 1, 0] * decay
    return out


def decay_factors(g) -> tuple[np.ndarray, np.ndarray]:
    """(exp(-g), 1 - exp(-g)) for exponents ``g``, from numpy's ``exp`` and ``expm1``.

    Each factor has the bits its exponent gives alone, whatever the
    length, offset or stride of the array it sits in. ``1 - exp(-g)`` is
    ``-expm1(-g)``, without the cancellation at small g.
    """
    g = np.asarray(g, dtype=float)
    return np.exp(-g), -np.expm1(-g)


def _decay(s: Scenario, t) -> tuple[np.ndarray, np.ndarray]:
    """``decay_factors`` of exp(-gamma' t**2) for the cases of ``s`` at times ``t``."""
    _require_nonneg_time(t)
    return decay_factors(decay_exponent(s.gamma_prime, t))


def evolve_elementwise(m, s: Scenario, t) -> np.ndarray:
    """Element-wise closed form of the Gaussian-averaged precession.

    rho_uu(t) = rho_uu - D_uu (1 - exp(-gamma' t**2))
    rho_ud(t) = rho_ud exp(-gamma' t**2) + D_ud (1 - exp(-gamma' t**2))
    rho_dd    = 1 - rho_uu(t), rho_du = conj(rho_ud(t))

    with the shift terms taken from the exact Bloch projection onto the
    effective axis n:

    D_uu = [r_z - (n.r) n_z] / 2,   D_ud = (n.r) (n_x - i n_y) / 2.

    (Equivalently D_uu = [eta r_z - n_z n_perp (rho_ud e^{i phi} +
    rho_du e^{-i phi})]/2 with the *signed* in-plane component n_perp;
    the sign matters for theta < pi/2, where the axis azimuth is the
    mirror of the velocity azimuth.) States ``m`` (..., 2, 2), the cases
    of ``s`` and times ``t`` broadcast; the images (..., 2, 2) are not
    validated.
    """
    m = _states(m, 2, "single-qubit channel")
    decay, lost = _decay(s, t)
    n = s.n
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    r01 = m[..., 0, 1]
    r10 = m[..., 1, 0]
    rz = (m[..., 0, 0] - m[..., 1, 1]).real
    # Re[(nx + i ny) r01 + (nx - i ny) r10] in real arithmetic: numpy's complex
    # product on arrays may fuse multiply-adds, which moves last bits by CPU
    n_dot_r = ((nx * r01.real - ny * r01.imag) + (nx * r10.real + ny * r10.imag)) + nz * rz
    d_uu = 0.5 * (rz - n_dot_r * nz)
    d_ud = 0.5 * n_dot_r * (nx - 1j * ny)
    uu = m[..., 0, 0].real - d_uu * lost
    ud = r01 * decay + d_ud * lost
    out = np.empty(np.shape(ud) + (2, 2), dtype=complex)
    out[..., 0, 0] = uu
    out[..., 0, 1] = ud
    out[..., 1, 0] = np.conj(ud)
    out[..., 1, 1] = 1.0 - uu
    return out


def _axis_sigma(s: Scenario) -> np.ndarray:
    """In-plane Pauli operators (..., 2, 2) of the effective axes of ``s``.

    sign(n_perp) (cos(phi) sx + sin(phi) sy): for theta > pi/2 the axis
    azimuth is the velocity azimuth phi; for theta < pi/2, where n_perp
    is negative, it is mirrored (phi + pi) and the operator flips sign.
    The sign is +1 at n_perp = +-0, where the axis is ez and the weights
    of the operator vanish.
    """
    sign = np.where(np.less(s.n_perp, 0.0), -1.0, 1.0)
    ux, uy = sign * np.cos(s.phi), sign * np.sin(s.phi)
    return ux[..., None, None] * PAULI_X + uy[..., None, None] * PAULI_Y


def operator_sum_apply(m, s: Scenario, t) -> np.ndarray:
    """Signed-weight operator-sum form of the boosted channel.

    p0*rho + (p1 - eps)*sz rho sz + p1*(eta - chi)*su rho su
          + p1*chi*(sz + su) rho (sz + su)

    with su the in-plane Pauli operator of the effective axis, chi >= 0
    and eps = p1*(eta + chi). The weight p1*(eta - chi) may be negative
    (chi > eta where n lies close to ez); the sum is still the exact
    channel, a Gaussian mixture of unitaries, hence CPTP. States ``m``
    (..., 2, 2), the cases of ``s`` and times ``t`` broadcast; the images
    (..., 2, 2) are not validated.
    """
    def weight(x):
        return np.asarray(x)[..., None, None]

    m = _states(m, 2, "single-qubit channel")
    decay, lost = _decay(s, t)
    su = _axis_sigma(s)
    eta, chi = weight(s.eta_mod), weight(s.chi_mod)
    p1 = 0.5 * weight(lost)
    p0 = 0.5 * (1.0 + weight(decay))
    out = p0 * m + (p1 - p1 * (eta + chi)) * (m * _SZ_SIGNS)
    out = out + (p1 * (eta - chi)) * _matmul(_matmul(su, m), su)
    cross = PAULI_Z + su
    return out + (p1 * chi) * _matmul(_matmul(cross, m), cross)


def dressing_transform(s: Scenario) -> np.ndarray:
    """SU(2) rotations V (..., 2, 2) with V (sigma.n) V^dag = sigma_z, one per case of ``s``.

    V = exp(-i a/2 sigma.m) with a the angle between n and ez and
    m = (n x ez)/|n x ez| = sign(n_perp) (sin(phi), -cos(phi), 0); the
    identity where n = ez. With sin(a/2) = |n_perp| / (2 cos(a/2)), from
    n_z and n_perp directly (no acos round trip, no 1 - n_z cancellation,
    full relative accuracy for tiny a), sin(a/2) m is n_perp / (2 cos(a/2))
    (sin(phi), -cos(phi), 0); cos(a/2) >= 1/sqrt(2), as n_z >= 0.
    """
    def column(x):
        return np.asarray(x)[..., None, None]

    cos_half = np.sqrt(0.5 * (1.0 + s.n[..., 2]))
    sin_half_m = 0.5 * s.n_perp / cos_half
    return (column(cos_half) * IDENTITY_2 - 1j * column(sin_half_m)
            * (column(np.sin(s.phi)) * PAULI_X - column(np.cos(s.phi)) * PAULI_Y))


def dressed_apply(m, s: Scenario, t) -> np.ndarray:
    """Dressed-environment form: rotate the axis onto ez, dephase, undo.

    V^dag [ dephasing at rate gamma' of V rho V^dag ] V; in the rotated
    frame the precession is a z-rotation by the full angle
    2 kappa t sqrt(gamma/2) z, so pure dephasing at gamma' = kappa**2 gamma
    is exact there. States ``m`` (..., 2, 2), the cases of ``s`` and times
    ``t`` broadcast; the images (..., 2, 2) are not validated.
    """
    m = _states(m, 2, "single-qubit channel")
    decay, _ = _decay(s, t)
    v = dressing_transform(s)
    v_dag = np.conj(np.swapaxes(v, -1, -2))
    rotated = _matmul(_matmul(v, m), v_dag)
    return _matmul(_matmul(v_dag, _dephase(rotated, decay)), v)


def plus_state() -> np.ndarray:
    """|+><+|, the fully coherent initial state (all entries 1/2), read-only.

    At phi = 0 the channel takes its coherence rho_ud from 1/2 down to
    eta/2 and its population rho_uu to (1 + n_x n_z)/2, with n_x n_z the
    signed product (-chi below theta = pi/2).
    """
    return _const(np.full((2, 2), 0.5))
