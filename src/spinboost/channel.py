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
Three equivalent faces of this map are implemented and cross-check each
other: element-wise closed forms, an operator-sum (signed-weight Kraus-like)
decomposition, and the dressed picture (rotate the axis onto ez, dephase,
rotate back).

All apply-operations are pure functions DensityMatrix -> DensityMatrix.
Each form's arithmetic lives once, in a private kernel that broadcasts
over leading axes of states, per-case operators and times and does not
validate: ``_evolve_stack`` (axes n), ``_operator_sum_stack`` (in-plane
operators from ``_axis_sigma`` and the moduli eta, chi) and
``_dressed_stack`` (rotations from ``dressing_transform``), all with the
libm factors of ``decay_factors``. Callers that run them on stacks
validate the images themselves; ``evolve_elementwise``,
``operator_sum_apply`` and ``dressed_apply`` are stacks of one that
validate their output, and agree with the stacks bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .relkin import BoostParams, EffectiveField, _geometry, effective_field
from .spinalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix, _matmul_2x2

# exp(-x) for x >= ~745 underflows anyway; 50 already rounds every reported
# digit, so "t -> infinity" is evaluated at gamma' t**2 = 50.
LONG_TIME_GAMMA_T2 = 50.0

# sz m sz flips the sign of the off-diagonal entries of m
_SZ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True, eq=False)
class Scenario:
    """A boost plus the rest-frame dephasing rate gamma, with the field geometry cached."""

    boost: BoostParams
    gamma: float
    field: EffectiveField = field(init=False)

    def __post_init__(self):
        _require_rate(self.gamma)
        object.__setattr__(self, "field", effective_field(self.boost))

    @property
    def gamma_prime(self) -> float:
        """The amplified rate kappa**2 gamma; inf where it overflows."""
        try:
            return self.field.kappa**2 * self.gamma
        except OverflowError:
            return math.inf


def _require_rate(gamma: float) -> None:
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma!r}")


def _scenario_stack(xi, theta, phi, gamma) -> list[Scenario]:
    """``Scenario(BoostParams(xi, theta, phi), gamma)`` for each element of
    the four sequences, with every geometry from one ``_geometry`` call.

    Each scenario's field has the bits ``effective_field`` gives it.
    """
    boosts = [BoostParams(*b) for b in zip(xi, theta, phi)]
    for g in gamma:
        _require_rate(g)
    d, kappa, n, eta, chi = _geometry(np.array([b.xi for b in boosts]),
                                      np.array([b.theta for b in boosts]),
                                      np.array([b.phi for b in boosts]))
    kappa, eta, chi = kappa.tolist(), eta.tolist(), chi.tolist()
    scenarios = []
    for k, (boost, g) in enumerate(zip(boosts, gamma)):
        s = object.__new__(Scenario)  # its field is set here, not computed again
        object.__setattr__(s, "boost", boost)
        object.__setattr__(s, "gamma", g)
        object.__setattr__(s, "field", EffectiveField(d[k], kappa[k], n[k], eta[k], chi[k]))
        scenarios.append(s)
    return scenarios


def decay_exponent(rate: float, t):
    """The dephasing exponent rate * t**2, evaluated as ``rate * t * t``.

    inf where it overflows and 0 at t = 0, also for an infinite rate, so
    exp(-exponent) is never NaN. ``t`` may be an array of times.
    """
    if rate == math.inf:
        return np.where(np.greater(t, 0), math.inf, 0.0)[()]
    with np.errstate(over="ignore"):
        return rate * t * t


def _require_nonneg_time(t) -> None:
    if np.any(np.less(t, 0)):
        raise ValueError(f"time must be >= 0, got {t!r}")


def _require_qubit(rho: DensityMatrix) -> None:
    if rho.dim != 2:
        raise ValueError(f"single-qubit channel needs a 2x2 state, got dim {rho.dim}")


def rest_dephasing(rho: DensityMatrix, gamma: float, t: float) -> DensityMatrix:
    """Pure dephasing lambda0*rho + lambda1*sz rho sz at rate gamma.

    Diagonal entries are copied through unchanged; off-diagonals are
    scaled by exp(-gamma t**2).
    """
    _require_nonneg_time(t)
    _require_qubit(rho)
    return DensityMatrix(_dephase_stack(rho.matrix, math.exp(-decay_exponent(gamma, t))))


def _dephase_stack(m: np.ndarray, decay) -> np.ndarray:
    """States ``m`` (..., 2, 2) with off-diagonals scaled by ``decay`` (...)."""
    m = np.asarray(m)
    out = np.empty(np.broadcast_shapes(m.shape, np.shape(decay) + (2, 2)), dtype=complex)
    out[...] = m
    out[..., 0, 1] = m[..., 0, 1] * decay
    out[..., 1, 0] = m[..., 1, 0] * decay
    return out


def evolve_elementwise(rho: DensityMatrix, s: Scenario, t: float) -> DensityMatrix:
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
    mirror of the velocity azimuth.)
    """
    _require_nonneg_time(t)
    _require_qubit(rho)
    g = decay_exponent(s.gamma_prime, t)
    return DensityMatrix(_evolve_stack(rho.matrix, s.field.n, math.exp(-g), -math.expm1(-g)))


def decay_factors(g) -> tuple[np.ndarray, np.ndarray]:
    """(exp(-g), 1 - exp(-g)) for exponents ``g``, one libm call each.

    ``math.exp``/``math.expm1`` rather than numpy's vector ``exp``, whose
    SIMD code differs from libm in the last bit on some inputs; so the
    factors, and every state built from them, do not depend on how many
    exponents are passed at once. ``1 - exp(-g)`` is ``-expm1(-g)``,
    without the cancellation at small g.
    """
    g = np.asarray(g, dtype=float)
    flat = g.ravel().tolist()
    decay = np.array([math.exp(-x) for x in flat]).reshape(g.shape)
    lost = np.array([-math.expm1(-x) for x in flat]).reshape(g.shape)
    return decay, lost


def _evolve_stack(m: np.ndarray, n: np.ndarray, decay, lost) -> np.ndarray:
    """The closed form of ``evolve_elementwise`` on stacks, without validation.

    States ``m`` (..., 2, 2), unit axes ``n`` (..., 3) and the factors
    ``decay`` = exp(-gamma' t**2) and ``lost`` = 1 - decay (...) broadcast
    against each other; returns the images (..., 2, 2).
    """
    m = np.asarray(m)
    n = np.asarray(n)
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
    """In-plane Pauli operator of the effective axis.

    cos(u)*sx + sin(u)*sy where u is the azimuth of n. For theta > pi/2
    this is the velocity-azimuth operator cos(phi)*sx + sin(phi)*sy; for
    theta < pi/2 the axis azimuth is mirrored (u = phi + pi) and the
    operator flips sign. Degenerate axis (n = ez) falls back to the
    velocity azimuth; its weights vanish there.
    """
    nx, ny, _ = s.field.n
    n_perp = math.hypot(nx, ny)
    if n_perp > 1e-300:
        ux, uy = nx / n_perp, ny / n_perp
    else:
        ux, uy = math.cos(s.boost.phi), math.sin(s.boost.phi)
    return ux * PAULI_X + uy * PAULI_Y


def operator_sum_apply(rho: DensityMatrix, s: Scenario, t: float) -> DensityMatrix:
    """Signed-weight operator-sum form of the boosted channel.

    p0*rho + (p1 - eps)*sz rho sz + p1*(eta - chi)*su rho su
          + p1*chi*(sz + su) rho (sz + su)

    with su the in-plane Pauli operator of the effective axis, chi >= 0
    and eps = p1*(eta + chi). The weight p1*(eta - chi) may be negative
    (chi > eta where n lies close to ez); the sum is still the exact
    channel, a Gaussian mixture of unitaries, hence CPTP.
    """
    _require_nonneg_time(t)
    _require_qubit(rho)
    g = decay_exponent(s.gamma_prime, t)
    return DensityMatrix(_operator_sum_stack(rho.matrix, _axis_sigma(s), s.field.eta_mod,
                                             s.field.chi_mod, math.exp(-g), -math.expm1(-g)))


def _operator_sum_stack(m: np.ndarray, su: np.ndarray, eta, chi, decay, lost) -> np.ndarray:
    """The sum of ``operator_sum_apply`` on stacks, without validation.

    States ``m`` and in-plane operators ``su`` (..., 2, 2), the moduli
    ``eta`` and ``chi`` and the factors ``decay`` = exp(-gamma' t**2) and
    ``lost`` = 1 - decay (...) broadcast against each other; returns the
    images (..., 2, 2).
    """
    def weight(x):
        return np.asarray(x)[..., None, None]

    m = np.asarray(m)
    eta, chi = weight(eta), weight(chi)
    p1 = 0.5 * weight(lost)
    p0 = 0.5 * (1.0 + weight(decay))
    out = p0 * m + (p1 - p1 * (eta + chi)) * (m * _SZ_SIGNS)
    out = out + (p1 * (eta - chi)) * _matmul_2x2(_matmul_2x2(su, m), su)
    cross = PAULI_Z + su
    return out + (p1 * chi) * _matmul_2x2(_matmul_2x2(cross, m), cross)


def dressing_transform(f: EffectiveField) -> np.ndarray:
    """SU(2) rotation V with V (sigma.n) V^dag = sigma_z.

    V = exp(-i a/2 sigma.m) with a the angle between n and ez and
    m = (n x ez)/|n x ez|; the identity when the axis already points
    along ez. The half-angle factors come from n_z and |n_perp| directly
    (no acos round trip), which keeps full relative accuracy for tiny a.
    """
    n_perp = math.hypot(float(f.n[0]), float(f.n[1]))
    if n_perp < 1e-300:
        return np.array(IDENTITY_2)
    # m = (n x ez)/|n x ez| = (n_y, -n_x, 0)/n_perp; hypot does not underflow
    mx, my = float(f.n[1]) / n_perp, -float(f.n[0]) / n_perp
    n_z = float(f.n[2])
    cos_half = math.sqrt(0.5 * (1.0 + n_z))
    # sin(a/2) = sin(a)/(2 cos(a/2)) with sin(a) = |n_perp|:
    # no 1-n_z cancellation, full relative accuracy at tiny a
    sin_half = 0.5 * n_perp / cos_half
    return cos_half * IDENTITY_2 - 1j * sin_half * (mx * PAULI_X + my * PAULI_Y)


def dressed_apply(rho: DensityMatrix, s: Scenario, t: float) -> DensityMatrix:
    """Dressed-environment form: rotate the axis onto ez, dephase, undo.

    V^dag [ dephasing at rate gamma' of V rho V^dag ] V; in the rotated
    frame the precession is a z-rotation by the full angle
    2 kappa t sqrt(gamma/2) z, so pure dephasing at gamma' = kappa**2 gamma
    is exact there.
    """
    _require_nonneg_time(t)
    _require_qubit(rho)
    decay = math.exp(-decay_exponent(s.gamma_prime, t))
    return DensityMatrix(_dressed_stack(rho.matrix, dressing_transform(s.field), decay))


def _dressed_stack(m: np.ndarray, v: np.ndarray, decay) -> np.ndarray:
    """The form of ``dressed_apply`` on stacks, without validation.

    States ``m`` and dressing rotations ``v`` (..., 2, 2) and the factors
    ``decay`` = exp(-gamma' t**2) (...) broadcast against each other;
    returns the images (..., 2, 2).
    """
    v_dag = np.conj(np.swapaxes(v, -1, -2))
    rotated = _matmul_2x2(_matmul_2x2(v, m), v_dag)
    return _matmul_2x2(_matmul_2x2(v_dag, _dephase_stack(rotated, decay)), v)


def example_trajectory(s: Scenario, t):
    """Trajectory of the fully coherent state (|up> + |down>)/sqrt(2).

    Requires phi = 0 (the azimuth that maximises the off-diagonal
    saturation modulus). Returns (rho_uu, rho_ud) with

        rho_uu(t) = [1 + n_x n_z (1 - exp(-gamma' t**2))] / 2
        rho_ud(t) = [(1 - eta) exp(-gamma' t**2) + eta] / 2

    which matches evolve_elementwise on |+><+| exactly; n_x n_z is the
    signed product (-chi for theta < pi/2, +chi beyond), so for
    theta_opt the population drifts down to (1 - chi)/2 while the
    coherence saturates at eta/2. ``t`` may be an array of times; the
    result is then a pair of arrays (real and complex) of its shape.
    """
    if s.boost.phi != 0.0:
        raise ValueError(f"trajectory closed form assumes phi = 0, got phi = {s.boost.phi!r}")
    _require_nonneg_time(t)
    t = np.asarray(t, dtype=float)
    nx, _, nz = s.field.n
    eta = s.field.eta_mod
    g = decay_exponent(s.gamma_prime, t)
    decay = np.exp(-g)
    rho_uu = 0.5 * (1.0 - nx * nz * np.expm1(-g))
    rho_ud = 0.5 * ((1.0 - eta) * decay + eta) + 0j
    return rho_uu[()], rho_ud[()]


def plus_state() -> DensityMatrix:
    """|+><+|, the fully coherent initial state (all entries 1/2)."""
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
