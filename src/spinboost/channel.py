"""Closed-form decoherence channel of a boosted spin in Gaussian magnetic noise.

The lab-frame field B ez is quasi-static and Gaussian, B ~ N(0, vartheta**2).
At rest the spin dephases: off-diagonals shrink by exp(-gamma t**2) with
gamma = 2 vartheta**2 mu**2, populations frozen. In the moving frame the
spin precesses about the tilted axis n by the angle delta = 2 kappa mu t B,
and the Gaussian average of that precession is the exact channel

    r(t) = exp(-gamma' t**2) r + (1 - exp(-gamma' t**2)) (n.r) n,

on Bloch vectors, with gamma' = kappa**2 gamma: the component of the state
along the axis survives, everything else decays at the amplified rate.
Three equivalent faces of this map are implemented and cross-check each
other: element-wise closed forms, an operator-sum (signed-weight Kraus-like)
decomposition, and the dressed picture (rotate the axis onto ez, dephase,
rotate back).

All apply-operations are pure functions DensityMatrix -> DensityMatrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .relkin import BoostParams, EffectiveField, effective_field
from .spinalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix

# exp(-x) for x >= ~745 underflows anyway; 50 already rounds every reported
# digit, so "t -> infinity" is evaluated at gamma' t**2 = 50.
LONG_TIME_GAMMA_T2 = 50.0


@dataclass(frozen=True)
class NoiseSpec:
    """Magnetic moment and Gaussian field strength; gamma = 2 vartheta**2 mu**2."""

    vartheta: float
    mu: float = 1.0

    def __post_init__(self):
        if not 0 < self.vartheta < math.inf:
            raise ValueError(f"vartheta must be finite and > 0, got {self.vartheta!r}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu!r}")

    @property
    def gamma(self) -> float:
        """The dephasing rate; inf where it overflows, as a product of floats would."""
        try:
            return 2.0 * self.vartheta**2 * self.mu**2
        except OverflowError:
            return math.inf

    @classmethod
    def from_gamma(cls, gamma: float, mu: float = 1.0) -> "NoiseSpec":
        if not gamma > 0:
            raise ValueError(f"gamma must be > 0, got {gamma!r}")
        try:
            vartheta = math.sqrt(gamma / (2.0 * mu * mu))
        except ZeroDivisionError:
            raise ValueError(f"2 mu**2 underflows to 0 at mu = {mu!r}") from None
        return cls(vartheta=vartheta, mu=mu)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A boost plus a noise model, with the field geometry cached."""

    boost: BoostParams
    noise: NoiseSpec
    field: EffectiveField = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "field", effective_field(self.boost))

    @property
    def gamma_prime(self) -> float:
        """The amplified rate kappa**2 gamma; inf where it overflows."""
        try:
            return self.field.kappa**2 * self.noise.gamma
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class ChannelCoeffs:
    """Scalar coefficients of the channel at a given time.

    p0 - p1 = exp(-gamma' t**2), p0 + p1 = 1, epsilon = p1*(eta + chi).
    """

    gamma_prime: float
    decay: float
    p0: float
    p1: float
    epsilon: float


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
    decay = math.exp(-decay_exponent(gamma, t))
    m = rho.matrix
    out = np.array(m)
    out[0, 1] = m[0, 1] * decay
    out[1, 0] = m[1, 0] * decay
    return DensityMatrix(out)


def channel_coeffs(s: Scenario, t: float) -> ChannelCoeffs:
    """Coefficients (gamma', p0, p1, epsilon) of the boosted channel at time t."""
    _require_nonneg_time(t)
    gp = s.gamma_prime
    g = decay_exponent(gp, t)
    decay = math.exp(-g)
    p1 = -0.5 * math.expm1(-g)  # (1 - decay)/2 without its cancellation at small g
    return ChannelCoeffs(
        gamma_prime=gp,
        decay=decay,
        p0=0.5 * (1.0 + decay),
        p1=p1,
        epsilon=p1 * (s.field.eta_mod + s.field.chi_mod),
    )


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
    m = rho.matrix
    nx, ny, nz = s.field.n
    g = decay_exponent(s.gamma_prime, t)
    decay = math.exp(-g)
    lost = -math.expm1(-g)  # 1 - decay
    r01 = m[0, 1]
    r10 = m[1, 0]
    rz = (m[0, 0] - m[1, 1]).real
    n_dot_r = ((nx + 1j * ny) * r01 + (nx - 1j * ny) * r10).real + nz * rz
    d_uu = 0.5 * (rz - n_dot_r * nz)
    d_ud = 0.5 * n_dot_r * (nx - 1j * ny)
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = m[0, 0].real - d_uu * lost
    out[0, 1] = r01 * decay + d_ud * lost
    out[1, 0] = np.conj(out[0, 1])
    out[1, 1] = 1.0 - out[0, 0].real
    return DensityMatrix(out)


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
    (chi > eta for small tilt); the sum is still the exact channel, a
    Gaussian mixture of unitaries, hence CPTP.
    """
    _require_nonneg_time(t)
    _require_qubit(rho)
    c = channel_coeffs(s, t)
    eta = s.field.eta_mod
    chi = s.field.chi_mod
    su = _axis_sigma(s)
    m = rho.matrix
    sz_m_sz = PAULI_Z @ m @ PAULI_Z
    out = c.p0 * m + (c.p1 - c.epsilon) * sz_m_sz
    out += (c.p1 * (eta - chi)) * (su @ m @ su)
    cross = PAULI_Z + su
    out += (c.p1 * chi) * (cross @ m @ cross)
    return DensityMatrix(out)


def dressing_transform(f: EffectiveField) -> np.ndarray:
    """SU(2) rotation V with V (sigma.n) V^dag = sigma_z.

    V = exp(-i tilt/2 sigma.m) with m = (n x ez)/|n x ez|; the identity
    when the axis already points along ez. The half-angle factors come
    from n_z and |n_perp| directly (no acos round trip), which keeps
    full relative accuracy for tiny tilts.
    """
    n_perp = math.hypot(float(f.n[0]), float(f.n[1]))
    if f.tilt == 0.0 or n_perp < 1e-300:
        return np.array(IDENTITY_2)
    # m = (n x ez)/|n x ez| = (n_y, -n_x, 0)/n_perp; hypot does not underflow
    mx, my = float(f.n[1]) / n_perp, -float(f.n[0]) / n_perp
    n_z = float(f.n[2])
    cos_half = math.sqrt(0.5 * (1.0 + n_z))
    # sin(tilt/2) = sin(tilt)/(2 cos(tilt/2)) with sin(tilt) = |n_perp|:
    # no 1-n_z cancellation, full relative accuracy at tiny tilts
    sin_half = 0.5 * n_perp / cos_half
    return cos_half * IDENTITY_2 - 1j * sin_half * (mx * PAULI_X + my * PAULI_Y)


def dressed_apply(rho: DensityMatrix, s: Scenario, t: float) -> DensityMatrix:
    """Dressed-environment form: rotate the axis onto ez, dephase, undo.

    V^dag [ dephasing at rate gamma' of V rho V^dag ] V; the z-rotation
    exponent kappa*delta0 (delta0 = 2 mu t B) reproduces the full
    rotation angle, so pure dephasing at gamma' = kappa**2 gamma is
    exact in the rotated frame.
    """
    _require_nonneg_time(t)
    _require_qubit(rho)
    v = dressing_transform(s.field)
    rotated = DensityMatrix(v @ rho.matrix @ v.conj().T)
    dephased = rest_dephasing(rotated, s.gamma_prime, t)
    return DensityMatrix(v.conj().T @ dephased.matrix @ v)


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
