"""Relativistic kinematics and boosted-field geometry.

A uniform magnetic field B = B ez in the lab frame appears, to a spin
moving with rapidity ``xi`` at polar angle ``theta`` (azimuth ``phi``),
as an amplified and tilted field B' = B * d. This module computes the
Lorentz transformation of (E, B), the effective-field geometry d,
kappa = |d|, the unit axis n = d/kappa, and the two geometry-derived
modulation factors

    eta = 1 - n_z**2        (in-plane weight of the axis)
    chi = n_z * sqrt(n_x**2 + n_y**2)

together with the closed-form maximum of eta over theta.

Sign convention: d is fixed by the geometry (independent of the field
amplitude B); for theta < pi/2 its in-plane part points *opposite* to
the velocity azimuth, so the signed in-plane component n_perp =
-2 sinh(xi/2)**2 cos(theta) sin(theta) / kappa is negative there. chi is
reported non-negative; channel code that needs the signed product reads
it off the axis vector ``n`` directly.

The axis geometry, eta and its maximum are written on t = tanh(xi/2)
and s = sech(xi/2), and the excess Lorentz factor of the field
transformation as 2 sinh(xi/2)**2: no difference cancels at small
rapidity (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 1), and n, eta and chi stay exact for every finite xi; only kappa,
which grows like cosh(xi), overflows to inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoostParams:
    """Boost rapidity and velocity direction.

    xi >= 0 is the rapidity (cosh xi = Lorentz factor), theta in [0, pi]
    the polar angle of the velocity against ez, phi in [0, 2*pi) its
    azimuth.
    """

    xi: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not (self.xi >= 0.0 and math.isfinite(self.xi)):
            raise ValueError(f"rapidity must be finite and >= 0, got {self.xi!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi!r}")

    @property
    def beta(self) -> float:
        """Speed in units of c: tanh(xi) in [0, 1)."""
        return math.tanh(self.xi)

    @property
    def cosh_xi(self) -> float:
        """Lorentz factor 1/sqrt(1 - beta**2); it overflows beyond xi ~ 710."""
        try:
            return math.cosh(self.xi)
        except OverflowError:
            raise ValueError(f"rapidity xi = {self.xi!r} overflows the Lorentz factor "
                             "cosh(xi); kappa needs xi <= ~710") from None

    @property
    def velocity_unit(self) -> np.ndarray:
        """Unit vector along the velocity."""
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


@dataclass(frozen=True, eq=False)
class EffectiveField:
    """Boosted-field geometry seen by the moving spin.

    ``d`` is B'/B, ``kappa = |d| >= 1`` the amplification, ``n = d/kappa``
    the unit rotation axis, ``tilt`` the angle between n and ez (this is
    *not* the velocity azimuth; it is stored separately to avoid the
    symbol clash), and ``eta_mod``/``chi_mod`` the modulation factors.
    """

    d: np.ndarray
    kappa: float
    n: np.ndarray
    tilt: float
    eta_mod: float
    chi_mod: float

    def __post_init__(self):
        for name in ("d", "n"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def rapidity_from_beta(beta: float) -> float:
    """Rapidity xi with tanh(xi) = beta, for beta in [0, 1)."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
    return math.atanh(beta)


def boost_em_field(e_field, b_field, boost: BoostParams) -> tuple[np.ndarray, np.ndarray]:
    """Lorentz-transform static (E, B) into the frame moving with ``boost``.

    Components parallel to the velocity are unchanged; perpendicular
    parts pick up cosh(xi) and the (v/c) cross terms:

        E'_perp = cosh(xi) * (E + (v/c) x B)_perp
        B'_perp = cosh(xi) * (B - (v/c) x E)_perp

    Written as E + 2 sinh(xi/2)**2 E_perp + ... so that a field exactly
    parallel to v passes through bit-exact.
    """
    e = np.asarray(e_field, dtype=float)
    b = np.asarray(b_field, dtype=float)
    if not (np.isfinite(e).all() and np.isfinite(b).all()):
        raise ValueError("field components must be finite")
    v_hat = boost.velocity_unit
    ch = boost.cosh_xi
    excess = 2.0 * math.sinh(0.5 * boost.xi) ** 2
    beta = boost.beta
    e_perp = e - np.dot(e, v_hat) * v_hat
    b_perp = b - np.dot(b, v_hat) * v_hat
    e_prime = e + excess * e_perp + ch * beta * np.cross(v_hat, b)
    b_prime = b + excess * b_perp - ch * beta * np.cross(v_hat, e)
    return e_prime, b_prime


def effective_field(boost: BoostParams) -> EffectiveField:
    """Geometry of the boosted field direction d = B'/B.

    d_x = -2 sinh(xi/2)**2 cos(theta) sin(theta) cos(phi)
    d_y = -2 sinh(xi/2)**2 cos(theta) sin(theta) sin(phi)
    d_z = cos(theta)**2 + cosh(xi) sin(theta)**2

    kappa**2 = cos(theta)**2 + cosh(xi)**2 sin(theta)**2. Multiplied by
    s**2 = sech(xi/2)**2, with t = tanh(xi/2), the in-plane and z parts
    are -2 t**2 cos(theta) sin(theta) and s**2 + 2 t**2 sin(theta)**2:
    both stay finite, so n, tilt, eta and chi are finite for every finite
    xi, and kappa = |(those)|/s**2 is inf only where it overflows (then
    d is inf along the nonzero components of n). At theta = 0 the axis
    is ez and kappa = 1 exactly. As in :func:`eta_profile`, theta is
    measured from the nearer pole, so theta = pi is exactly antiparallel
    and the scalars are exactly symmetric about pi/2. The scalars
    (kappa, tilt, eta, chi) are computed from (xi, theta) alone, so they
    are bit-exactly independent of the azimuth.
    """
    t, s = (float(v) for v in _half_rapidity(boost.xi))
    a = min(boost.theta, math.pi - boost.theta)
    ct, st = math.copysign(math.cos(a), 0.5 * math.pi - boost.theta), math.sin(a)
    s2, t2 = s * s, t * t
    p = -2.0 * t2 * ct * st
    q = s2 + 2.0 * t2 * st * st
    h = math.hypot(p, q)
    if h == 0.0:  # theta at a pole with s**2 underflowed to 0
        p, q, h, s2 = 0.0, 1.0, 1.0, 1.0
    kappa = h / s2 if s2 else math.inf
    n_perp = p / h
    n_z = q / h
    cp, sp = math.cos(boost.phi), math.sin(boost.phi)
    n = np.array([n_perp * cp, n_perp * sp, n_z])
    d = np.array([kappa * c if c else c for c in n.tolist()])  # kappa n, no inf * 0
    # atan2 keeps full precision for nearly axis-aligned geometries,
    # where acos(n_z) would lose ~sqrt(eps)
    tilt = math.atan2(abs(n_perp), n_z)
    eta = n_perp * n_perp
    chi = n_z * abs(n_perp)
    return EffectiveField(d=d, kappa=kappa, n=n, tilt=tilt, eta_mod=eta, chi_mod=chi)


def _half_rapidity(xi) -> tuple[np.ndarray, np.ndarray]:
    """(tanh(xi/2), sech(xi/2)) for xi >= 0, finite for every xi."""
    xi = np.asarray(xi, dtype=float)
    if not (xi >= 0).all():
        raise ValueError(f"rapidity must be >= 0, got {float(np.min(xi))!r}")
    h = np.exp(-0.5 * xi)
    return np.tanh(0.5 * xi), 2.0 * h / (1.0 + h * h)


def eta_profile(xi, theta):
    """Closed-form eta as a function of rapidity and polar angle.

    With t = tanh(xi/2) and s = sech(xi/2), eta = r**2 where

        r = 2 t**2 sin(theta) cos(theta) / hypot(s**2, 2 t sin(theta)),

    which agrees with 1 - n_z**2 of :func:`effective_field` within 1e-12.
    The sine and cosine are taken at the distance a = min(theta, pi - theta)
    to the nearer pole, with cos(a) = sin(pi/2 - a). So nothing cancels or
    underflows near the poles, where the peak sits at large xi; eta is
    symmetric about pi/2 and exactly 0 at theta in {0, pi/2, pi}.
    ``xi`` and ``theta`` broadcast against each other; scalars give a
    scalar.
    """
    t, s = _half_rapidity(xi)
    a = np.asarray(theta, dtype=float)
    a = np.minimum(a, math.pi - a)
    sin_a = np.sin(a)
    num = 2.0 * t * t * sin_a * np.sin(0.5 * math.pi - a)
    r = np.divide(num, np.hypot(s * s, 2.0 * t * sin_a), out=np.zeros(np.shape(num)),
                  where=num > 0)
    return (r * r)[()]


@dataclass(frozen=True)
class EtaMax:
    """Maximum of eta over theta at fixed rapidity (scalars or arrays), with its location."""

    eta_max: float | np.ndarray
    theta_opt: float | np.ndarray
    chi_at_opt: float | np.ndarray


def eta_max(xi) -> EtaMax:
    """Maximise eta over theta for a given rapidity; broadcasts over ``xi``.

    With t = tanh(xi/2) and s = sech(xi/2): eta_max = t**4 at
    cos(2 theta_opt) = t**2, i.e. theta_opt = asin(s/sqrt(2)) in
    [0, pi/4], and the other modulation factor there is
    chi = t**2 s sqrt(1 + t**2). At xi = 0 the profile is identically
    zero and theta_opt = pi/4.
    """
    t, s = _half_rapidity(xi)
    t2 = t * t
    return EtaMax(eta_max=(t2 * t2)[()], theta_opt=np.arcsin(s / math.sqrt(2.0))[()],
                  chi_at_opt=(t2 * s * np.sqrt(1.0 + t2))[()])
