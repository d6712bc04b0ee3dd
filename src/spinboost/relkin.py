"""Relativistic kinematics and boosted-field geometry.

A uniform magnetic field B = B ez in the lab frame appears, to a spin
moving with rapidity ``xi`` at polar angle ``theta`` (azimuth ``phi``),
as an amplified field turned away from ez, B' = B kappa n. This module
computes the amplification kappa, the unit axis n, its signed in-plane
component n_perp, and the two geometry-derived modulation factors

    eta = 1 - n_z**2        (in-plane weight of the axis)
    chi = n_z * sqrt(n_x**2 + n_y**2)

together with the closed-form maximum of eta over theta.

Sign convention: n is fixed by the geometry (independent of the field
amplitude B); for theta < pi/2 its in-plane part points *opposite* to
the velocity azimuth, so the signed in-plane component n_perp, with
(n_x, n_y) = n_perp (cos(phi), sin(phi)), is negative there. chi is
reported non-negative; channel code that needs the sign reads n_perp.

The axis geometry, eta and its maximum are written on t = tanh(xi/2)
and s = sech(xi/2): no difference cancels at small rapidity (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 1), and n, eta
and chi stay finite for every finite xi; only kappa, which grows like
cosh(xi), overflows to inf. One convention for theta holds throughout:
it is measured from the nearer pole, a = min(theta, pi - theta) with
``math.pi`` taken as pi, and cos(theta) is +-sin(pi/2 - a). So theta =
pi is exactly antiparallel, the geometry is exactly symmetric about
pi/2, and n_perp, eta and chi are exactly 0 at theta = ``math.pi/2``.

A ``Scenario`` is the one record of a case: a boost (xi, theta, phi)
and the rest-frame rate gamma, floats for one case or broadcast arrays
for a stack. ``_geometry``, which it calls once for all its cases, and
``eta_profile`` read one element-wise kernel, ``_polar``, so each case
has the bits it has alone. Those bits are fixed per machine, numpy
build and SIMD dispatch level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _require(ok, value, message: str) -> None:
    """Refuse ``value`` unless ``ok``, with ``message`` and the value (a numpy
    one as a float); for a stack, with its first element that is not ``ok``."""
    if ok is True or np.all(ok):
        return
    if np.ndim(value) or isinstance(value, (np.ndarray, np.generic)):
        value = float(np.broadcast_to(value, np.shape(ok))[~np.asarray(ok)][0])
    raise ValueError(f"{message}, got {value!r}")


def _require_nonneg_time(t) -> None:
    """Refuse a time, or a stack of times, that is negative or NaN."""
    _require(np.greater_equal(t, 0), t, "time must be >= 0")


_COLUMNS = ("xi", "theta", "phi", "gamma")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A boost and the rest-frame dephasing rate gamma, with the boosted field's geometry.

    xi >= 0 is the rapidity (cosh xi = Lorentz factor), theta in [0, pi]
    the polar angle of the velocity against ez, phi in [0, 2*pi) its
    azimuth and gamma > 0 the rest-frame rate. Floats give one case, with
    float fields and ``n`` of shape (3,). Arrays broadcast against each
    other and give a stack of cases of that shape, held as read-only
    float arrays (``n`` has a last axis of 3); an invalid column is
    refused with its first invalid element. The geometry is one
    ``_geometry`` call: the amplification ``kappa >= 1``, the unit axis
    ``n``, its signed in-plane component ``n_perp`` and the modulation
    factors ``eta_mod`` and ``chi_mod``. ``gamma_prime`` is the amplified
    rate kappa**2 gamma, with kappa**2 as ``kappa * kappa`` (correctly
    rounded), inf where it overflows. Each case has the bits it has
    alone, and ``s[key]`` is the case or sub-stack ``key``.
    """

    xi: float | np.ndarray
    theta: float | np.ndarray = 0.0
    phi: float | np.ndarray = 0.0
    gamma: float | np.ndarray = field(kw_only=True)
    kappa: float | np.ndarray = field(init=False)
    n: np.ndarray = field(init=False)
    n_perp: float | np.ndarray = field(init=False)
    eta_mod: float | np.ndarray = field(init=False)
    chi_mod: float | np.ndarray = field(init=False)
    gamma_prime: float | np.ndarray = field(init=False)

    def __post_init__(self):
        columns = [getattr(self, name) for name in _COLUMNS]
        if any(np.ndim(v) for v in columns if not isinstance(v, float)):
            columns = [np.array(a) for a in
                       np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in columns))]
            for name, a in zip(_COLUMNS, columns):
                a.setflags(write=False)
                object.__setattr__(self, name, a)
        xi, theta, phi, gamma = columns
        _require((xi >= 0.0) & (xi < math.inf), xi, "rapidity must be finite and >= 0")
        _require((0.0 <= theta) & (theta <= math.pi), theta, "theta must lie in [0, pi]")
        _require((0.0 <= phi) & (phi < 2.0 * math.pi), phi, "phi must lie in [0, 2*pi)")
        _require((0 < gamma) & (gamma < math.inf), gamma, "gamma must be finite and > 0")
        kappa, n, n_perp, eta, chi = _geometry(xi, theta, phi)
        if np.ndim(kappa) == 0:  # one case
            kappa, n_perp, eta, chi = float(kappa), float(n_perp), float(eta), float(chi)
        with np.errstate(over="ignore"):
            gamma_prime = kappa * kappa * gamma
        for name, value in (("kappa", kappa), ("n", n), ("n_perp", n_perp), ("eta_mod", eta),
                            ("chi_mod", chi), ("gamma_prime", gamma_prime)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __getitem__(self, key) -> Scenario:
        xi, theta, phi, gamma = (getattr(self, name)[key] for name in _COLUMNS)
        if np.ndim(xi) == 0:  # one case, of float columns
            xi, theta, phi, gamma = float(xi), float(theta), float(phi), float(gamma)
        return Scenario(xi, theta, phi, gamma=gamma)


def _geometry(xi, theta, phi):
    """(kappa, n, n_perp, eta, chi) of the boosted field B' = B kappa n, on stacks.

    kappa n_perp = -2 sinh(xi/2)**2 cos(theta) sin(theta), (n_x, n_y) =
    n_perp (cos(phi), sin(phi)) and kappa n_z = cos(theta)**2 + cosh(xi)
    sin(theta)**2. ``xi`` and ``theta`` broadcast against each other to
    the shape of the scalars kappa, n_perp, eta and chi; n has that shape
    broadcast with ``phi``, plus a last axis of 3.

    Multiplied by s**2, the in-plane and z parts are p = -2 t**2
    cos(theta) sin(theta) and q = s**2 + 2 t**2 sin(theta)**2, finite for
    every finite xi; kappa = |(p, q)|/s**2 is inf where s**2 underflows
    to 0 or the quotient overflows. At theta = 0 the axis is ez and
    kappa = 1 exactly, also where s**2 underflows to 0. The scalars do
    not read the azimuth, so they are bit-exactly independent of it.
    """
    s2, w, st, r, h = _polar(xi, theta)
    p = np.copysign(r, np.subtract(theta, 0.5 * math.pi))  # -r for theta < pi/2
    q = s2 + w * st
    pole = h == 0.0  # theta at a pole with s**2 underflowed to 0
    if pole.any():
        p, q, h, s2 = (np.where(pole, v, x) for v, x in ((0.0, p), (1.0, q), (1.0, h), (1.0, s2)))
    n_perp, n_z = p / h, q / h
    n = np.empty(np.broadcast_shapes(np.shape(p), np.shape(phi)) + (3,))
    n[..., 0] = n_perp * np.cos(phi)
    n[..., 1] = n_perp * np.sin(phi)
    n[..., 2] = n_z
    with np.errstate(over="ignore", divide="ignore"):
        kappa = h / s2  # inf where s**2 is 0 or the quotient overflows
    return kappa, n, n_perp, n_perp * n_perp, n_z * np.abs(n_perp)


def _polar(xi, theta):
    """(s**2, 2 t**2 sin a, sin a, |p|, |(p, q)|): what _geometry and eta_profile share.

    a = min(theta, pi - theta) is the distance to the nearer pole. As
    s**2 + t**2 = 1, |(p, q)| = hypot(s**2, 2 t sin a), two terms that
    cannot cancel. A theta outside [0, pi], or NaN, is refused as
    ``Scenario`` refuses it.
    """
    t, s = _half_rapidity(xi)
    a = np.minimum(theta, np.subtract(math.pi, theta))
    _require(a >= 0.0, theta, "theta must lie in [0, pi]")  # also refuses NaN
    sin_a, s2 = np.sin(a), s * s
    w = 2.0 * t * t * sin_a
    return s2, w, sin_a, w * np.sin(0.5 * math.pi - a), np.hypot(s2, 2.0 * t * sin_a)


def _half_rapidity(xi) -> tuple[np.ndarray, np.ndarray]:
    """(tanh(xi/2), sech(xi/2)) for xi >= 0, finite for every xi.

    A float ``xi`` gives numpy scalars from the same ufuncs, bit for bit
    what an array gives, in about 1 us where 0-d arrays take about 8.
    """
    if isinstance(xi, float):
        valid = xi >= 0
    else:
        xi = np.asarray(xi, dtype=float)
        valid = (xi >= 0).all()
    if not valid:
        raise ValueError(f"rapidity must be >= 0, got {float(np.min(xi))!r}")
    h = np.exp(-0.5 * xi)
    return np.tanh(0.5 * xi), 2.0 * h / (1.0 + h * h)


def eta_profile(xi, theta):
    """Closed-form eta as a function of rapidity and polar angle.

    With t = tanh(xi/2) and s = sech(xi/2), eta = r**2 where

        r = 2 t**2 sin(theta) cos(theta) / hypot(s**2, 2 t sin(theta)),

    the same expression, from the same :func:`_polar`, as
    ``Scenario.eta_mod`` = n_perp**2 = 1 - n_z**2, so the two have the
    same bits. eta is symmetric about pi/2 and exactly 0 at theta in
    {0, pi/2, pi}. ``xi`` and ``theta`` broadcast against each other;
    scalars give a scalar. A theta outside [0, pi], or NaN, is refused as
    ``Scenario`` refuses it.
    """
    _, _, _, r, h = _polar(xi, theta)
    # h is 0 only where r is (at a pole past xi ~ 745), where eta is 0
    pole = h == 0.0
    if pole.any():
        h = np.where(pole, 1.0, h)
    r = r / h
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
    cos(2 theta_opt) = t**2, i.e. sin(theta_opt) = s/sqrt(2) and
    theta_opt = atan2(s, sqrt(2 - s**2)) in [0, pi/4], and the other
    modulation factor there is chi = t**2 s sqrt(1 + t**2). At xi = 0
    the profile is identically zero and theta_opt = math.pi/4 exactly.
    """
    t, s = _half_rapidity(xi)
    t2 = t * t
    return EtaMax(eta_max=(t2 * t2)[()], theta_opt=np.arctan2(s, np.sqrt(2.0 - s * s))[()],
                  chi_at_opt=(t2 * s * np.sqrt(1.0 + t2))[()])
