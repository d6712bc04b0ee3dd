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
and chi stay exact for every finite xi; only kappa, which grows like
cosh(xi), overflows to inf.

A ``Scenario`` is the one record of a case: a boost (xi, theta, phi)
and the rest-frame rate gamma, floats for one case or broadcast arrays
for a stack, with the geometry of all its cases from one call of the
one kernel, ``_geometry``. Each element of a stack has the bits it has
alone: the kernel is element-wise numpy arithmetic plus one
``math.hypot`` per element (``_hypot``), which is correctly rounded
where numpy's ``hypot`` is not.
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


def _hypot(x, y) -> np.ndarray:
    """``math.hypot`` of each pair of elements of ``x`` and ``y``, which broadcast."""
    x, y = np.broadcast_arrays(x, y)
    return np.fromiter(map(math.hypot, x.ravel().tolist(), y.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _geometry(xi, theta, phi):
    """(kappa, n, n_perp, eta, chi) of the boosted field B' = B kappa n, on stacks.

    kappa n_perp = -2 sinh(xi/2)**2 cos(theta) sin(theta), (n_x, n_y) =
    n_perp (cos(phi), sin(phi)) and kappa n_z = cos(theta)**2 + cosh(xi)
    sin(theta)**2. ``xi`` and ``theta`` broadcast against each other to
    the shape of the scalars kappa, n_perp, eta and chi; n has that shape
    broadcast with ``phi``, plus a last axis of 3. Each element has the
    bits a stack of one gives it, whatever else is in the stack.

    kappa**2 = cos(theta)**2 + cosh(xi)**2 sin(theta)**2. Multiplied by
    s**2 = sech(xi/2)**2, with t = tanh(xi/2), the in-plane and z parts
    are p = -2 t**2 cos(theta) sin(theta) and q = s**2 + 2 t**2 sin(theta)**2:
    both stay finite, so n, eta and chi are finite for every finite
    xi, and kappa = |(p, q)|/s**2 is inf only where it overflows.
    At theta = 0 the axis is ez and kappa = 1 exactly, also where s**2
    underflows to 0. As in :func:`eta_profile`, theta is measured from
    the nearer pole, so theta = pi is exactly antiparallel and the
    scalars are exactly symmetric about pi/2. The scalars are computed
    from (xi, theta) alone, so they are bit-exactly independent of the
    azimuth. |(p, q)| is ``_hypot``.
    """
    t, s = _half_rapidity(np.asarray(xi, dtype=float))
    theta = np.asarray(theta, dtype=float)
    a = np.minimum(theta, math.pi - theta)
    ct, st = np.copysign(np.cos(a), 0.5 * math.pi - theta), np.sin(a)
    s2, t2 = s * s, t * t
    p = -2.0 * t2 * ct * st
    q = s2 + 2.0 * t2 * st * st
    h = _hypot(p, q)
    pole = h == 0.0  # theta at a pole with s**2 underflowed to 0
    if pole.any():
        p, q, h, s2 = (np.where(pole, v, x) for v, x in ((0.0, p), (1.0, q), (1.0, h), (1.0, s2)))
    n_perp, n_z = p / h, q / h
    n = np.empty(np.broadcast_shapes(p.shape, np.shape(phi)) + (3,))
    n[..., 0] = n_perp * np.cos(phi)
    n[..., 1] = n_perp * np.sin(phi)
    n[..., 2] = n_z
    with np.errstate(over="ignore", divide="ignore"):
        kappa = h / s2  # inf where s**2 is 0 or the quotient overflows
    return kappa, n, n_perp, n_perp * n_perp, n_z * np.abs(n_perp)


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

    which agrees with ``Scenario.eta_mod``, 1 - n_z**2, within 1e-12.
    The sine and cosine are taken at the distance a = min(theta, pi - theta)
    to the nearer pole, with cos(a) = sin(pi/2 - a). So nothing cancels or
    underflows near the poles, where the peak sits at large xi; eta is
    symmetric about pi/2 and exactly 0 at theta in {0, pi/2, pi}.
    ``xi`` and ``theta`` broadcast against each other; scalars give a
    scalar. A theta outside [0, pi], or NaN, is refused as ``Scenario``
    refuses it.
    """
    t, s = _half_rapidity(xi)
    a = np.asarray(theta, dtype=float)
    a = np.minimum(a, math.pi - a)
    _require(a >= 0.0, theta, "theta must lie in [0, pi]")  # also refuses NaN
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
