"""Relativistic kinematics and boosted-field geometry.

A uniform magnetic field B = B ez in the lab frame appears, to a spin
moving with rapidity ``xi`` at polar angle ``theta`` (azimuth ``phi``),
as an amplified field turned away from ez, B' = B * d. This module
computes the effective-field geometry d, kappa = |d|, the unit axis
n = d/kappa, and the two geometry-derived modulation factors

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
and s = sech(xi/2): no difference cancels at small rapidity (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 1), and n, eta
and chi stay exact for every finite xi; only kappa, which grows like
cosh(xi), overflows to inf.

A ``BoostParams`` holds one boost (floats) or a stack of boosts
(arrays of one shape). The geometry has one kernel, ``_geometry``, on
broadcast arrays of (xi, theta, phi), and ``effective_field`` maps one
boost or a whole stack with one call of it. Each element of a stack has
the bits it has alone: the kernel is element-wise numpy arithmetic plus
one ``math.hypot`` per element (``_hypot``), which is correctly rounded
where numpy's ``hypot`` is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _require(ok, value, message: str) -> None:
    """Refuse ``value`` unless ``ok``, with ``message`` and the value (a numpy
    one as a float); for a stack, with its first element that is not ``ok``."""
    if ok is True or np.all(ok):
        return
    if np.ndim(value) or isinstance(value, (np.ndarray, np.generic)):
        value = float(np.broadcast_to(value, np.shape(ok))[~np.asarray(ok)][0])
    raise ValueError(f"{message}, got {value!r}")


@dataclass(frozen=True)
class BoostParams:
    """Boost rapidity and velocity direction, of one boost or a stack.

    xi >= 0 is the rapidity (cosh xi = Lorentz factor), theta in [0, pi]
    the polar angle of the velocity against ez, phi in [0, 2*pi) its
    azimuth. Floats give one boost. Arrays broadcast against each other
    and give a stack of boosts of that shape, held as read-only float
    arrays; an invalid stack is refused with its first invalid element.
    """

    xi: float | np.ndarray
    theta: float | np.ndarray = 0.0
    phi: float | np.ndarray = 0.0

    def __post_init__(self):
        xi, theta, phi = self.xi, self.theta, self.phi
        if any(np.ndim(v) for v in (xi, theta, phi) if not isinstance(v, float)):
            columns = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (xi, theta, phi)))
            xi, theta, phi = (np.array(a) for a in columns)
            for name, a in (("xi", xi), ("theta", theta), ("phi", phi)):
                a.setflags(write=False)
                object.__setattr__(self, name, a)
        _require((xi >= 0.0) & (xi < math.inf), xi, "rapidity must be finite and >= 0")
        _require((0.0 <= theta) & (theta <= math.pi), theta, "theta must lie in [0, pi]")
        _require((0.0 <= phi) & (phi < 2.0 * math.pi), phi, "phi must lie in [0, 2*pi)")

    def __getitem__(self, key) -> BoostParams:
        """Boost or sub-stack ``key`` of a stack; one boost has float fields."""
        return BoostParams(*(_pick(a, key) for a in (self.xi, self.theta, self.phi)))


def _pick(a, key):
    """Element or sub-array ``key`` of the array ``a``; an element as a float."""
    picked = a[key]
    return float(picked) if np.ndim(picked) == 0 else picked


@dataclass(frozen=True, eq=False)
class EffectiveField:
    """Boosted-field geometry seen by the moving spin, or by a stack of them.

    ``d`` is B'/B, ``kappa = |d| >= 1`` the amplification, ``n = d/kappa``
    the unit rotation axis, and ``eta_mod``/``chi_mod`` the modulation
    factors. For a stack, the scalars are read-only arrays of the stack's
    shape, and ``d`` and ``n`` have a last axis of 3.
    """

    d: np.ndarray
    kappa: float | np.ndarray
    n: np.ndarray
    eta_mod: float | np.ndarray
    chi_mod: float | np.ndarray

    def __post_init__(self):
        for name in ("d", "kappa", "n", "eta_mod", "chi_mod"):
            value = getattr(self, name)
            if name in ("d", "n") or isinstance(value, np.ndarray):
                a = np.array(value, dtype=float)
                a.setflags(write=False)
                object.__setattr__(self, name, a)


def effective_field(boost: BoostParams) -> EffectiveField:
    """Geometry of the boosted field direction d = B'/B.

    d_x = -2 sinh(xi/2)**2 cos(theta) sin(theta) cos(phi)
    d_y = -2 sinh(xi/2)**2 cos(theta) sin(theta) sin(phi)
    d_z = cos(theta)**2 + cosh(xi) sin(theta)**2

    One call of ``_geometry``, which holds the arithmetic, for one boost
    (float scalars) or a stack (arrays of its shape).
    """
    d, kappa, n, eta, chi = _geometry(boost.xi, boost.theta, boost.phi)
    if np.ndim(kappa) == 0:  # one boost
        kappa, eta, chi = float(kappa), float(eta), float(chi)
    return EffectiveField(d=d, kappa=kappa, n=n, eta_mod=eta, chi_mod=chi)


def _hypot(x, y) -> np.ndarray:
    """``math.hypot`` of each pair of elements of ``x`` and ``y``, which broadcast."""
    x, y = np.broadcast_arrays(x, y)
    return np.fromiter(map(math.hypot, x.ravel().tolist(), y.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _geometry(xi, theta, phi):
    """(d, kappa, n, eta, chi) of ``effective_field`` on stacks.

    ``xi`` and ``theta`` broadcast against each other to the shape of the
    scalars kappa, eta and chi; d and n have that shape broadcast with
    ``phi``, plus a last axis of 3. Each element has the bits a stack of
    one gives it, whatever else is in the stack.

    kappa**2 = cos(theta)**2 + cosh(xi)**2 sin(theta)**2. Multiplied by
    s**2 = sech(xi/2)**2, with t = tanh(xi/2), the in-plane and z parts
    are p = -2 t**2 cos(theta) sin(theta) and q = s**2 + 2 t**2 sin(theta)**2:
    both stay finite, so n, eta and chi are finite for every finite
    xi, and kappa = |(p, q)|/s**2 is inf only where it overflows (then
    d is inf along the nonzero components of n, never inf * 0 = NaN).
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
    d = n.copy()
    np.multiply(kappa[..., None], n, out=d, where=n != 0.0)  # kappa n, no inf * 0
    return d, kappa, n, n_perp * n_perp, n_z * np.abs(n_perp)


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

    which agrees with 1 - n_z**2 of :func:`effective_field` within 1e-12.
    The sine and cosine are taken at the distance a = min(theta, pi - theta)
    to the nearer pole, with cos(a) = sin(pi/2 - a). So nothing cancels or
    underflows near the poles, where the peak sits at large xi; eta is
    symmetric about pi/2 and exactly 0 at theta in {0, pi/2, pi}.
    ``xi`` and ``theta`` broadcast against each other; scalars give a
    scalar. A theta outside [0, pi], or NaN, is refused as ``BoostParams``
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
