"""Independent numerical ground truth for the Gaussian-averaged channel.

Nothing in here reuses the closed forms: the state is propagated with the
exact per-draw unitary U(z), the rotation by 2 kappa t sigma z about n,
and averaged over z ~ N(0, 1) either by Gauss-Hermite quadrature
(spectrally exact for these Gaussian-times-trigonometric integrands) or
by seeded Monte Carlo. The field scale sigma = sqrt(gamma/2), the
coupling times the field's standard deviation, comes from the one rate
of a ``Scenario``. Nothing is imported or shared from ``channel``, only
generic algebra from ``spinalg`` (``pauli_vector``, ``_hermitize``,
``_matmul``, ``_kron``); but the case's ``kappa`` and ``n`` are read, as
the closed forms read them. The quadrature covers one qubit and two in a
common bath, U(z) (x) U(z).

Each oracle is one function on stacks in numpy's (..., d, d) convention:
states, a ``Scenario`` (one case or a stack) and times broadcast against
each other, and the averages are returned without validation, NaN where
the oracle refuses a case because its rotation angle 2 kappa t sigma z
has no finite value (``_half_angle_rates``). ``_require_quadrature``
names the first case the quadrature refuses.

Quadrature: with U(z) = c I - i s N, c = cos x, s = sin x,
x = kappa t sigma z and N = n.sigma, k qubits in one bath turn by
U^(x)k = sum_j c^(k-j) (-i s)^j E_j, with E_0 = I, E_1 = N on each site
summed and, for two qubits, E_2 = N (x) N. So a case's average needs
only the 2k + 1 weighted sums m_j of w c^(2k-j) s^j over the nodes, each
a numpy pairwise sum along the node axis in node order, and then k + 1
terms of 2x2 or 4x4 products (broadcast products, ``spinalg._matmul``).
No step is a BLAS call, so the bits do not depend on the BLAS thread
count. ``average_quadrature`` and ``two_qubit_average`` are two entries
to this one kernel, ``_bath_average``; it takes its cases in blocks of
fixed size, and a case gets the same bits alone, among others or in
another order.

Determinism contracts: the nodes and weights (``gauss_hermite_nodes``)
come from element-wise numpy operations on arrays of about n/2 floats:
asymptotic starts, a fixed number of Newton steps on the three-term
recurrence and exact rescaling by powers of two. No step is a BLAS or
LAPACK call, so their bits do not depend on the BLAS thread count at any
n. The starts take numpy's ``sin``, ``cos`` and powers, which numpy may
dispatch to SIMD code; Newton's last step ends at the recurrence's
rounding, so a different start may move the nodes' last bits between
machines. The nodes are symmetric about 0 bit for bit, and the kernel
takes ``cos`` and ``sin`` of the first ceil(n/2) half angles only and
mirrors them, which holds where numpy's ``cos`` is even and its ``sin``
odd bit for bit (a tier-1 test checks this on the oracle's half angles).

Monte Carlo samples a randomly shifted polar lattice: each of
R = ``MC_RANDOMISATIONS`` independent randomisations draws one jittered
radius in each stratum of v = exp(-r^2/2), which is uniform for the
radius r of a standard normal pair (Owen, *Monte Carlo theory, methods
and examples*, on stratification). The stratum next to v = 0 is split
into ``MC_TAIL_STRATA`` geometric ones, each weighted by its mass. At
each radius a lattice of K = ``MC_ANGLES`` equally spaced angles is
rotated by one uniform shift (a Cranley-Patterson rotation; Cranley &
Patterson, SIAM J. Numer. Anal. 13, 904, 1976), and its cosines give K
normals, R K S in all for S radius strata (``McSpec.samples``). The sum
over angles is a trapezoid rule on a periodic integrand, nearly exact,
so almost all of a randomisation's variance comes from its radii. K is
even, so the lattice holds each normal with its negative: the sine
means cancel exactly, as they do under the normal law, and the kernel
evaluates the half turn only. Randomisation r draws its uniforms from
an SFC64 stream seeded by numpy's ``SeedSequence(seed, spawn_key=(r,))``,
and its means are accumulated in a fixed order, so identical (seed,
samples) produce bit-identical results, on one BLAS thread or several.
The estimate is the average of the R randomisation means, and its
standard error their spread, with R - 1 degrees of freedom, as for
randomised quasi-Monte Carlo (Dick, Kuo & Sloan, Acta Numerica 22, 133,
2013): the per-draw variance overstates a stratified mean's error. A
Monte Carlo call draws each randomisation's normals once and rotates
every case on them: all its cases see one stream, and each case gets
the bits it would get alone, whatever else is in the stack or in what
order.

Monte Carlo trigonometry: every cos/sin pair comes from one tangent of
the half angle. For a lattice's shift, cos 2x = (1 - h^2) w and
sin 2x = 2 h w with h = tan x and w = 1/(1 + h^2); the lattice's own
angles are fixed, and their cosines follow by the addition theorem.
For the rotation angle d of each draw only one mean is needed: with
h = tan(d/2), 1 - cos d = 2 h (hw), one pairwise sum per block.
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
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .relkin import Scenario, _require_nonneg_time
from .spinalg import _hermitize, _kron, _matmul, _states, pauli_vector

# Largest distance between a closed form and the quadrature oracle at its
# default nodes that ``spinboost verify`` and the CLI accept.
ORACLE_TOL = 1e-8

# R, the independent randomisations of the Monte Carlo sampler: each gives
# one estimate, and their spread the standard error, with R - 1 degrees of
# freedom.
MC_RANDOMISATIONS = 16
# K, the angles of the polar lattice at each radius; even, so that each
# normal comes with its negative. On verify's cases, at 128-248 radii, the
# lattice's own error is negligible against the radii's at K >= 14 and
# dominates at K <= 10; 16 keeps a margin.
MC_ANGLES = 16
# T, the geometric strata that split the radius stratum next to v = 0,
# halving in mass towards 0.
MC_TAIL_STRATA = 8
# Floats per temporary of ``_randomisation_means`` (512 KiB): its work array
# holds a block of radius strata, and its two (cases x normals) arrays a
# block of cases; a block holds at least one stratum and one case.
_MC_BLOCK = 1 << 16


def _count(value, name: str) -> int:
    """``value`` through ``operator.index``: an integer, numpy's too, or ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite quadrature order for the Gaussian field average."""

    nodes: int = 201

    def __post_init__(self):
        if _count(self.nodes, "nodes") < 2:
            raise ValueError(f"need at least 2 quadrature nodes, got {self.nodes!r}")


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo normal count and 64-bit seed.

    ``samples`` is the number of normals drawn: R K S, K = ``MC_ANGLES``
    lattice angles at each of the S radius strata of each of the
    R = ``MC_RANDOMISATIONS`` randomisations, with S at least
    ``MC_TAIL_STRATA``. The default, S = 128, draws 32,768.
    """

    samples: int = MC_RANDOMISATIONS * MC_ANGLES * 128
    seed: int = 42

    def __post_init__(self):
        samples, per_radius = _count(self.samples, "samples"), MC_RANDOMISATIONS * MC_ANGLES
        if samples % per_radius or samples // per_radius < MC_TAIL_STRATA:
            raise ValueError(f"samples must be R K S = {per_radius} S for a whole number "
                             f"S >= {MC_TAIL_STRATA} of radius strata, got {self.samples!r}")
        if not 0 <= _count(self.seed, "seed") < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

    @property
    def strata(self) -> int:
        """S, the radius strata of each randomisation."""
        return max(self.samples, 0) // (MC_RANDOMISATIONS * MC_ANGLES)


# The first ten zeros of the Airy function Ai (DLMF table 9.9.1); later
# ones come from their asymptotic series (DLMF 9.9.6 and 9.9.18).
_AIRY_ZEROS = (-2.338107410459767, -4.087949444130971, -5.520559828095551,
               -6.786708090071759, -7.944133587120853, -9.022650853340980,
               -10.04017434155809, -11.00852430373326, -11.93601556323626,
               -12.82877675286576)
# Newton steps on the three-term recurrence. From the asymptotic starts the
# third step moves no zero x of any n in [2, 2048] by more than 1e-11, which
# leaves them converged; the fourth is margin, and moves them only within
# the recurrence's rounding (5e-15).
_NEWTON_STEPS = 4
# Recurrence steps between two rescalings by a power of two. One step grows
# max(|H_(k-1)|, |H_k|) by at most 2|x| + 2k < 4n + 4 (the zeros lie below
# sqrt(2n + 1)), so 32 steps stay below 2^704 for n up to 10^6.
_RESCALE_STEPS = 32


def _airy_zeros(count: int) -> np.ndarray:
    """a_1 > a_2 > ... > a_count, the first zeros of Ai."""
    t = 3.0 * math.pi / 8.0 * (4.0 * np.arange(1, count + 1) - 1.0)
    u = 1.0 / (t * t)
    a = -t ** (2.0 / 3.0) * (1.0 + u * (5.0 / 48.0 + u * (-5.0 / 36.0 + u * (
        77125.0 / 82944.0 + u * (-108056875.0 / 6967296.0
                                 + u * (162375596875.0 / 334430208.0))))))
    a[:len(_AIRY_ZEROS)] = _AIRY_ZEROS[:count]
    return a


def _hermite_starts(n: int) -> np.ndarray:
    """Asymptotic starts for the nonnegative zeros of the physicists' H_n, ascending.

    H_n is L_m^(a)(x^2), or x times it, with m = n // 2 and a = -1/2 for
    even n, +1/2 for odd n, so Gatteschi's expansions of Laguerre zeros
    apply, with nu = 2n + 1 (Townsend, Trogdon & Olver, IMA J. Numer.
    Anal. 36, 337, 2016). In the bulk, Tricomi's form: T - sin T =
    (4m - 4k + 3) pi / nu, t = cos^2(T/2) and x^2 = nu t -
    (5/(1-t)^2 - 4/(1-t) - 4 + 12 a^2) / (12 nu) for the k-th zero from 0.
    Near the edge, the largest ceil(n^(1/3)) - 1 zeros (at least one), the
    Airy form in the zeros a_k of Ai. An odd n adds the zero 0 itself.
    """
    m, a = n // 2, 0.5 if n % 2 else -0.5
    nu = 2.0 * n + 1.0
    rhs = (4.0 * np.arange(m, 0, -1) - 1.0) * (math.pi / nu)
    tau = np.full(m, 0.5 * math.pi)
    for _ in range(7):  # Newton on T - sin T = rhs, from T = pi/2
        tau -= (tau - np.sin(tau) - rhs) / (1.0 - np.cos(tau))
    t = np.cos(0.5 * tau) ** 2
    x2 = nu * t - (5.0 / (1.0 - t) ** 2 - 4.0 / (1.0 - t) - 4.0 + 12.0 * a * a) / (12.0 * nu)
    edge = min(m, math.ceil(n ** (1.0 / 3.0)) - 1)
    ak = _airy_zeros(edge)[::-1]
    c = 2.0 ** (1.0 / 3.0)
    x2[m - edge:] = (nu + c * c * ak * nu ** (1.0 / 3.0)
                     + 0.2 * c ** 4 * ak ** 2 * nu ** (-1.0 / 3.0)
                     + (11.0 / 35.0 - a * a - 12.0 / 175.0 * ak ** 3) / nu
                     + (16.0 / 1575.0 * ak + 92.0 / 7875.0 * ak ** 4) * c * c * nu ** (-5.0 / 3.0)
                     - (15152.0 / 3031875.0 * ak ** 5 + 1088.0 / 121275.0 * ak ** 2)
                     * c * nu ** (-7.0 / 3.0))
    x = np.sqrt(x2)
    return np.concatenate(([0.0], x)) if n % 2 else x


def _hermite_pair(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H_(n-1)(x) and H_n(x) per node, both scaled by 2^-e, and the exponents e.

    The recurrence H_(k+1) = 2x H_k - 2k H_(k-1) from H_0 = 1, H_1 = 2x,
    rescaled by an exact power of two every ``_RESCALE_STEPS`` steps.
    """
    prev, cur = np.ones_like(x), 2.0 * x
    two_x, term = 2.0 * x, np.empty_like(x)
    scale = np.zeros(x.shape, dtype=np.int64)
    for k in range(1, n):
        prev *= -2.0 * k
        prev += np.multiply(two_x, cur, out=term)
        prev, cur = cur, prev
        if k % _RESCALE_STEPS == 0:
            e = np.frexp(np.abs(prev) + np.abs(cur))[1]
            np.ldexp(prev, -e, out=prev)
            np.ldexp(cur, -e, out=cur)
            scale += e
    return prev, cur, scale


@lru_cache(maxsize=16)
def gauss_hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights (z, w) for expectations under the standard normal.

    E[f(Z)] ~= sum_i w_i f(z_i), with z = sqrt(2) x over the zeros x of
    the physicists' H_n. The nonnegative zeros start from
    ``_hermite_starts`` and take ``_NEWTON_STEPS`` Newton steps
    x -= H_n / H_n' = H_n / (2n H_(n-1)) on the three-term recurrence
    (Glaser, Liu & Rokhlin, SIAM J. Sci. Comput. 29, 1420, 2007, take
    such steps on an ODE instead). The weights are proportional to
    1 / H_(n-1)(x)^2, held as a mantissa and a power of two, so the edge
    weights at large n underflow to 0 and nothing overflows. The
    negative half mirrors the nonnegative one exactly, z[-1-i] == -z[i]
    and w[-1-i] == w[i], and the weights are normalised to sum to 1.
    Every temporary holds O(n) floats, and each step is an element-wise
    numpy operation: no BLAS or LAPACK call.
    """
    if _count(n, "nodes") < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {n!r}")
    x = _hermite_starts(n)
    for _ in range(_NEWTON_STEPS):
        prev, cur, _ = _hermite_pair(x, n)
        x -= cur / ((2.0 * n) * prev)
    prev, _, scale = _hermite_pair(x, n)
    mant, exp = np.frexp(prev)
    exp = exp + scale  # H_(n-1)(x) = mant 2^exp
    z = math.sqrt(2.0) * x
    z = np.concatenate((-z[::-1][:n // 2], z))
    with np.errstate(under="ignore"):  # the edge weights of large n go to 0
        w = np.ldexp(1.0 / (mant * mant), 2 * (exp.min() - exp))
        w = np.concatenate((w[::-1][:n // 2], w))
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
        rate = s.kappa * np.asarray(t, dtype=float)
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
                         f"at rapidity xi = {at(s.xi)!r}, angle theta = {at(s.theta)!r} and "
                         f"time t = {at(t)!r} (kappa = {at(s.kappa)!r}, gamma = {at(s.gamma)!r})")


def _cases(m: np.ndarray, s: Scenario, per_case) -> tuple:
    """The broadcast shape of states ``m`` and per-case arrays ``per_case``
    (each of a shape that broadcasts with it), then ``m``, the axes of ``s``
    and each of ``per_case`` flattened to one case per row."""
    shape = np.broadcast_shapes(m.shape[:-2], *(np.shape(a) for a in per_case))
    flat = [np.broadcast_to(a, shape).ravel() for a in per_case]
    return (shape, np.broadcast_to(m, shape + m.shape[-2:]).reshape((-1,) + m.shape[-2:]),
            np.broadcast_to(s.n, shape + (3,)).reshape(-1, 3), *flat)


# Cases per block of the quadrature kernel: bounds its (cases x nodes) temporaries.
_QUAD_BLOCK = 64


def _bath_average(m: np.ndarray, s: Scenario, t, q: QuadratureSpec) -> np.ndarray:
    """Common-bath average of U(z)^(x)k rho [U(z)^(x)k]^dag by Gauss-Hermite quadrature.

    k = 1 for states (..., 2, 2) and 2 for (..., 4, 4). With U^(x)k as in
    the module docstring, a case's average is sum_a (-i)^a (E_a rho) Q_a^dag
    with Q_a^dag = sum_b i^b m_(a+b) E_b and m_j the node-order pairwise
    sum of w c^(2k-j) s^j. Cases run in blocks of ``_QUAD_BLOCK``.
    """
    _require_nonneg_time(t)
    k = m.shape[-1].bit_length() - 1  # 2 -> 1 qubit, 4 -> 2 qubits
    z, w = gauss_hermite_nodes(q.nodes)
    shape, rhos, n, rates, sigmas = _cases(m, s, (_quadrature_rates(s, t, z), _field_scale(s)))
    # on nodes symmetric about 0, z[-1-i] == -z[i], as gauss_hermite_nodes
    # makes them, each half angle is the exact negative of its mirror's, so
    # the trig of the first ceil(n/2) nodes gives the rest: cos is even, sin
    # odd. Any other node set takes the trig of every node.
    lo, hi = (len(z) + 1) // 2, len(z) // 2
    mirrored = np.array_equal(z[:hi], -z[:lo - 1:-1])
    trig_z = z[:lo] if mirrored else z
    out = np.empty(rhos.shape, dtype=complex)
    for k0 in range(0, len(rates), _QUAD_BLOCK):
        block = slice(k0, k0 + _QUAD_BLOCK)
        half = rates[block, None] * (sigmas[block, None] * trig_z)
        cos_x, sin_x = np.cos(half), np.sin(half)
        if mirrored:
            cos_x = np.concatenate((cos_x, cos_x[:, hi - 1::-1]), axis=-1)
            sin_x = np.concatenate((sin_x, -sin_x[:, hi - 1::-1]), axis=-1)
        # the degree-k monomials c^(k-i) s^i; w c^(2k-j) s^j is w c^k times
        # the first k + 1 of them, then w s^k times the last k
        mono = (cos_x, sin_x) if k == 1 else (cos_x * cos_x, cos_x * sin_x, sin_x * sin_x)
        w_c, w_s = w * mono[0], w * mono[-1]
        mom = np.array([(w_c * x).sum(axis=-1) for x in mono]
                       + [(w_s * x).sum(axis=-1) for x in mono[1:]])[..., None, None]
        nb = pauli_vector(n[block])
        e = ([np.eye(2), nb] if k == 1 else
             [np.eye(4), _kron(np.eye(2), nb) + _kron(nb, np.eye(2)), _kron(nb, nb)])
        q_dag = [mom[a] * e[0] + 1j * mom[a + 1] * e[1] for a in range(k + 1)]
        if k == 2:  # the terms of E_2, with i^2 = (-i)^2 = -1
            q_dag = [q_a - mom[a + 2] * e[2] for a, q_a in enumerate(q_dag)]
        rho = rhos[block]
        avg = _matmul(rho, q_dag[0]) - 1j * _matmul(_matmul(e[1], rho), q_dag[1])
        out[block] = _hermitize(avg - _matmul(_matmul(e[2], rho), q_dag[2]) if k == 2 else avg)
    return out.reshape(shape + rhos.shape[-2:])


def average_quadrature(m, s: Scenario, t, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Gaussian average of U(z) rho U(z)^dag by Gauss-Hermite quadrature.

    States ``m`` (..., 2, 2), the cases of ``s`` and times ``t`` broadcast;
    returns the averages (..., 2, 2), not validated, NaN where the rotation
    angle is not finite: ``_bath_average`` at one qubit.
    """
    return _bath_average(_states(m, 2, "average_quadrature"), s, t, q)


def two_qubit_average(m4, s: Scenario, t, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Common-bath average of [U(z) (x) U(z)] rho4 [..]^dag (same z, same boost).

    States ``m4`` (..., 4, 4), the cases of ``s`` and times ``t``
    broadcast; returns the averages (..., 4, 4), not validated, NaN where
    the rotation angle is not finite: ``_bath_average`` at two qubits.
    """
    return _bath_average(_states(m4, 4, "two_qubit_average"), s, t, q)


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


@lru_cache(maxsize=8)
def _radius_strata(strata: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Lower edges a and masses b of the ``strata`` radius strata, in units of 1/m of v, and m.

    m = strata - T + 1 equal strata [i/m, (i + 1)/m) cover v in [0, 1],
    and the one next to 0 is split into T = ``MC_TAIL_STRATA``: [0, 2^(1-T)/m)
    and [2^-k/m, 2^(1-k)/m) for k = T - 1, ..., 1. Ascending in v; every
    edge and mass is an exact binary fraction, and the masses sum to m.
    """
    tail = 2.0 ** -np.arange(MC_TAIL_STRATA - 1, 0, -1)
    uniform = strata - MC_TAIL_STRATA
    lower = np.concatenate(([0.0], tail, np.arange(1.0, uniform + 1)))
    mass = np.concatenate((tail[:1], tail, np.ones(uniform)))
    lower.setflags(write=False)
    mass.setflags(write=False)
    return lower, mass, uniform + 1


def _radius(one_minus_u: np.ndarray, strata: int, block: slice) -> np.ndarray:
    """Overwrite 1 - U in (0, 1], one per radius stratum of ``block``, with the
    radius sqrt(-2 log v) at v = (a + b (1 - U))/m (``_radius_strata``)."""
    lower, mass, m = _radius_strata(strata)
    v = one_minus_u
    v *= mass[block]
    v += lower[block]
    v /= m
    np.log(v, out=v)
    v *= -2.0
    return np.sqrt(v, out=v)


def _normal_bound(strata: int) -> float:
    """The largest |z| that ``_lattice_normals`` returns at ``strata`` radius strata.

    The radius at the smallest v, 2^-53 b_0 / m: the stratum next to 0
    with 1 - U = 2^-53, by the sampler's own steps; |z| is at most the
    radius, as the lattice's cosines are clipped to [-1, 1].
    """
    return float(_radius(np.array([2.0**-53]), strata, slice(0, 1))[0])


def _stream(seed: int, r: int) -> np.random.Generator:
    """The uniforms of randomisation ``r``: SFC64 seeded by
    ``SeedSequence(seed, spawn_key=(r,))``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(r,))))


# cos and sin of the half turn's fixed angles pi j / (K/2), j < K/2
_LATTICE = np.pi / (MC_ANGLES // 2) * np.arange(MC_ANGLES // 2)
_LATTICE_COS, _LATTICE_SIN = np.cos(_LATTICE), np.sin(_LATTICE)


def _lattice_normals(gen: np.random.Generator, strata: int, first: int, rows: int,
                     work: np.ndarray) -> np.ndarray:
    """Normals of radius strata ``first`` to ``first + rows - 1``, K/2 per stratum.

    Stratum s takes the pair (U1, U2) of uniforms that ``gen`` draws next
    for it, stratum by stratum. v = (a_s + b_s (1 - U1))/m in (0, 1],
    with ``_radius_strata``'s edge a_s and mass b_s, gives the radius
    sqrt(-2 log v). The lattice's half turn, theta_j = pi (j + U2)/(K/2)
    for j < K/2, is the fixed angles rotated by phi = pi U2/(K/2), so
    cos theta_j = cos(pi j/(K/2)) cos phi - sin(pi j/(K/2)) sin phi, with
    cos phi and sin phi from one tangent, clipped to [-1, 1] and scaled by
    the radius: row-major (stratum, angle). The other half turn holds the
    negatives. ``work``, a float array of at least rows (K + 4) floats,
    holds every intermediate; the rows K/2 normals are returned as a view
    of it.
    """
    half = MC_ANGLES // 2
    pairs = gen.random(out=work[:2 * rows]).reshape(rows, 2)
    radius = _radius(np.subtract(1.0, pairs[:, 0], out=work[2 * rows:3 * rows]), strata,
                     slice(first, first + rows))
    shift = np.multiply(pairs[:, 1], math.pi / MC_ANGLES, out=work[3 * rows:4 * rows])  # phi/2
    cos_phi = work[:rows]  # the uniforms are spent
    _cos_sin_double(shift, cos_phi, work[rows:2 * rows])  # shift now holds sin phi
    z = work[4 * rows:(4 + half) * rows].reshape(rows, half)
    rotated = work[(4 + half) * rows:(4 + 2 * half) * rows].reshape(rows, half)
    np.multiply(cos_phi[:, None], _LATTICE_COS, out=z)
    z -= np.multiply(shift[:, None], _LATTICE_SIN, out=rotated)
    np.clip(z, -1.0, 1.0, out=z)
    z *= radius[:, None]
    return z.reshape(-1)


def _randomisation_means(mc: McSpec, half_scales) -> np.ndarray:
    """Means of 1 - cos d per case and randomisation, (cases, R).

    Case k has d = 2 half_scales[k] z over the K S normals z of each
    randomisation r, whose uniforms come from ``_stream(mc.seed, r)``,
    each stratum's terms weighted by its mass. The normals are drawn once,
    in blocks of radius strata, and seen by every case, so a case does
    not depend on the others. With h = tan(d/2) and w = 1/(1 + h^2),
    1 - cos d = 2 h (hw), one pairwise sum per block; 1 - cos d rather
    than cos d keeps its spread at full relative accuracy at small angles.
    Only the half turn of ``_lattice_normals`` is evaluated: the other
    holds -z, with the same 1 - cos d and the opposite sin d, so each
    randomisation's mean of sin d is 0 and is not returned.
    """
    half_scales = np.asarray(half_scales, dtype=float)
    strata, half = mc.strata, MC_ANGLES // 2
    _, mass, m = _radius_strata(strata)
    rows = min(strata, max(1, _MC_BLOCK // (MC_ANGLES + 4)))
    per_block = max(1, _MC_BLOCK // (rows * half))
    work = np.empty((MC_ANGLES + 4) * rows)
    h_buf, w_buf = np.empty((2, min(per_block, len(half_scales)) * rows * half))
    sums = np.zeros((len(half_scales), MC_RANDOMISATIONS))
    for r in range(MC_RANDOMISATIONS):
        gen = _stream(mc.seed, r)
        for first in range(0, strata, rows):
            count = min(rows, strata - first)
            z = _lattice_normals(gen, strata, first, count, work)
            tail = max(0, min(MC_TAIL_STRATA - first, count))  # strata of mass below 1
            for k0 in range(0, len(half_scales), per_block):
                scales = half_scales[k0:k0 + per_block, None]
                h = h_buf[:len(scales) * len(z)].reshape(len(scales), len(z))
                w = w_buf[:h.size].reshape(h.shape)
                np.multiply(scales, z, out=h)
                np.tan(h, out=h)
                np.multiply(h, h, out=w)
                w += 1.0
                np.divide(1.0, w, out=w)
                vers = np.multiply(np.multiply(h, w, out=w), h, out=h)
                if tail:  # masses are powers of two: exact
                    vers.reshape(len(scales), count, half)[:, :tail] *= \
                        mass[first:first + tail, None]
                # numpy's pairwise sums, unlike a BLAS dot, do not depend on
                # the BLAS thread count
                sums[k0:k0 + per_block, r] += vers.sum(axis=-1)
    # 2 h (hw), weighted by mass/m, averaged over each stratum's K/2 angles
    return 2.0 * sums / (m * half)


def average_montecarlo(m, s: Scenario, t, mc: McSpec = McSpec()) -> tuple[np.ndarray, np.ndarray]:
    """Lattice Monte Carlo estimate of the Gaussian average.

    Returns the mean of U(z) rho U(z)^dag over z ~ N(0, 1) and its
    standard error. States ``m`` (..., 2, 2), the cases of ``s`` and
    times ``t`` broadcast to means (..., 2, 2), not validated, and
    standard errors (...).

    Each draw rotates the Bloch vector by d = 2 kappa t sigma z about n, so
    (Rodrigues) U rho U^dag = rho - (1 - cos d) B + (sin d) C with fixed
    matrices B and C, and on the lattice's normals the mean of sin d is 0.
    Each of the R = ``MC_RANDOMISATIONS`` randomisations of
    ``_randomisation_means`` gives a mean M_r, and the estimate is their
    average M. The standard error is their spread,
    sqrt(sum_r |M_r - M|^2 / (R (R - 1))) in Frobenius norm, with R - 1
    degrees of freedom. Every case sees the same ``mc.samples`` normals of
    ``mc.seed``, and the means and standard errors of all cases are built
    in one stacked step. A case whose rotation angle is not finite at the
    largest |z| that ``_lattice_normals`` returns gets NaN.
    """
    _require_nonneg_time(t)
    m = _states(m, 2, "average_montecarlo")
    sigma = _field_scale(s)
    # kappa t sigma, half the rotation angle per draw z: d = 2 kappa t sigma z
    half_scales = _half_angle_rates(s, t, sigma * _normal_bound(mc.strata)) * sigma
    shape, rhos, n, half_scales = _cases(m, s, (half_scales,))
    vers = _randomisation_means(mc, half_scales)
    # rho = a0 I + a.sigma with complex a; the rotation acts on a:
    # a -> a - (1 - cos d)(a - (n.a) n) + sin d (n x a)
    a = 0.5 * np.stack([rhos[:, 0, 1] + rhos[:, 1, 0], 1j * (rhos[:, 0, 1] - rhos[:, 1, 0]),
                        rhos[:, 0, 0] - rhos[:, 1, 1]], axis=-1)
    across = a - (n[:, 0] * a[:, 0] + n[:, 1] * a[:, 1] + n[:, 2] * a[:, 2])[:, None] * n
    r = MC_RANDOMISATIONS
    mean_vers = vers.sum(axis=-1) / r
    means = _hermitize(rhos - pauli_vector(across * mean_vers[:, None]))
    # M_r - M = -(vers_r - mean) across.sigma; |x.sigma|^2 = 2 |x|^2
    sq = ((across.real**2 + across.imag**2).sum(axis=-1)
          * ((vers - mean_vers[:, None]) ** 2).sum(axis=-1))
    stderrs = np.sqrt(2.0 * sq / (r * (r - 1)))
    return means.reshape(shape + (2, 2)), stderrs.reshape(shape)[()]
