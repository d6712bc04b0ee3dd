"""References that the package does not run, and helpers the test modules share.

The Lorentz transformation of static (E, B) fields, the closed-form SU(2)
rotation, rest-frame dephasing and a random-state draw: independent or
textbook forms that the tests hold the package's kernels to.
"""

import math

import numpy as np

from spinboost.channel import _dephase, decay_exponent, decay_factors
from spinboost.relkin import Scenario, _require_nonneg_time
from spinboost.spinalg import IDENTITY_2, _random_states, pauli_vector, require_valid


def beta(s: Scenario) -> float:
    """Speed in units of c: tanh(xi) in [0, 1)."""
    return math.tanh(s.xi)


def cosh_xi(s: Scenario) -> float:
    """Lorentz factor 1/sqrt(1 - beta**2); ``OverflowError`` beyond xi ~ 710."""
    return math.cosh(s.xi)


def velocity_unit(s: Scenario) -> np.ndarray:
    """Unit vector along the velocity."""
    st = math.sin(s.theta)
    return np.array([st * math.cos(s.phi), st * math.sin(s.phi), math.cos(s.theta)])


def boost_em_field(e_field, b_field, s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Lorentz-transform static (E, B) into the frame moving with the boost of ``s``.

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
    v_hat = velocity_unit(s)
    cross = cosh_xi(s) * beta(s)
    excess = 2.0 * math.sinh(0.5 * s.xi) ** 2
    e_perp = e - np.dot(e, v_hat) * v_hat
    b_perp = b - np.dot(b, v_hat) * v_hat
    return (e + excess * e_perp + cross * np.cross(v_hat, b),
            b + excess * b_perp - cross * np.cross(v_hat, e))


def pauli_rotation(axis, angle: float) -> np.ndarray:
    """SU(2) rotation exp(-i angle/2 sigma.axis) = cos(angle/2) I - i sin(angle/2) sigma.axis.

    ``axis`` must be a unit 3-vector within 1e-12 and ``angle`` finite."""
    axis = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(axis))
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"rotation axis must be a unit vector, got |axis| = {norm!r}")
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
    return np.cos(0.5 * angle) * IDENTITY_2 - 1j * np.sin(0.5 * angle) * pauli_vector(axis)


def rest_dephasing(rho, gamma: float, t: float) -> np.ndarray:
    """Pure dephasing of a 2x2 state at rate gamma: the off-diagonals scaled by
    exp(-gamma t**2), the diagonal copied. The image is validated."""
    _require_nonneg_time(t)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"single-qubit channel needs a 2x2 state, got shape {rho.shape}")
    out = _dephase(rho, decay_factors(decay_exponent(gamma, t))[0])
    require_valid(out)
    return out


def random_density(rng: np.random.Generator, dim: int = 2, pure: bool = False) -> np.ndarray:
    """A random state (dim, dim): ``_random_states`` on the next 2 dim^2 normals of
    ``rng`` (Hilbert-Schmidt), or on the next 2 dim with ``pure`` (Haar)."""
    return _random_states(rng.standard_normal(2 * dim * (1 if pure else dim)), dim, pure)


def bits(x) -> list:
    """The raw 64-bit words of a float or complex array, so signed zeros count as different."""
    return np.asarray(x).view(np.uint64).tolist()


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def scenario(xi, theta, phi=0.0, gamma=1.0) -> Scenario:
    return Scenario(xi, theta, phi, gamma=gamma)


def draw_cases(rng: np.random.Generator, count: int, xi_range=(0.0, 3.0)) -> list:
    """``count`` (state, one-case scenario, time) triples, gamma' t**2 uniform in [0, 5];
    odd cases are pure states."""
    cases = []
    for k in range(count):
        s = scenario(rng.uniform(*xi_range), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
                     gamma=2.0 * rng.uniform(0.3, 1.5) ** 2)
        t = math.sqrt(rng.uniform(0, 5) / s.gamma_prime)
        cases.append((random_density(rng, 2, pure=bool(k % 2)), s, t))
    return cases


def stack_of(scenarios) -> Scenario:
    """One Scenario holding the cases of a list of one-case scenarios."""
    xi, theta, phi, gamma = (np.array([getattr(s, k) for s in scenarios])
                             for k in ("xi", "theta", "phi", "gamma"))
    return Scenario(xi, theta, phi, gamma=gamma)


def stacked(cases) -> tuple:
    """The states (N, 2, 2), one Scenario and the times (N,) of N cases."""
    rhos = np.array([rho for rho, _, _ in cases]).reshape(-1, 2, 2)
    return rhos, stack_of([s for _, s, _ in cases]), np.array([t for _, _, t in cases])
