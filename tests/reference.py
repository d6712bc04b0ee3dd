"""References that the package does not run, and helpers the test modules share.

The Lorentz transformation of static (E, B) fields, the boosted axis and
the optimum of eta in 50 digits, the closed-form SU(2) rotation,
rest-frame dephasing, Golub-Welsch Gauss-Hermite nodes, the canonical
Kraus set of a Choi matrix and a random-state draw: independent or
textbook forms that the tests hold the package's kernels to. And
``assert_same_text``, which compares whole tables without a diff.
"""

import hashlib
import math
from decimal import Decimal, localcontext

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


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x by their Taylor series, for 0 <= x <= pi."""
    cos = sin = Decimal(0)
    term, k = Decimal(1), 0
    while k < 2 or term > Decimal("1e-60"):
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
        k += 1
        term = term * x / k
    return cos, sin


def _sinh(x: Decimal) -> Decimal:
    """sinh x for x >= 0: its Taylor series below 1, so nothing cancels at small x."""
    if x >= 1:
        e = x.exp()
        return (e - 1 / e) / 2
    total = term = x
    k = 1
    while term > total * Decimal("1e-55"):
        term = term * x * x / ((k + 1) * (k + 2))
        total += term
        k += 2
    return total


def geometry_reference(xi: float, theta: float) -> tuple[float, float, float, float, float]:
    """(kappa, n_perp, n_z, eta, chi) of the boosted axis in 50 digits, rounded to floats.

    kappa n_perp = -(cosh(xi) - 1) cos(theta) sin(theta) and kappa n_z =
    cos(theta)**2 + cosh(xi) sin(theta)**2, with cosh(xi) - 1 = 2 sinh(xi/2)**2,
    eta = n_perp**2 and chi = n_z |n_perp|. It follows the library's one
    convention: theta is measured from the nearer pole, a = min(theta,
    math.pi - theta) (exact for theta >= pi/2), with math.pi taken as pi, so
    cos(theta) = +-sin(math.pi/2 - a), 0 at theta = math.pi/2.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        half = _sinh(Decimal(xi) / 2)
        excess = 2 * half * half
        a = Decimal(min(theta, math.pi - theta))
        sin = _cos_sin(a)[1]
        cos = _cos_sin(Decimal(math.pi) / 2 - a)[1].copy_sign(Decimal(math.pi / 2 - theta))
        perp = -excess * cos * sin
        z = cos * cos + (1 + excess) * sin * sin
        kappa = (perp * perp + z * z).sqrt()
        n_perp, n_z = perp / kappa, z / kappa
        return tuple(float(v) for v in (kappa, n_perp, n_z, n_perp * n_perp, n_z * abs(n_perp)))


def eta_max_reference(xi: float) -> tuple[float, float, float]:
    """(eta_max, theta_opt, chi_at_opt) at rapidity ``xi`` in 50 digits, rounded to floats.

    With t = tanh(xi/2) and s = sech(xi/2): eta_max = t**4, theta_opt =
    asin(s/sqrt 2) and chi_at_opt = t**2 s sqrt(1 + t**2). t and s come
    from sinh(xi/2), whose series below 1 keeps tiny xi from cancelling,
    and cosh(xi/2) = sqrt(1 + sinh(xi/2)**2). theta_opt solves sin(theta) =
    s/sqrt 2 by Newton's method from ``math.asin``.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        sinh = _sinh(Decimal(xi) / 2)
        cosh = (1 + sinh * sinh).sqrt()
        t2, s = (sinh / cosh) ** 2, 1 / cosh
        target = s / Decimal(2).sqrt()
        theta = Decimal(math.asin(float(target)))
        for _ in range(3):  # each step doubles the digits, from the 16 of math.asin
            cos, sin = _cos_sin(theta)
            theta -= (sin - target) / cos
        return float(t2 * t2), float(theta), float(t2 * s * (1 + t2).sqrt())


def ulps(x: float, ref: float) -> float:
    """|x - ref| in units in the last place of ``ref``; 0 where the two are equal."""
    return 0.0 if x == ref else abs(x - ref) / math.ulp(ref)


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


def golub_welsch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights (z, w) for the standard normal, by
    Golub & Welsch (Math. Comp. 23, 221, 1969).

    The eigenvalues of the symmetric tridiagonal Jacobi matrix of the
    physicists' Hermite recurrence are the zeros x of H_n, and the squared
    first components of its eigenvectors the weights. Symmetrised about 0,
    z = sqrt(2) x, and the weights normalised to sum to 1. A dense n x n
    eigenproblem: about 0.1 s at n = 1000.
    """
    off_diag = np.sqrt(np.arange(1, n) / 2.0)
    x, vecs = np.linalg.eigh(np.diag(off_diag, 1) + np.diag(off_diag, -1))
    w = vecs[0] ** 2
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return math.sqrt(2.0) * x, w / w.sum()


def kraus_to_choi(ops) -> np.ndarray:
    """The Choi matrix sum_k vec(K_k) vec(K_k)^dag of a sequence of 2x2 Kraus operators,
    with vec the row-major (output, input) reshape; 0 for an empty sequence."""
    c = np.zeros((4, 4), dtype=complex)
    for k in ops:
        v = np.asarray(k, dtype=complex).reshape(4)
        c += np.outer(v, v.conj())
    return c


def kraus_from_choi(c) -> np.ndarray:
    """The canonical Kraus set (k, 2, 2) of one Choi matrix (4, 4), largest weight first.

    K_k = sqrt(lambda_k) unvec(v_k) over the eigenpairs of (C + C^dag)/2
    whose eigenvalue lies above 1e-12 times the largest one, and above 0.
    """
    c = np.asarray(c, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (c + c.conj().T))
    kept = [k for k in range(3, -1, -1) if vals[k] > 1e-12 * max(vals[3], 0.0)]
    return np.array([math.sqrt(vals[k]) * vecs[:, k].reshape(2, 2) for k in kept]).reshape(-1, 2, 2)


def kraus_residuals(c) -> tuple[float, float]:
    """|sum K^dag K - I| and |Choi(K) - C| (Frobenius) of the canonical Kraus set of ``c``."""
    ops = kraus_from_choi(c)
    completeness = sum((k.conj().T @ k for k in ops), np.zeros((2, 2)))
    return (float(np.linalg.norm(completeness - IDENTITY_2)),
            float(np.linalg.norm(kraus_to_choi(ops) - c)))


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


def assert_same_text(actual, expected) -> None:
    """Fail unless two texts (both str or both bytes) are equal, naming the first line
    where they differ.

    Their digests are compared first; on a mismatch the lines are walked once. No
    diff of the whole is built: pytest's, on two 300x300 tables, runs for minutes.
    """
    def digest(text):
        return hashlib.sha256(text.encode() if isinstance(text, str) else text).digest()

    if type(actual) is type(expected) and digest(actual) == digest(expected):
        return
    got, want = actual.splitlines(True), expected.splitlines(True)
    for number, (line, ref) in enumerate(zip(got, want), 1):
        if line != ref:
            raise AssertionError(f"texts differ first at line {number}:\n"
                                 f"  actual:   {line!r}\n  expected: {ref!r}")
    raise AssertionError(f"texts differ: {len(got)} lines ({type(actual).__name__}) against "
                         f"{len(want)} ({type(expected).__name__}), the first "
                         f"{min(len(got), len(want))} equal")
