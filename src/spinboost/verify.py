"""Deterministic verification suite behind the ``verify`` CLI command.

Each check exercises one guarantee of the library at a pinned tolerance
and reports a single PASS/FAIL line with the measured numbers. All
randomness flows from one seed, so repeated runs produce byte-identical
reports; the acceptance tests assert the same checks one by one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import analysis, entangle, oracle
from .channel import (
    LONG_TIME_GAMMA_T2,
    decay_exponent,
    dressed_apply,
    evolve_elementwise,
    operator_sum_apply,
    plus_state,
)
from .oracle import ORACLE_TOL
from .relkin import Scenario, _geometry, eta_max, eta_profile
from .spinalg import _invalid, _random_states, require_valid

KAPPA_SQ_REF = 6.13229
ETA_MAX_REF = 0.51780
SATURATION_REF = 0.2589


def _g(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _coherence(s: Scenario, t):
    """Re rho_ud of |+><+| at times ``t`` under the closed form."""
    return evolve_elementwise(plus_state(), s, t)[..., 0, 1].real


# Bounds of each case's five uniforms: xi, theta, phi, the oracles' field
# scale sqrt(gamma / 2) and the amplified abscissa gamma' t^2.
_CASE_LOW = (0.0, 0.0, 0.0, 0.3, 0.0)
_CASE_HIGH = (3.0, math.pi, 2.0 * math.pi, 1.5, 5.0)


def _draw_channel_cases(rng: np.random.Generator, count: int):
    """Seeded states (count, 2, 2), a stack of count scenarios and times (count,),
    gamma'*t**2 uniform in [0, 5].

    The amplified abscissa stays inside the quadrature's validated
    regime, which also keeps gamma*t**2 inside [0, 5]. Two seeds drawn
    from ``rng`` start two child streams: one gives every case its 5
    uniforms, the other its 8 normals, of which the pure states (odd k)
    use the first 4 (``_random_states``). As each case takes a fixed
    number of draws from each stream, the first k cases of a draw are
    a fresh draw of k. The states are validated in one call.
    """
    uniforms, normals = (np.random.default_rng(s) for s in rng.integers(2**63, size=2))
    xi, theta, phi, scale, gp_t2 = uniforms.uniform(_CASE_LOW, _CASE_HIGH, size=(count, 5)).T
    rhos = _random_states(normals.standard_normal((count, 8)), 2, np.arange(count) % 2 == 1)
    require_valid(rhos)
    scenarios = Scenario(xi, theta, phi, gamma=2.0 * scale**2)
    return rhos, scenarios, np.sqrt(gp_t2 / scenarios.gamma_prime)


POOL_SIZE = 250
FORMS = ("elementwise", "operator_sum", "dressed", "quadrature")


@dataclass(frozen=True, eq=False)
class CasePool:
    """Seeded channel cases with the image of each under every form.

    Case k is the state ``rhos[k]`` under ``scenarios[k]`` at time
    ``times[k]``; ``scenarios`` is one stack. ``images[form]`` stacks the
    images (POOL_SIZE, 2, 2) of the cases under one channel form, NaN
    where the quadrature refused a case, and ``invalid[form]`` marks the
    images that fail ``DensityMatrix`` validation. The draws are those of
    ``_draw_channel_cases``: 5 uniforms per case from one child stream of
    the seed, 8 normals per case from another. So a check that uses the
    first k cases sees what a fresh draw of k would give.
    """

    rhos: np.ndarray
    scenarios: Scenario
    times: np.ndarray
    images: dict
    invalid: dict

    def case(self, k: int) -> tuple[np.ndarray, Scenario, float]:
        """Case k as a (state, scenario, time) of one case each."""
        return self.rhos[k], self.scenarios[k], float(self.times[k])


def case_pool(seed: int) -> CasePool:
    """Draw POOL_SIZE channel cases and map them under all four forms.

    The three closed forms and the quadrature oracle (201 nodes) run as
    one call each on the whole pool, and the 1000 images are validated
    in one call.
    """
    rhos, scenarios, times = _draw_channel_cases(np.random.default_rng(seed), POOL_SIZE)
    images = {
        "elementwise": evolve_elementwise(rhos, scenarios, times),
        "operator_sum": operator_sum_apply(rhos, scenarios, times),
        "dressed": dressed_apply(rhos, scenarios, times),
        "quadrature": oracle.average_quadrature(rhos, scenarios, times, oracle.QuadratureSpec(201)),
    }
    invalid = dict(zip(FORMS, _invalid(np.stack([images[form] for form in FORMS]))))
    return CasePool(rhos, scenarios, times, images, invalid)


def _worst_distance(a: np.ndarray, b: np.ndarray) -> float:
    """The largest Frobenius distance between the matrices of two stacks; NaN if any is NaN."""
    return float(np.linalg.norm(a - b, axis=(-2, -1)).max())


def _note(invalid: int) -> str:
    """`` invalid_images=N`` for N = ``invalid`` images that are not valid states,
    or ``""`` for none."""
    return f" invalid_images={invalid}" if invalid else ""


def _invalid_note(pool: CasePool, forms, count: int, extra: int = 0) -> str:
    """``_note`` for the first ``count`` cases under ``forms`` plus ``extra`` more."""
    return _note(extra + sum(int(pool.invalid[form][:count].sum()) for form in forms))


def check_kappa_amplification_anchor() -> CheckResult:
    opt = eta_max(2.5)
    kappa_sq = Scenario(2.5, opt.theta_opt, gamma=1.0).kappa**2
    err = abs(kappa_sq - KAPPA_SQ_REF)
    return CheckResult(
        "kappa_amplification_anchor",
        err <= 5e-5,
        f"kappa_sq={_g(kappa_sq)} ref={_g(KAPPA_SQ_REF)} err={_g(err)} tol=5e-05",
    )


def check_coherence_saturation_anchor() -> CheckResult:
    opt = eta_max(2.5)
    err_eta = abs(opt.eta_max - ETA_MAX_REF)
    s = Scenario(2.5, opt.theta_opt, gamma=1.0)
    saturation = _coherence(s, math.sqrt(LONG_TIME_GAMMA_T2 / s.gamma_prime))
    err_sat = abs(saturation - SATURATION_REF)
    # off-diagonal at gamma*t**2 = 4, at rest and boosted
    t4 = 2.0
    rest = _coherence(Scenario(0.0, gamma=1.0), t4)
    err_rest = abs(rest - math.exp(-4.0) / 2.0)
    boosted = _coherence(s, t4)
    err_boosted = abs(boosted - SATURATION_REF)
    ok = err_eta <= 2e-4 and err_sat <= 2e-4 and err_rest <= 1e-6 and err_boosted <= 5e-4
    return CheckResult(
        "coherence_saturation_anchor",
        ok,
        f"eta_max={_g(opt.eta_max)} (err {_g(err_eta)}, tol 2e-04) "
        f"saturation={_g(saturation)} (err {_g(err_sat)}, tol 2e-04) "
        f"rest@4={_g(rest)} (err {_g(err_rest)}, tol 1e-06) "
        f"boosted@4={_g(boosted)} (err {_g(err_boosted)}, tol 5e-04)",
    )


def check_eta_max_monotone_limit() -> CheckResult:
    xis = np.arange(0.0, 20.0 + 1e-9, 0.5)
    values = eta_max(xis).eta_max
    strictly_increasing = bool((np.diff(values) > 0).all())
    tail = eta_max(20.0).eta_max
    ok = strictly_increasing and tail > 0.999
    return CheckResult(
        "eta_max_monotone_limit",
        ok,
        f"strictly_increasing={strictly_increasing} eta_max(20)={_g(tail)} (> 0.999)",
    )


def check_analytic_vs_quadrature(pool: CasePool) -> CheckResult:
    quad402 = oracle.average_quadrature(pool.rhos[:100], pool.scenarios[:100], pool.times[:100],
                                        oracle.QuadratureSpec(402))
    quad = pool.images["quadrature"][:100]
    worst_osc = _worst_distance(pool.images["elementwise"][:100], quad)
    worst_double = _worst_distance(quad, quad402)
    invalid = _invalid_note(pool, ("elementwise", "quadrature"), 100,
                            int(_invalid(quad402).sum()))
    ok = worst_osc < ORACLE_TOL and worst_double < 1e-10 and not invalid
    return CheckResult(
        "analytic_vs_quadrature",
        ok,
        f"draws=100 max|analytic-quad201|={_g(worst_osc)} (tol {ORACLE_TOL:.0e}) "
        f"max|quad201-quad402|={_g(worst_double)} (tol 1e-10){invalid}",
    )


def check_decomposition_agreement(pool: CasePool) -> CheckResult:
    ref = pool.images["elementwise"][:100]
    worst_osum = _worst_distance(pool.images["operator_sum"][:100], ref)
    worst_dressed = _worst_distance(pool.images["dressed"][:100], ref)
    s = pool.scenarios
    chi_gt_eta = int((s.chi_mod[:100] > s.eta_mod[:100]).sum())
    invalid = _invalid_note(pool, ("elementwise", "operator_sum", "dressed"), 100)
    ok = worst_osum < 1e-10 and worst_dressed < 1e-10 and chi_gt_eta > 0 and not invalid
    return CheckResult(
        "decomposition_agreement",
        ok,
        f"draws=100 (chi>eta on {chi_gt_eta}) max|opsum-elementwise|={_g(worst_osum)} "
        f"max|dressed-elementwise|={_g(worst_dressed)} (tol 1e-10){invalid}",
    )


def check_cptp_grid() -> CheckResult:
    """Choi tomography of the channel at all 10x10x5 (xi, theta, gamma t^2) points at once."""
    tol = 1e-10
    xi, theta = np.meshgrid(np.linspace(0.0, 3.0, 10), np.linspace(0.0, math.pi / 2.0, 10),
                            indexing="ij")
    scenarios = Scenario(xi.reshape(100, 1, 1), theta.reshape(100, 1, 1), gamma=1.0)
    times = np.sqrt(np.linspace(0.0, 5.0, 5))[:, None]
    # images (100, 5, 6, 2, 2) of the probes at every (scenario, time)
    images = evolve_elementwise(analysis.PROBES, scenarios, times)
    invalid = int(_invalid(images).sum())
    choi, linearity = analysis.choi_stack(images)
    diag = analysis.choi_diagnostics(choi)
    complete, reassembled = analysis.kraus_residuals(diag.kraus, choi)
    worst_eig = float(diag.min_eigenvalue.min())
    worst_tp = float(diag.tp_residual.max())
    worst_complete = float(complete.max())
    worst_reassembled = float(reassembled.max())
    # rules the PASS line leaves out are named when they fail
    notes = [
        f" invalid_probe_images={invalid}" if invalid else "",
        f" max_linearity_residual={_g(linearity.max())} (> 1e-10)" if not linearity.max() <= tol else "",
        f" max_choi_hermiticity={_g(diag.herm_residual.max())} (> 1e-10)"
        if not diag.herm_residual.max() <= tol else "",
    ]
    ok = (
        worst_eig >= -tol
        and worst_tp < 1e-12
        and worst_complete < 1e-9
        and worst_reassembled < 1e-9
        and not any(notes)
    )
    return CheckResult(
        "cptp_grid",
        ok,
        f"grid=10x10x5 min_choi_eig={_g(worst_eig)} (>= -1e-10) max_tp_residual={_g(worst_tp)} "
        f"(< 1e-12) kraus_completeness={_g(worst_complete)} reassembly={_g(worst_reassembled)} "
        f"(< 1e-09){''.join(notes)}",
    )


def check_rest_frame_reduction(seed: int) -> CheckResult:
    """At xi = 0 every form is the rest-frame dephasing, on up to 10 seeded states.

    A state with |rho_01| < 1e-2 is skipped; each form maps all the others
    at gamma t**2 in {0.3, 1, 2.5} in one call.
    """
    rhos = _random_states(np.random.default_rng(seed).standard_normal((10, 8)), 2, False)
    require_valid(rhos)
    rhos = rhos[~(np.abs(rhos[:, 0, 1]) < 1e-2), None]
    s = Scenario(0.0, gamma=1.0)
    g_t2 = np.array([0.3, 1.0, 2.5])
    times = np.sqrt(g_t2)
    outs = np.stack([evolve_elementwise(rhos, s, times), operator_sum_apply(rhos, s, times),
                     dressed_apply(rhos, s, times), oracle.average_quadrature(rhos, s, times)])
    valid = ~_invalid(outs)
    diag = np.abs(outs[..., 0, 0] - rhos[..., 0, 0])[valid]
    ratio = np.abs(outs[..., 0, 1] / rhos[..., 0, 1] - np.exp(-g_t2))[valid]
    worst_diag = float(diag.max(initial=0.0))
    worst_ratio = float(ratio.max(initial=0.0))
    invalid = int((~valid).sum())
    ok = worst_diag <= 1e-14 and worst_ratio <= 1e-12 and not invalid
    return CheckResult(
        "rest_frame_reduction",
        ok,
        f"max_diag_drift={_g(worst_diag)} (tol 1e-14) max_ratio_err={_g(worst_ratio)} (tol 1e-12)"
        + _note(invalid),
    )


def check_bell_rest_decay() -> CheckResult:
    """The Bell pair at rest against exp(-4 gamma t^2), at 14 times in one stack, nine of
    them at gamma t^2 <= 1e-4, near C = 1; an invalid average counts as an invalid image."""
    times = np.sqrt(np.concatenate([np.logspace(-12.0, -4.0, 9), [0.25, 0.75, 1.5, 2.25, 3.0]]))
    states = oracle.two_qubit_average(entangle.bell_phi_plus(), Scenario(0.0, gamma=1.0), times)
    invalid = int(_invalid(states).sum())
    ref = np.exp(-decay_exponent(4.0, times))
    worst = float(np.abs(entangle.concurrence(states) - ref).max())
    return CheckResult(
        "bell_rest_decay",
        worst < 1e-8 and not invalid,
        f"max|C - exp(-4 gamma t^2)|={_g(worst)} over 1e-12<=gamma_t2<=3 (tol 1e-08)"
        + _note(invalid),
    )


def check_bell_boosted_reference() -> CheckResult:
    # At phi=0 the boosted curve exp(-4 gamma' t^2) is exact for every
    # rapidity, so the measured deviations sit at the quadrature noise
    # floor; monotonicity is asserted with the suite's numerical slack.
    # Times are sampled on the boosted abscissa gamma'*t**2 (the decay
    # window of the boosted pair), which keeps the quadrature inside its
    # validated regime for both scenarios. The three boosted series and
    # the three rest series on their times are one stack.
    xi = np.array([3.0, 5.0, 8.0, 0.0, 0.0, 0.0])[:, None]
    pairs = Scenario(xi, np.where(xi > 0.0, eta_max(xi).theta_opt, 0.0), gamma=1.0)
    gamma_prime = pairs.gamma_prime[:3]
    # sorted; the deviation is read at gamma' t^2 = 1, the second time
    times = np.sqrt(np.array([0.25, 1.0, 2.25, 4.0]) / gamma_prime)
    states = oracle.two_qubit_average(entangle.bell_phi_plus(), pairs,
                                      np.vstack([times, times]))
    invalid = int(_invalid(states).sum())
    values, at_rest = np.split(entangle.concurrence(states), 2)
    ref = np.exp(-decay_exponent(4.0 * gamma_prime[:, 0], times[:, 1]))
    devs = (np.abs(values[:, 1] - ref) / ref).tolist()
    dominance_ok = not (values > at_rest + 1e-10).any()
    slack = 1e-10
    monotone = devs[1] <= devs[0] + slack and devs[2] <= devs[1] + slack
    tiny = all(d <= 1e-8 for d in devs)
    ok = monotone and tiny and dominance_ok and not invalid
    return CheckResult(
        "bell_boosted_reference",
        ok,
        f"rel_dev(xi=3,5,8)=({_g(devs[0])}, {_g(devs[1])}, {_g(devs[2])}) "
        f"monotone_within_1e-10={monotone} all<=1e-08={tiny} boosted<=rest={dominance_ok}"
        + _note(invalid),
    )


def student_t_tail(x: float, dof: int) -> float:
    """P(|T| > x) for Student's t with a whole number ``dof`` of degrees of freedom.

    The finite series of Abramowitz & Stegun 26.7.3 (odd ``dof``) and
    26.7.4 (even ``dof``) in theta = atan(x / sqrt(dof)).
    """
    theta = math.atan(x / math.sqrt(dof))
    c2, odd = math.cos(theta) ** 2, dof % 2
    series, term = 0.0, 1.0
    for k in range(1, dof // 2 + 1):
        series += term
        term *= c2 * (2 * k - 1 + odd) / (2 * k + odd)
    if odd:
        return 1.0 - 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * series)
    return 1.0 - math.sin(theta) * series


def montecarlo_bound(rate: float, cases: int) -> float:
    """The distance/stderr bound that ``cases`` cases pass with probability >= 1 - rate.

    Each case's ratio is held to the quantile that |T|, Student's t with
    R - 1 degrees of freedom, exceeds with probability rate / cases
    (Bonferroni: the cases share one stream). |T| is the ratio's law for
    one Gaussian direction of error; spread over more directions, the
    ratio's tail is lighter, so the rate is an upper bound.
    """
    dof = oracle.MC_RANDOMISATIONS - 1
    lo, hi = 0.0, 1e6
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if student_t_tail(mid, dof) > rate / cases:
            lo = mid
        else:
            hi = mid
    return hi


# Design false-failure rate of ``check_montecarlo_consistency`` on correct code.
MC_FALSE_FAILURE_RATE = 1e-3
MC_CASES = 20


def check_montecarlo_consistency(pool: CasePool, seed: int) -> CheckResult:
    """The first 20 pooled cases on one stratified Monte Carlo stream against the quadrature.

    All 20 cases rotate on the same normals of ``McSpec(seed=seed)``: R
    randomisations of 2 x 60^2 jittered stratified Box-Muller normals,
    keyed by (seed, r), so neighbouring verify seeds share no stream. Each
    case's standard error is the spread of its R randomisation means, and
    the largest distance/stderr ratio is held to ``montecarlo_bound``:
    correct code fails with probability at most ``MC_FALSE_FAILURE_RATE``.
    Two more calls on one case show that one seed gives the same bits
    twice. A NaN distance or ratio fails; a case the oracle refuses, or
    whose mean is not a valid state, counts as an invalid image.
    """
    mc = oracle.McSpec(seed=seed)
    means, stderrs = oracle.average_montecarlo(pool.rhos[:MC_CASES], pool.scenarios[:MC_CASES],
                                               pool.times[:MC_CASES], mc)
    dist = np.linalg.norm(means - pool.images["quadrature"][:MC_CASES], axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        worst_ratio = float(np.where(stderrs == 0.0, math.inf, dist / stderrs).max())
    bound = montecarlo_bound(MC_FALSE_FAILURE_RATE, MC_CASES)
    bad = _invalid(means)
    rho, s, t = pool.case(0)
    small = oracle.McSpec(samples=2 * oracle.MC_RANDOMISATIONS * 20**2, seed=seed)
    first, se1 = oracle.average_montecarlo(rho, s, t, small)
    second, se2 = oracle.average_montecarlo(rho, s, t, small)
    bad_pair = _invalid(np.stack([first, second]))
    failed = int(bad.sum() + bad_pair.sum())
    reproducible = not bad_pair.any() and bool((first == second).all()) and se1 == se2
    invalid = _invalid_note(pool, ("quadrature",), MC_CASES, failed)
    ok = worst_ratio <= bound and reproducible and not invalid
    r = oracle.MC_RANDOMISATIONS
    return CheckResult(
        "montecarlo_consistency",
        ok,
        f"scenarios={MC_CASES} normals={mc.samples} (R={r} x 2 x {mc.strata}^2 strata) "
        f"max dist/stderr={_g(worst_ratio)} (<= {bound:.4g}, t_{r - 1} at false-failure rate "
        f"{MC_FALSE_FAILURE_RATE:.0e}) seed_reproducible={reproducible}{invalid}",
    )


def check_boost_geometry_identities(seed: int) -> CheckResult:
    """|d|^2 = kappa^2 for d = kappa n to 1e-14 relative, and bitwise azimuth independence.

    The bound is relative because kappa^2 reaches cosh(4)^2 ~ 745 on
    these draws, where 1e-14 is about 45 ulps. The 1000 draws of
    (xi, theta, phi) are one ``uniform`` call, the same doubles in the
    same order as one scalar call each; the geometry is two kernel
    calls, at phi and at phi = 0.
    """
    draws = np.random.default_rng(seed).uniform((0.0, 0.0, 0.0), (4.0, math.pi, 2.0 * math.pi),
                                                 size=(1000, 3))
    xi, theta, phi = draws.T
    kappa, n, _, eta, chi = _geometry(xi, theta, phi)
    kappa0, _, _, eta0, chi0 = _geometry(xi, theta, 0.0)
    d = kappa[:, None] * n  # finite: kappa <= cosh(4) on these draws
    # libm and pow per draw, as the identity is written
    expected = np.array([math.cos(th) ** 2 + math.cosh(x) ** 2 * math.sin(th) ** 2
                         for x, th in zip(xi.tolist(), theta.tolist())])
    # each |d|^2 a dot product of its own, the bits of np.dot(d, d)
    d_sq = (d[:, None, :] @ d[:, :, None])[:, 0, 0]
    worst_kappa = float((np.abs(d_sq - expected) / expected).max())
    azimuth_exact = bool((eta == eta0).all() and (chi == chi0).all() and (kappa == kappa0).all())
    ok = worst_kappa <= 1e-14 and azimuth_exact
    return CheckResult(
        "boost_geometry_identities",
        ok,
        f"draws=1000 max||d|^2 - kappa^2|/kappa^2={_g(worst_kappa)} (tol 1e-14) "
        f"azimuth_independent_bitwise={azimuth_exact}",
    )


def check_eta_argmax_grid() -> CheckResult:
    grid = np.linspace(0.0, math.pi / 2.0, 100_000)
    step = grid[1] - grid[0]
    xis = np.array([0.5, 1.0, 2.5, 5.0])
    # the grid in eighths, all rapidities per call; a later eighth takes
    # over only with a strictly larger value, as argmax keeps the first
    best, where = np.full(len(xis), -math.inf), np.zeros(len(xis), dtype=int)
    for k0 in range(0, len(grid), len(grid) // 8):
        profile = eta_profile(xis[:, None], grid[k0:k0 + len(grid) // 8])
        top = profile.max(axis=-1)
        where = np.where(top > best, k0 + profile.argmax(axis=-1), where)
        best = np.maximum(best, top)
    opt = eta_max(xis)
    worst_loc = float(np.abs(grid[where] - opt.theta_opt).max())
    worst_val = float(np.abs(best - opt.eta_max).max())
    ok = worst_loc <= step and worst_val <= 1e-9
    return CheckResult(
        "eta_argmax_grid",
        ok,
        f"grid=1e5 max|theta_grid-theta_opt|={_g(worst_loc)} (<= step {_g(step)}) "
        f"max|eta_grid-eta_max|={_g(worst_val)} (tol 1e-09)",
    )


def check_trajectory_monotonicity() -> CheckResult:
    opt = eta_max(2.5)
    s = Scenario(2.5, opt.theta_opt, gamma=1.0)
    g_t2 = np.linspace(0.0, 12.0, 200)
    values = _coherence(s, np.sqrt(g_t2))
    non_increasing = bool((np.diff(values) <= 1e-12).all())
    floor = s.eta_mod / 2.0 - 1e-12
    above_floor = bool((values >= floor).all())
    ok = non_increasing and above_floor
    return CheckResult(
        "trajectory_monotonicity",
        ok,
        f"non_increasing={non_increasing} saturation_floor_held={above_floor} "
        f"floor={_g(s.eta_mod / 2.0)}",
    )


def check_channel_positivity_sweep(pool: CasePool) -> CheckResult:
    """Every image of every pooled case is a valid state with trace 1 within 1e-14."""
    failures = 0
    for form in FORMS:
        trace_residual = np.abs(np.trace(pool.images[form], axis1=-2, axis2=-1) - 1.0)
        failures += int((pool.invalid[form] | ~(trace_residual <= 1e-14)).sum())
    outputs = len(FORMS) * len(pool.rhos)
    return CheckResult(
        "channel_positivity_sweep",
        failures == 0,
        f"outputs={outputs} validation_failures={failures} trace_tol=1e-14",
    )


def run_checks(seed: int = 42) -> list[CheckResult]:
    """Run the full verification suite with one master seed.

    The single-qubit channel checks share one case pool: the first 100
    cases for the quadrature and decomposition checks, the first 20 for
    Monte Carlo and all of them for the positivity sweep. The 20 Monte
    Carlo cases share one stream, keyed by ``seed`` itself. A case that
    an oracle refuses fails its check as an invalid image; it does not
    stop the run, which always returns all 14 results.
    """
    pool = case_pool(seed)
    return [
        check_kappa_amplification_anchor(),
        check_coherence_saturation_anchor(),
        check_eta_max_monotone_limit(),
        check_analytic_vs_quadrature(pool),
        check_decomposition_agreement(pool),
        check_cptp_grid(),
        check_rest_frame_reduction(seed),
        check_bell_rest_decay(),
        check_bell_boosted_reference(),
        check_montecarlo_consistency(pool, seed),
        check_boost_geometry_identities(seed),
        check_eta_argmax_grid(),
        check_trajectory_monotonicity(),
        check_channel_positivity_sweep(pool),
    ]


def format_report(results: list[CheckResult], seed: int) -> str:
    lines = [f"# verification suite, seed = {seed}"]
    lines.extend(r.line() for r in results)
    passed = sum(r.passed for r in results)
    lines.append(f"verify: {passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def format_json(results: list[CheckResult], seed: int) -> str:
    """The report as one JSON object: seed, pass count, total and each check."""
    checks = [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results]
    report = {
        "seed": seed,
        "passed": sum(c["passed"] for c in checks),
        "total": len(checks),
        "checks": checks,
    }
    return json.dumps(report, indent=2) + "\n"
