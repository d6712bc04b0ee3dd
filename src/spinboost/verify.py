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
from typing import Callable

import numpy as np

from . import analysis, entangle, oracle
from .channel import (
    NoiseSpec,
    Scenario,
    dressed_apply,
    evolve_elementwise,
    example_trajectory,
    operator_sum_apply,
)
from .relkin import BoostParams, effective_field, eta_max, eta_profile
from .spinalg import DensityMatrix, frobenius_distance, random_density

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


def _scenario(xi: float, theta: float, phi: float = 0.0, gamma: float = 1.0,
              vartheta: float | None = None, mu: float = 1.0) -> Scenario:
    if vartheta is not None:
        noise = NoiseSpec(vartheta=vartheta, mu=mu)
    else:
        noise = NoiseSpec.from_gamma(gamma, mu=mu)
    return Scenario(BoostParams(xi=xi, theta=theta, phi=phi), noise)


def _draw_channel_cases(rng: np.random.Generator, count: int):
    """Seeded (rho, scenario, t) draws with gamma'*t**2 uniform in [0, 5].

    The amplified abscissa stays inside the quadrature's validated
    regime, which also keeps gamma*t**2 inside [0, 5].
    """
    cases = []
    for k in range(count):
        xi = rng.uniform(0.0, 3.0)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        vartheta = rng.uniform(0.3, 1.5)
        s = _scenario(xi, theta, phi, vartheta=vartheta)
        gp_t2 = rng.uniform(0.0, 5.0)
        t = math.sqrt(gp_t2 / s.gamma_prime)
        rho = random_density(rng, 2, pure=bool(k % 2))
        cases.append((rho, s, t))
    return cases


def check_kappa_amplification_anchor() -> CheckResult:
    opt = eta_max(2.5)
    f = effective_field(BoostParams(xi=2.5, theta=opt.theta_opt))
    kappa_sq = f.kappa**2
    err = abs(kappa_sq - KAPPA_SQ_REF)
    return CheckResult(
        "kappa_amplification_anchor",
        err <= 5e-5,
        f"kappa_sq={_g(kappa_sq)} ref={_g(KAPPA_SQ_REF)} err={_g(err)} tol=5e-05",
    )


def check_coherence_saturation_anchor() -> CheckResult:
    opt = eta_max(2.5)
    err_eta = abs(opt.eta_max - ETA_MAX_REF)
    s = _scenario(2.5, opt.theta_opt, gamma=1.0)
    t_long = math.sqrt(50.0 / s.gamma_prime)
    _, rho_ud = example_trajectory(s, t_long)
    err_sat = abs(rho_ud.real - SATURATION_REF)
    # off-diagonal at gamma*t**2 = 4, at rest and boosted
    t4 = 2.0
    s0 = _scenario(0.0, 0.0, gamma=1.0)
    _, rest_ud = example_trajectory(s0, t4)
    err_rest = abs(rest_ud.real - math.exp(-4.0) / 2.0)
    _, boosted_ud = example_trajectory(s, t4)
    err_boosted = abs(boosted_ud.real - SATURATION_REF)
    ok = err_eta <= 2e-4 and err_sat <= 2e-4 and err_rest <= 1e-6 and err_boosted <= 5e-4
    return CheckResult(
        "coherence_saturation_anchor",
        ok,
        f"eta_max={_g(opt.eta_max)} (err {_g(err_eta)}, tol 2e-04) "
        f"saturation={_g(rho_ud.real)} (err {_g(err_sat)}, tol 2e-04) "
        f"rest@4={_g(rest_ud.real)} (err {_g(err_rest)}, tol 1e-06) "
        f"boosted@4={_g(boosted_ud.real)} (err {_g(err_boosted)}, tol 5e-04)",
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


def check_analytic_vs_quadrature(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = _draw_channel_cases(rng, 100)
    q1 = oracle.QuadratureSpec(nodes=201)
    q2 = oracle.QuadratureSpec(nodes=402)
    worst_osc = 0.0
    worst_double = 0.0
    for rho, s, t in cases:
        quad = oracle.average_quadrature(rho, s, t, q1)
        worst_osc = max(worst_osc, frobenius_distance(evolve_elementwise(rho, s, t).matrix, quad.matrix))
        worst_double = max(
            worst_double,
            frobenius_distance(quad.matrix, oracle.average_quadrature(rho, s, t, q2).matrix),
        )
    ok = worst_osc < 1e-8 and worst_double < 1e-10
    return CheckResult(
        "analytic_vs_quadrature",
        ok,
        f"draws=100 max|analytic-quad201|={_g(worst_osc)} (tol 1e-08) "
        f"max|quad201-quad402|={_g(worst_double)} (tol 1e-10)",
    )


def check_decomposition_agreement(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = _draw_channel_cases(rng, 100)
    worst_osum = 0.0
    worst_dressed = 0.0
    chi_gt_eta = 0
    for rho, s, t in cases:
        ref = evolve_elementwise(rho, s, t).matrix
        worst_osum = max(worst_osum, frobenius_distance(operator_sum_apply(rho, s, t).matrix, ref))
        worst_dressed = max(worst_dressed, frobenius_distance(dressed_apply(rho, s, t).matrix, ref))
        if s.field.chi_mod > s.field.eta_mod:
            chi_gt_eta += 1
    ok = worst_osum < 1e-10 and worst_dressed < 1e-10 and chi_gt_eta > 0
    return CheckResult(
        "decomposition_agreement",
        ok,
        f"draws=100 (chi>eta on {chi_gt_eta}) max|opsum-elementwise|={_g(worst_osum)} "
        f"max|dressed-elementwise|={_g(worst_dressed)} (tol 1e-10)",
    )


def check_cptp_grid() -> CheckResult:
    worst_eig = math.inf
    worst_tp = 0.0
    worst_complete = 0.0
    worst_reassembled = 0.0
    for xi in np.linspace(0.0, 3.0, 10):
        for theta in np.linspace(0.0, math.pi / 2.0, 10):
            s = _scenario(float(xi), float(theta), gamma=1.0)
            for g_t2 in np.linspace(0.0, 5.0, 5):
                t = math.sqrt(float(g_t2))
                choi = analysis.choi_of(lambda m: evolve_elementwise(DensityMatrix(m), s, t).matrix)
                report = analysis.verify_cptp(choi, tol=1e-10)
                worst_eig = min(worst_eig, report.min_eigenvalue)
                worst_tp = max(worst_tp, report.tp_residual)
                kraus = analysis.kraus_from_choi(choi, tol=1e-10)
                completeness = sum(k.conj().T @ k for k in kraus)
                worst_complete = max(
                    worst_complete, frobenius_distance(completeness, np.eye(2, dtype=complex))
                )
                worst_reassembled = max(
                    worst_reassembled,
                    frobenius_distance(analysis.kraus_to_choi(kraus), choi.matrix),
                )
    ok = (
        worst_eig >= -1e-10
        and worst_tp < 1e-12
        and worst_complete < 1e-9
        and worst_reassembled < 1e-9
    )
    return CheckResult(
        "cptp_grid",
        ok,
        f"grid=10x10x5 min_choi_eig={_g(worst_eig)} (>= -1e-10) max_tp_residual={_g(worst_tp)} "
        f"(< 1e-12) kraus_completeness={_g(worst_complete)} reassembly={_g(worst_reassembled)} (< 1e-09)",
    )


def check_rest_frame_reduction(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    s = _scenario(0.0, 0.0, gamma=1.0)
    ops: list[tuple[str, Callable]] = [
        ("elementwise", evolve_elementwise),
        ("operator_sum", operator_sum_apply),
        ("dressed", dressed_apply),
        ("quadrature", lambda r, sc, t: oracle.average_quadrature(r, sc, t)),
    ]
    worst_diag = 0.0
    worst_ratio = 0.0
    for _ in range(10):
        rho = random_density(rng, 2)
        if abs(rho.matrix[0, 1]) < 1e-2:
            continue
        for g_t2 in (0.3, 1.0, 2.5):
            t = math.sqrt(g_t2)
            expected_ratio = math.exp(-g_t2)
            for _, op in ops:
                out = op(rho, s, t).matrix
                worst_diag = max(worst_diag, abs(out[0, 0] - rho.matrix[0, 0]))
                ratio = out[0, 1] / rho.matrix[0, 1]
                worst_ratio = max(worst_ratio, abs(ratio - expected_ratio))
    ok = worst_diag <= 1e-14 and worst_ratio <= 1e-12
    return CheckResult(
        "rest_frame_reduction",
        ok,
        f"max_diag_drift={_g(worst_diag)} (tol 1e-14) max_ratio_err={_g(worst_ratio)} (tol 1e-12)",
    )


def check_bell_rest_decay() -> CheckResult:
    s = _scenario(0.0, 0.0, gamma=1.0)
    g_t2 = np.array([0.25, 0.75, 1.5, 2.25, 3.0])
    series = entangle.concurrence_trajectory(s, np.sqrt(g_t2))
    worst = float(np.abs(series.values - series.reference_rest).max())
    return CheckResult(
        "bell_rest_decay",
        worst < 1e-8,
        f"max|C - exp(-4 gamma t^2)|={_g(worst)} over gamma_t2<=3 (tol 1e-08)",
    )


def check_bell_boosted_reference() -> CheckResult:
    # At phi=0 the boosted curve exp(-4 gamma' t^2) is exact for every
    # rapidity, so the measured deviations sit at the quadrature noise
    # floor; monotonicity is asserted with the suite's numerical slack.
    # Times are sampled on the boosted abscissa gamma'*t**2 (the decay
    # window of the boosted pair), which keeps the quadrature inside its
    # validated regime for both scenarios.
    devs = []
    dominance_ok = True
    rest = _scenario(0.0, 0.0, gamma=1.0)
    for xi in (3.0, 5.0, 8.0):
        opt = eta_max(xi)
        s = _scenario(xi, opt.theta_opt, gamma=1.0)
        t1 = math.sqrt(1.0 / s.gamma_prime)
        series = entangle.concurrence_trajectory(s, [t1])
        ref = float(series.reference_boosted[0])
        devs.append(abs(float(series.values[0]) - ref) / ref)
        for gp_t2 in (0.25, 1.0, 2.25, 4.0):
            t = math.sqrt(gp_t2 / s.gamma_prime)
            boosted = entangle.concurrence_trajectory(s, [t]).values[0]
            at_rest = entangle.concurrence_trajectory(rest, [t]).values[0]
            if boosted > at_rest + 1e-10:
                dominance_ok = False
    slack = 1e-10
    monotone = devs[1] <= devs[0] + slack and devs[2] <= devs[1] + slack
    tiny = all(d <= 1e-8 for d in devs)
    ok = monotone and tiny and dominance_ok
    return CheckResult(
        "bell_boosted_reference",
        ok,
        f"rel_dev(xi=3,5,8)=({_g(devs[0])}, {_g(devs[1])}, {_g(devs[2])}) "
        f"monotone_within_1e-10={monotone} all<=1e-08={tiny} boosted<=rest={dominance_ok}",
    )


def check_montecarlo_consistency(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = _draw_channel_cases(rng, 20)
    worst_ratio = 0.0
    for k, (rho, s, t) in enumerate(cases):
        mc = oracle.McSpec(samples=10**6, seed=(seed + k) % 2**64)
        mean, stderr = oracle.average_montecarlo(rho, s, t, mc)
        quad = oracle.average_quadrature(rho, s, t)
        dist = frobenius_distance(mean.matrix, quad.matrix)
        worst_ratio = max(worst_ratio, dist / stderr if stderr > 0 else math.inf)
    rho, s, t = cases[0]
    mc = oracle.McSpec(samples=10**5, seed=seed)
    first, se1 = oracle.average_montecarlo(rho, s, t, mc)
    second, se2 = oracle.average_montecarlo(rho, s, t, mc)
    reproducible = bool((first.matrix == second.matrix).all()) and se1 == se2
    ok = worst_ratio <= 3.0 and reproducible
    return CheckResult(
        "montecarlo_consistency",
        ok,
        f"scenarios=20 samples=1e6 max dist/stderr={_g(worst_ratio)} (<= 3) "
        f"seed_reproducible={reproducible}",
    )


def check_boost_geometry_identities(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_kappa = 0.0
    azimuth_exact = True
    for _ in range(1000):
        xi = rng.uniform(0.0, 4.0)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        f = effective_field(BoostParams(xi=xi, theta=theta, phi=phi))
        expected = math.cos(theta) ** 2 + math.cosh(xi) ** 2 * math.sin(theta) ** 2
        worst_kappa = max(worst_kappa, abs(float(np.dot(f.d, f.d)) - expected))
        base = effective_field(BoostParams(xi=xi, theta=theta, phi=0.0))
        if f.eta_mod != base.eta_mod or f.chi_mod != base.chi_mod or f.kappa != base.kappa:
            azimuth_exact = False
    ok = worst_kappa <= 1e-12 and azimuth_exact
    return CheckResult(
        "boost_geometry_identities",
        ok,
        f"draws=1000 max||d|^2 - kappa^2|={_g(worst_kappa)} (tol 1e-12) "
        f"azimuth_independent_bitwise={azimuth_exact}",
    )


def check_eta_argmax_grid() -> CheckResult:
    worst_loc = 0.0
    worst_val = 0.0
    grid = np.linspace(0.0, math.pi / 2.0, 100_000)
    step = grid[1] - grid[0]
    for xi in (0.5, 1.0, 2.5, 5.0):
        profile = eta_profile(xi, grid)
        k = int(np.argmax(profile))
        opt = eta_max(xi)
        worst_loc = max(worst_loc, abs(grid[k] - opt.theta_opt))
        worst_val = max(worst_val, abs(float(profile[k]) - opt.eta_max))
    ok = worst_loc <= step and worst_val <= 1e-9
    return CheckResult(
        "eta_argmax_grid",
        ok,
        f"grid=1e5 max|theta_grid-theta_opt|={_g(worst_loc)} (<= step {_g(step)}) "
        f"max|eta_grid-eta_max|={_g(worst_val)} (tol 1e-09)",
    )


def check_trajectory_monotonicity() -> CheckResult:
    opt = eta_max(2.5)
    s = _scenario(2.5, opt.theta_opt, gamma=1.0)
    g_t2 = np.linspace(0.0, 12.0, 200)
    values = example_trajectory(s, np.sqrt(g_t2))[1].real
    non_increasing = bool((np.diff(values) <= 1e-12).all())
    floor = s.field.eta_mod / 2.0 - 1e-12
    above_floor = bool((values >= floor).all())
    ok = non_increasing and above_floor
    return CheckResult(
        "trajectory_monotonicity",
        ok,
        f"non_increasing={non_increasing} saturation_floor_held={above_floor} "
        f"floor={_g(s.field.eta_mod / 2.0)}",
    )


def check_channel_positivity_sweep(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = _draw_channel_cases(rng, 250)
    failures = 0
    for rho, s, t in cases:
        for op in (evolve_elementwise, operator_sum_apply, dressed_apply,
                   lambda r, sc, tt: oracle.average_quadrature(r, sc, tt)):
            out = op(rho, s, t)  # DensityMatrix construction validates at 1e-10
            if abs(np.trace(out.matrix) - 1.0) > 1e-14:
                failures += 1
    ok = failures == 0
    return CheckResult(
        "channel_positivity_sweep",
        ok,
        f"outputs=1000 validation_failures={failures} trace_tol=1e-14",
    )


def run_checks(seed: int = 42) -> list[CheckResult]:
    """Run the full verification suite with one master seed."""
    return [
        check_kappa_amplification_anchor(),
        check_coherence_saturation_anchor(),
        check_eta_max_monotone_limit(),
        check_analytic_vs_quadrature(seed),
        check_decomposition_agreement(seed),
        check_cptp_grid(),
        check_rest_frame_reduction(seed),
        check_bell_rest_decay(),
        check_bell_boosted_reference(),
        check_montecarlo_consistency(seed),
        check_boost_geometry_identities(seed),
        check_eta_argmax_grid(),
        check_trajectory_monotonicity(),
        check_channel_positivity_sweep(seed),
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
