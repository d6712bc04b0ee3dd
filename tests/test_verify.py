"""Tests for the verify suite's checks beyond their PASS lines."""

import math

import numpy as np
import pytest

from spinboost import analysis, oracle, verify
from spinboost.channel import dressed_apply, evolve_elementwise, operator_sum_apply
from spinboost.relkin import EtaMax, Scenario, _geometry, eta_max, eta_profile


def transposed_kernel(m, s, t):
    """A positive but not completely positive map: the channel, then a transpose."""
    return evolve_elementwise(m, s, t).swapaxes(-1, -2)


def shrunk_kernel(m, s, t):
    """A completely positive map that loses trace."""
    return 0.5 * evolve_elementwise(m, s, t)


def test_cptp_grid_passes_on_the_channel():
    result = verify.check_cptp_grid()
    assert result.passed, result.line()
    assert result.detail.startswith("grid=10x10x5 min_choi_eig=")


def test_cptp_grid_fails_a_map_that_is_not_cp(monkeypatch):
    monkeypatch.setattr(verify, "evolve_elementwise", transposed_kernel)
    result = verify.check_cptp_grid()
    assert not result.passed
    # the transpose of a state is a state: only the Choi spectrum catches it
    assert "invalid_probe_images" not in result.detail
    assert "min_choi_eig=-1 " in result.detail


def test_cptp_grid_fails_a_map_that_is_not_tp(monkeypatch):
    monkeypatch.setattr(verify, "evolve_elementwise", shrunk_kernel)
    result = verify.check_cptp_grid()
    assert not result.passed
    assert "invalid_probe_images=3000" in result.detail
    tp = float(result.detail.split("max_tp_residual=")[1].split()[0])
    assert tp > 0.5


@pytest.mark.parametrize("kernel", [transposed_kernel, shrunk_kernel])
def test_cptp_grid_figures_stay_finite_on_failure(monkeypatch, kernel):
    monkeypatch.setattr(verify, "evolve_elementwise", kernel)
    detail = verify.check_cptp_grid().detail
    for key in ("min_choi_eig=", "max_tp_residual="):
        assert np.isfinite(float(detail.split(key)[1].split()[0]))


GRID_STEP = (math.pi / 2.0) / 99_999


def test_eta_argmax_grid_passes():
    result = verify.check_eta_argmax_grid()
    assert result.passed, result.line()
    rel = float(result.detail.split("max_rel|eta_profile-eta_grid|=")[1].split()[0])
    assert rel <= 1e-14


def shifted_eta_max(theta_shift=0.0, eta_shift=0.0):
    """``eta_max`` with theta_opt and eta_max moved by the given amounts."""
    def shifted(xi):
        opt = eta_max(xi)
        return EtaMax(opt.eta_max + eta_shift, opt.theta_opt + theta_shift, opt.chi_at_opt)
    return shifted


@pytest.mark.parametrize("name, planted", [
    ("eta_profile", lambda xi, theta: (1.0 + 1e-13) * eta_profile(xi, theta)),
    ("eta_max", shifted_eta_max(theta_shift=2 * GRID_STEP)),
    ("eta_max", shifted_eta_max(eta_shift=2e-9)),
])
def test_eta_argmax_grid_catches_a_planted_error(monkeypatch, name, planted):
    # eta_profile 1e-13 relative off, theta_opt two grid steps off, eta_max 2e-9 off
    monkeypatch.setattr(verify, name, planted)
    result = verify.check_eta_argmax_grid()
    assert not result.passed, result.line()


def test_eta_argmax_grid_leaves_the_dense_grid_to_its_own_form(monkeypatch):
    # the 1e5-angle grid never goes through relkin: eta_profile sees every 100th angle only
    seen = []

    def recorded(xi, theta):
        seen.append(np.size(theta))
        return eta_profile(xi, theta)

    monkeypatch.setattr(verify, "eta_profile", recorded)
    assert verify.check_eta_argmax_grid().passed
    assert seen and max(seen) <= 1_250


@pytest.mark.parametrize("module, name, failing, note", [
    (verify, "evolve_elementwise", ["cptp_grid"], " invalid_probe_images=1"),
    (oracle, "two_qubit_average", ["bell_rest_decay", "bell_boosted_reference"],
     " invalid_images=1"),
])
def test_a_nan_image_fails_its_check_and_the_run_goes_on(monkeypatch, module, name, failing,
                                                         note):
    # a NaN in one spanning probe image, or in one two-qubit average of each Bell check
    clean = verify.run_checks(42)
    func = getattr(module, name)

    def planted(m, *args):
        out = func(m, *args)
        if m is analysis.PROBES or module is oracle:
            out.reshape((-1,) + out.shape[-2:])[1, 0, 1] = math.nan
        return out

    monkeypatch.setattr(module, name, planted)
    results = verify.run_checks(42)
    assert len(results) == 14 and [r.name for r in results if not r.passed] == failing
    for result, before in zip(results, clean):
        assert note in result.detail if not result.passed else result.line() == before.line()


def transposed_operator_sum(*args):
    return operator_sum_apply(*args).swapaxes(-1, -2)


def shrunk_operator_sum(*args):
    return 0.999 * operator_sum_apply(*args)


def stretched_operator_sum(*args):
    """Trace-preserving but not positive: the Bloch vector stretched by 3/2."""
    return 1.5 * operator_sum_apply(*args) - 0.25 * np.eye(2)


@pytest.fixture(scope="module")
def pool():
    return verify.case_pool(42)


@pytest.mark.parametrize("count", [250, 100, 20, 1])
def test_pool_starts_with_a_fresh_draw(pool, count):
    rhos, scenarios, times = verify._draw_channel_cases(np.random.default_rng(42), count)
    assert (pool.rhos[:count] == rhos).all() and (pool.times[:count] == times).all()
    assert scenarios.gamma.shape == (count,)
    for k in range(count):
        s, s_f = pool.scenarios[k], scenarios[k]
        assert (s.xi, s.theta, s.phi, s.gamma) == (s_f.xi, s_f.theta, s_f.phi, s_f.gamma)


def test_pool_draws_from_two_streams_seeded_by_the_generator(pool):
    # two seeds from the generator itself, not Generator.spawn (numpy >= 1.25)
    uniforms, normals = (np.random.default_rng(s)
                         for s in np.random.default_rng(42).integers(2**63, size=2))
    xi, theta, phi, scale, gp_t2 = uniforms.uniform(
        (0.0, 0.0, 0.0, 0.3, 0.0), (3.0, math.pi, 2.0 * math.pi, 1.5, 5.0),
        size=(verify.POOL_SIZE, 5)).T
    s = pool.scenarios
    assert (s.xi == xi).all() and (s.theta == theta).all() and (s.phi == phi).all()
    assert (pool.scenarios.gamma == 2.0 * scale**2).all()
    assert (pool.times == np.sqrt(gp_t2 / pool.scenarios.gamma_prime)).all()
    g = normals.standard_normal((verify.POOL_SIZE, 8))
    for k in (0, 1, 2, 249):
        # odd cases are pure, from the first 4 of their 8 normals
        psi = g[k, :2] + 1j * g[k, 2:4]
        a = (g[k, :4] + 1j * g[k, 4:]).reshape(2, 2)
        ref = np.outer(psi, psi.conj()) if k % 2 else a @ a.conj().T
        assert np.abs(pool.rhos[k] - ref / np.trace(ref).real).max() <= 1e-15


def test_pool_images_are_valid(pool):
    for form in verify.FORMS:
        assert pool.images[form].shape == (verify.POOL_SIZE, 2, 2)
        assert not pool.invalid[form].any()


def test_pool_holds_each_form_of_each_case(pool):
    for k in (0, 99, 249):
        rho, s, t = pool.case(k)
        for form, op in (("elementwise", evolve_elementwise), ("operator_sum", operator_sum_apply),
                         ("dressed", dressed_apply), ("quadrature", oracle.average_quadrature)):
            assert (pool.images[form][k] == op(rho, s, t)).all()


def test_trace_losing_operator_sum_fails_without_crashing(monkeypatch):
    monkeypatch.setattr(verify, "operator_sum_apply", shrunk_operator_sum)
    results = {r.name: r for r in verify.run_checks(42)}
    assert len(results) == 14
    sweep = results["channel_positivity_sweep"]
    assert not sweep.passed
    assert "validation_failures=250 " in sweep.detail
    decomposition = results["decomposition_agreement"]
    assert not decomposition.passed
    assert "invalid_images=100" in decomposition.detail
    assert float(decomposition.detail.split("max|opsum-elementwise|=")[1].split()[0]) > 1e-4


def test_non_positive_operator_sum_fails_the_sweep(monkeypatch):
    monkeypatch.setattr(verify, "operator_sum_apply", stretched_operator_sum)
    pool = verify.case_pool(42)
    # images with Bloch length above 2/3 stretch out of the ball
    assert 0 < pool.invalid["operator_sum"].sum() < verify.POOL_SIZE
    sweep = verify.check_channel_positivity_sweep(pool)
    failures = int(sweep.detail.split("validation_failures=")[1].split()[0])
    assert not sweep.passed and failures == pool.invalid["operator_sum"].sum()
    assert not verify.check_decomposition_agreement(pool).passed


def test_transposed_operator_sum_fails_the_cross_check(monkeypatch):
    monkeypatch.setattr(verify, "operator_sum_apply", transposed_operator_sum)
    pool = verify.case_pool(42)
    decomposition = verify.check_decomposition_agreement(pool)
    assert not decomposition.passed
    assert "invalid_images" not in decomposition.detail
    assert float(decomposition.detail.split("max|opsum-elementwise|=")[1].split()[0]) > 0.1
    # the transpose of a state is a state: the sweep alone cannot see it
    assert verify.check_channel_positivity_sweep(pool).passed


def test_raising_quadrature_counts_as_a_failure(monkeypatch):
    calls = []
    half_angle_rates = oracle._half_angle_rates

    def fails_once(s, t, b_max):
        # the first call is the pool's quadrature: it refuses pool case 0
        calls.append(t)
        rates = half_angle_rates(s, t, b_max)
        if len(calls) == 1:
            rates[0] = np.nan
        return rates

    monkeypatch.setattr(oracle, "_half_angle_rates", fails_once)
    pool = verify.case_pool(42)
    assert np.isnan(pool.images["quadrature"][0]).all()
    assert pool.invalid["quadrature"].sum() == 1
    sweep = verify.check_channel_positivity_sweep(pool)
    assert not sweep.passed and "validation_failures=1 " in sweep.detail
    quad = verify.check_analytic_vs_quadrature(pool)
    assert not quad.passed and quad.detail.endswith(" invalid_images=1")
    mc_line = verify.check_montecarlo_consistency(pool, 42)
    assert not mc_line.passed and mc_line.detail.endswith(" invalid_images=1")


def test_raising_montecarlo_counts_as_a_failure(monkeypatch):
    randomisation_means = oracle._randomisation_means

    def fails_on_third_case(mc, half_scales):
        # the shared-stream call refuses its third case
        half_scales = np.array(half_scales)
        if len(half_scales) == 20:
            half_scales[2] = np.nan
        return randomisation_means(mc, half_scales)

    monkeypatch.setattr(oracle, "_randomisation_means", fails_on_third_case)
    results = {r.name: r for r in verify.run_checks(42)}
    assert len(results) == 14
    mc_line = results.pop("montecarlo_consistency")
    assert not mc_line.passed and mc_line.detail.endswith(" seed_reproducible=True invalid_images=1")
    assert "max dist/stderr=nan " in mc_line.detail
    assert all(r.passed for r in results.values())


def test_raising_reproducibility_call_counts_as_a_failure(monkeypatch, pool):
    average_montecarlo = oracle.average_montecarlo

    def refuses(m, s, t, mc=oracle.McSpec()):
        means, stderrs = average_montecarlo(m, s, t, mc)
        if means.ndim == 2:  # a call of one case
            return np.full_like(means, np.nan), np.nan
        return means, stderrs

    monkeypatch.setattr(oracle, "average_montecarlo", refuses)
    mc_line = verify.check_montecarlo_consistency(pool, 42)
    assert not mc_line.passed
    assert mc_line.detail.endswith(" seed_reproducible=False invalid_images=2")


def test_invalid_montecarlo_mean_counts_as_a_failure(monkeypatch, pool):
    average_montecarlo = oracle.average_montecarlo

    def stretched(*args):
        means, stderrs = average_montecarlo(*args)
        if means.ndim == 3:  # the shared-stream call, not a call of one case
            means[5] *= 1.001
        return means, stderrs

    monkeypatch.setattr(oracle, "average_montecarlo", stretched)
    mc_line = verify.check_montecarlo_consistency(pool, 42)
    assert not mc_line.passed and mc_line.detail.endswith(" invalid_images=1")


def with_nan_image(pool, form, k):
    """The pool with case k's image under ``form`` NaN, but not marked invalid."""
    images = dict(pool.images, **{form: pool.images[form].copy()})
    images[form][k] = np.nan
    return verify.CasePool(pool.rhos, pool.scenarios, pool.times, images, pool.invalid)


@pytest.mark.parametrize("form, check, figure", [
    ("elementwise", verify.check_analytic_vs_quadrature, "max|analytic-quad201|=nan "),
    ("dressed", verify.check_decomposition_agreement, "max|dressed-elementwise|=nan "),
    ("quadrature", lambda pool: verify.check_montecarlo_consistency(pool, 42),
     "max dist/stderr=nan "),
])
def test_a_nan_distance_fails_its_check(pool, form, check, figure):
    # max(0.0, nan) is 0.0: a NaN must not read as a clean distance
    result = check(with_nan_image(pool, form, 3))
    assert not result.passed and figure in result.detail
    assert "invalid_images" not in result.detail


def test_a_nan_stderr_fails_the_montecarlo_check(monkeypatch, pool):
    average_montecarlo = oracle.average_montecarlo

    def nan_stderr(*args):
        means, stderrs = average_montecarlo(*args)
        if means.ndim == 3:  # the shared-stream call, not a call of one case
            stderrs[4] = np.nan
        return means, stderrs

    monkeypatch.setattr(oracle, "average_montecarlo", nan_stderr)
    mc_line = verify.check_montecarlo_consistency(pool, 42)
    assert not mc_line.passed and "max dist/stderr=nan " in mc_line.detail
    assert mc_line.detail.endswith(" seed_reproducible=True")


def montecarlo_keys(monkeypatch, pool, seed):
    """The McSpec seeds and the (seed, r) stream keys of one montecarlo_consistency."""
    spec_seeds, stream_keys = [], set()
    average_montecarlo = oracle.average_montecarlo
    stream = oracle._stream

    def recorded(rho, s, t, mc=oracle.McSpec()):
        spec_seeds.append(mc.seed)
        return average_montecarlo(rho, s, t, mc)

    def keyed(stream_seed, r):
        stream_keys.add((stream_seed, r))
        return stream(stream_seed, r)

    with monkeypatch.context() as m:
        m.setattr(oracle, "average_montecarlo", recorded)
        m.setattr(oracle, "_stream", keyed)
        assert verify.check_montecarlo_consistency(pool, seed).passed
    return spec_seeds, stream_keys


def test_montecarlo_runs_on_the_verify_seed_alone(monkeypatch, pool):
    spec_seeds, keys = montecarlo_keys(monkeypatch, pool, 42)
    assert set(spec_seeds) == {42}
    # one stream per randomisation, shared by the 20 cases and the two calls of one
    assert keys == {(42, r) for r in range(oracle.MC_RANDOMISATIONS)}
    _, next_keys = montecarlo_keys(monkeypatch, pool, 43)
    assert not keys & next_keys


# P(|T| > x) for Student's t, from published tables: two-sided 5% and 1%
# points of 1, 2, 15 and 30 degrees of freedom, and the Cauchy tail at 1
@pytest.mark.parametrize("x, dof, tail", [(12.706204736174698, 1, 0.05), (1.0, 1, 0.5),
                                          (4.302652729749464, 2, 0.05),
                                          (2.131449545559323, 15, 0.05),
                                          (2.946712883475239, 15, 0.01),
                                          (2.042272456301238, 30, 0.05),
                                          (2.749995653567276, 30, 0.01)])
def test_student_t_tail_matches_the_tables(x, dof, tail):
    assert abs(verify.student_t_tail(x, dof) - tail) <= 1e-12 * tail


def test_student_t_tail_tends_to_the_normal_tail():
    # 2 Phi(-3) = erfc(3 / sqrt 2)
    assert abs(verify.student_t_tail(3.0, 40_000) / math.erfc(3.0 / math.sqrt(2.0)) - 1.0) < 1e-3


def test_montecarlo_bound_is_the_bonferroni_t_quantile():
    dof = oracle.MC_RANDOMISATIONS - 1
    bound = verify.montecarlo_bound(verify.MC_FALSE_FAILURE_RATE, verify.MC_CASES)
    share = verify.MC_FALSE_FAILURE_RATE / verify.MC_CASES
    assert abs(verify.student_t_tail(bound, dof) / share - 1.0) < 1e-9
    assert verify.montecarlo_bound(0.05, 1) == pytest.approx(2.131449545559323, rel=1e-12)
    detail = verify.check_montecarlo_consistency(verify.case_pool(42), 42).detail
    assert f"(<= {bound:.4g}, t_{dof} at false-failure rate 1e-03)" in detail


def bisected_100_steps(rate, cases):
    """``montecarlo_bound`` by 100 bisection steps, however soon the bracket stops moving."""
    dof = oracle.MC_RANDOMISATIONS - 1
    lo, hi = 0.0, 1e6
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if verify.student_t_tail(mid, dof) > rate / cases:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("rate, cases", [(1e-3, 20), (0.05, 1), (0.2, 1), (1e-3, 1), (0.5, 3),
                                         (0.01, 1), (1e-9, 1), (0.999, 1)])
def test_montecarlo_bound_stops_where_the_bracket_does(rate, cases):
    # once no float lies strictly between lo and hi, a step moves neither
    assert verify.montecarlo_bound(rate, cases) == bisected_100_steps(rate, cases)


def binomial_upper(n, p, tail=1e-6):
    """The least k with P(X > k) <= tail for X ~ Binomial(n, p).

    Each term in logarithms, so that no factor overflows or underflows at
    thousands of trials."""
    cdf, k = 0.0, -1
    while 1.0 - cdf > tail:
        k += 1
        cdf += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        + k * math.log(p) + (n - k) * math.log1p(-p))
    return k


def within_binomial_tails(ratios, rate):
    """Whether the count of ``ratios`` past |T|'s quantile at ``rate`` lies within the
    1e-6 binomial tails on both sides of Binomial(len(ratios), rate)."""
    past = int((ratios > verify.montecarlo_bound(rate, 1)).sum())
    return (past <= binomial_upper(len(ratios), rate)
            and len(ratios) - past <= binomial_upper(len(ratios), 1.0 - rate))


def test_binomial_upper_holds_its_small_count_bounds():
    # the bounds of the test at rest, and a count whose terms once overflowed
    assert [binomial_upper(1000, p) for p in (0.2, 0.05, 0.8, 0.95)] == [262, 86, 858, 979]
    assert binomial_upper(4000, 0.05) == 269 and 4000 - binomial_upper(4000, 0.95) == 138


def test_montecarlo_consistency_ratios_follow_student_t():
    # montecarlo_consistency's per-case ratios dist/stderr on verify seeds
    # 0-199, 4000 in all: the shares past |T|'s (t_15's) two-sided 5% and 1%
    # quantiles stay within 1e-6 binomial tails of 5% and 1%. The 20 cases
    # of a seed share one stream, so their ratios are correlated and the
    # counts spread wider than the binomial's: seeds 0-99 give 43 past the
    # 1% quantile against a bound of 44, and seeds 0-199 59 against 73. A
    # standard error 0.8 times as large crosses a bound.
    ratios = []
    for seed in range(200):
        rhos, scenarios, times = verify._draw_channel_cases(np.random.default_rng(seed),
                                                            verify.MC_CASES)
        quad = oracle.average_quadrature(rhos, scenarios, times, oracle.QuadratureSpec(201))
        means, stderrs = oracle.average_montecarlo(rhos, scenarios, times,
                                                   oracle.McSpec(seed=seed))
        ratios.append(np.linalg.norm(means - quad, axis=(-2, -1)) / stderrs)
    ratios = np.concatenate(ratios)
    assert all(within_binomial_tails(ratios, rate) for rate in (0.05, 0.01))
    assert not all(within_binomial_tails(ratios / 0.8, rate) for rate in (0.05, 0.01))


def test_montecarlo_bound_is_calibrated_at_rest():
    # At rest the exact mean scales rho_01 by exp(-gamma t^2). On the
    # lattice the sine means vanish and 1 - cos d carries all the error, one
    # Gaussian direction, where the ratio's law is |T| itself: over 1000
    # streams the count past the bound at a rate is Binomial(1000, rate) at
    # most. Both sides are held to a 1e-6 binomial tail; a stderr off by 20%
    # crosses one. The fewest strata: the tail strata alone.
    rho = np.array([[0.6, 0.3 - 0.2j], [0.3 + 0.2j, 0.4]])
    s = Scenario(0.0, gamma=1.0)
    g_t2, count = 0.05, 1000
    exact = rho * np.array([[1.0, math.exp(-g_t2)], [math.exp(-g_t2), 1.0]])
    samples = oracle.MC_RANDOMISATIONS * oracle.MC_ANGLES * oracle.MC_TAIL_STRATA
    ratios = []
    for seed in range(count):
        mean, stderr = oracle.average_montecarlo(rho, s, math.sqrt(g_t2),
                                                 oracle.McSpec(samples, seed))
        ratios.append(np.linalg.norm(mean - exact) / stderr)
    for rate in (0.2, 0.05):
        past = int((np.array(ratios) > verify.montecarlo_bound(rate, 1)).sum())
        assert past <= binomial_upper(count, rate)
        assert count - past <= binomial_upper(count, 1.0 - rate)


def test_raising_per_state_form_fails_rest_frame_reduction(monkeypatch):
    def invalid(rhos, s, t):
        return 1.001 * operator_sum_apply(rhos, s, t)

    monkeypatch.setattr(verify, "operator_sum_apply", invalid)
    result = verify.check_rest_frame_reduction(42)
    assert not result.passed
    assert "invalid_images=" in result.detail


@pytest.mark.parametrize("seed", [1630630108, 1193996828, 1129179639])
def test_geometry_check_passes_where_kappa_sq_is_large(seed):
    # |d|^2 ~ 745 at xi = 4: an absolute 1e-12 is 9 ulps there
    result = verify.check_boost_geometry_identities(seed)
    assert result.passed, result.line()


def per_draw_geometry_detail(seed):
    """The geometry check's detail, one scalar draw and two fields d = kappa n at a time."""
    rng = np.random.default_rng(seed)
    worst, exact = 0.0, True
    for _ in range(1000):
        xi, theta = rng.uniform(0.0, 4.0), rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2 * math.pi)
        f = Scenario(xi, theta, phi, gamma=1.0)
        base = Scenario(xi, theta, 0.0, gamma=1.0)
        expected = math.cos(theta) ** 2 + math.cosh(xi) ** 2 * math.sin(theta) ** 2
        d = f.kappa * f.n
        worst = max(worst, abs(float(np.dot(d, d)) - expected) / expected)
        exact &= (f.eta_mod, f.chi_mod, f.kappa) == (base.eta_mod, base.chi_mod, base.kappa)
    return (f"draws=1000 max||d|^2 - kappa^2|/kappa^2={verify._g(worst)} (tol 1e-14) "
            f"azimuth_independent_bitwise={exact}")


@pytest.mark.parametrize("seed", [7, 1630630108])
def test_geometry_check_gives_the_per_draw_figures(seed):
    # at seed 7 a |d|^2 summed as (d * d).sum(-1) moves the printed worst ratio
    assert verify.check_boost_geometry_identities(seed).detail == per_draw_geometry_detail(seed)


@pytest.mark.parametrize("component", [0, 1, 2])
def test_geometry_check_catches_a_1e13_relative_error_in_d(monkeypatch, component):
    # d = kappa n: the error is planted in the axis the check scales by kappa
    def skewed(xi, theta, phi):
        kappa, n, *rest = _geometry(xi, theta, phi)
        n[..., component] *= 1.0 + 1e-13
        return kappa, n, *rest

    monkeypatch.setattr(verify, "_geometry", skewed)
    result = verify.check_boost_geometry_identities(42)
    assert not result.passed, result.line()


def clamped_concurrence(m):
    """Wootters concurrence from the Hermitian form sqrt(rho) rho~ sqrt(rho), with squared
    eigenvalues below 1e-13 rounded to zero: off by up to 3e-7 just below C = 1."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    vals, vecs = np.linalg.eigh(m)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]
    sqrt_rho = root @ vecs.conj().swapaxes(-1, -2)
    h = sqrt_rho @ (yy @ m.conj() @ yy) @ sqrt_rho
    ev = np.linalg.eigvalsh(0.5 * (h + h.conj().swapaxes(-1, -2)))
    lam = np.sqrt(np.where(ev < 1e-13 * np.maximum(ev[..., -1:], 1.0), 0.0, ev))
    return np.maximum(0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0])


def test_bell_rest_decay_samples_small_times():
    result = verify.check_bell_rest_decay()
    assert result.passed, result.line()
    assert "over 1e-12<=gamma_t2<=3" in result.detail


def test_bell_rest_decay_catches_a_clamped_concurrence(monkeypatch):
    monkeypatch.setattr(verify.entangle, "concurrence", clamped_concurrence)
    result = verify.check_bell_rest_decay()
    assert not result.passed, result.line()
    worst = float(result.detail.split("=")[1].split()[0])
    assert 1e-8 < worst < 1e-6
