"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all); the numbers behind the verdicts come from the shared verification
engine, executed once per session with the default seed.
"""

import subprocess
import sys

import pytest

from spinboost import verify

SEED = 42


@pytest.fixture(scope="module")
def checks():
    results = {r.name: r for r in verify.run_checks(seed=SEED)}
    return results


def _assert_and_print(criterion, result):
    print(f"[criterion {criterion:02d}] {result.line()}")
    assert result.passed, result.line()


def test_criterion_01_kappa_amplification_anchor(checks):
    # kappa^2 at (xi=2.5, theta_opt) reproduces 6.13229 within 5e-5
    _assert_and_print(1, checks["kappa_amplification_anchor"])


def test_criterion_02_coherence_saturation_anchor(checks):
    # eta_max(2.5) = 0.51780 +/- 2e-4; trajectory saturates at 0.2589
    # +/- 2e-4; off-diagonal data at gamma t^2 = 4 for xi = 0 and 2.5
    _assert_and_print(2, checks["coherence_saturation_anchor"])


def test_criterion_03_eta_max_monotone_limit(checks):
    # eta_max strictly increasing on xi in {0, 0.5, ..., 20}; > 0.999 at 20
    _assert_and_print(3, checks["eta_max_monotone_limit"])


def test_criterion_04_oracle_equivalence(checks):
    # 100 seeded draws: closed forms vs 201-node quadrature < 1e-8;
    # node doubling moves the quadrature by < 1e-10
    _assert_and_print(4, checks["analytic_vs_quadrature"])


def test_criterion_05_decomposition_equivalence(checks):
    # operator-sum (signed weights) and dressed forms match the
    # element-wise channel within 1e-10 on the same draws, including
    # draws with chi > eta
    _assert_and_print(5, checks["decomposition_agreement"])


def test_criterion_06_cptp_grid(checks):
    # 10x10x5 grid: Choi min eigenvalue >= -1e-10, TP residual < 1e-12,
    # Kraus completeness and reassembly within 1e-9
    _assert_and_print(6, checks["cptp_grid"])


def test_criterion_07_rest_frame_reduction(checks):
    # xi = 0: diagonals constant within 1e-14, off-diagonal ratio equals
    # exp(-gamma t^2) within 1e-12
    _assert_and_print(7, checks["rest_frame_reduction"])


def test_criterion_08_two_qubit_rest_decay(checks):
    # Bell-state concurrence matches exp(-4 gamma t^2) within 1e-8
    _assert_and_print(8, checks["bell_rest_decay"])


def test_criterion_09_two_qubit_boosted_asymptotics(checks):
    # deviations from exp(-4 gamma' t^2) at gamma' t^2 = 1 stay at the
    # noise floor (<= 1e-8) and do not grow with rapidity beyond the
    # 1e-10 numerical slack; boosted concurrence never exceeds rest
    _assert_and_print(9, checks["bell_boosted_reference"])


def test_criterion_10_monte_carlo_consistency(checks):
    # 20 scenarios on one stratified stream: MC within the t bound of its
    # standard errors from the quadrature, at a design false-failure rate
    # of 1e-3; fixed seed reproduces bit-identical output
    _assert_and_print(10, checks["montecarlo_consistency"])


def test_criterion_11_cli_determinism(tmp_path):
    # verify --seed 42 exits 0 twice with byte-identical logs;
    # offdiag and scan-eta outputs are byte-identical across runs
    logs = []
    for name in ("log1.txt", "log2.txt"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "spinboost.cli", "verify", "--seed", str(SEED),
             "--out", str(path)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]

    tables = {}
    for cmd, flags in (
        ("offdiag", ["--points", "40"]),
        ("scan-eta", ["--xi-steps", "12", "--theta-steps", "12"]),
    ):
        outputs = []
        for k in range(2):
            path = tmp_path / f"{cmd}-{k}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "spinboost.cli", cmd, *flags, "--out", str(path)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(path.read_bytes())
        tables[cmd] = outputs
        assert outputs[0] == outputs[1], f"{cmd} output not reproducible"
    print(
        "[criterion 11] PASS cli_determinism: verify logs byte-identical, "
        "offdiag/scan-eta tables byte-identical"
    )
