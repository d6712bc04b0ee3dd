"""Self-test of the benchmark: every output check accepts the program's real
output and rejects a deliberately corrupted copy of it.

Usage: python3 bench/selftest.py   (exit 0 when every check behaves; about 10 s)

One pass of each workload is run for seed 7. Each corruption below is
aimed at one named property of checks.py and must make that property
fail; the uncorrupted output of every operation that is not an edge
operation must pass all of them.
"""

from __future__ import annotations

import json
import re
import sys

import checks
import run
import workloads
from tracer import Tracer, summarize


def csv_edit(row: int, col: int, fn):
    def edit(text: str, op) -> str:
        lines = text.splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        k = start + (row if row >= 0 else len(lines) - start + row)
        fields = lines[k].rstrip("\n").split(",")
        fields[col] = repr(fn(float(fields[col])))
        lines[k] = ",".join(fields) + "\n"
        return "".join(lines)
    return edit


def json_edit(row: int, key: str, fn):
    def edit(text: str, op) -> str:
        records = json.loads(text)
        records[row][key] = fn(records[row][key])
        return json.dumps(records)
    return edit


def drop_last_record(text: str, op) -> str:
    if text.lstrip().startswith("["):
        return json.dumps(json.loads(text)[:-1])
    return "".join(text.splitlines(keepends=True)[:-1])


def replace(old: str, new: str):
    def edit(text: str, op) -> str:
        assert old in text, old
        return text.replace(old, new, 1)
    return edit


CORRUPTIONS = {
    "scan-eta": [
        ("shape", drop_last_record),
        ("grid", csv_edit(5 * workloads.SCAN_THETA_STEPS, 0, lambda x: x + 1e-3)),
        ("eta_lorentz", csv_edit(-1, 2, lambda x: x * (1 + 1e-6))),
        ("eta_bounds", csv_edit(0, 2, lambda x: -1e-6)),
    ],
    "eta-max": [
        ("shape", drop_last_record),
        ("grid", json_edit(3, "xi", lambda x: x + 1e-3)),
        ("eta_max_tanh", json_edit(-1, "eta_max", lambda x: x * (1 + 1e-6))),
        ("theta_opt", json_edit(-1, "theta_opt", lambda x: x + 1e-6)),
        ("chi_at_opt", json_edit(-1, "chi_at_opt", lambda x: x + 1e-6)),
    ],
    "offdiag": [
        ("shape", drop_last_record),
        ("grid", csv_edit(3, 0, lambda x: x + 1e-3)),
        ("rest_gaussian", csv_edit(10, 2, lambda x: x + 1e-9)),
        ("boosted_monotone", csv_edit(1, 1, lambda x: 0.6)),
        ("saturation_floor", csv_edit(-1, 1, lambda x: 0.0)),
        ("boosted_closed_form", csv_edit(1, 1, lambda x: x - 1e-9)),
    ],
    "evolve": [
        ("shape", drop_last_record),
        ("grid", csv_edit(3, 0, lambda x: x + 1e-3)),
        ("analytic_vs_oracle", csv_edit(7, 2, lambda x: x + 1e-6)),
        ("summary_line", lambda text, op: re.sub(
            "(# max_analytic_oracle_diff = ).*", r"\1nan", text)),
        ("bloch_map", csv_edit(7, 3, lambda x: x + 1e-9)),
        # rho_uu moves r_z, and with it n.r, since n_z >= 1/cosh(xi) > 0.1 here
        ("n_dot_r_conserved", csv_edit(7, 1, lambda x: x + 1e-7)),
        ("positivity", csv_edit(0, 1, lambda x: 1.5)),
    ],
    "concurrence": [
        ("shape", drop_last_record),
        ("grid", json_edit(3, "gamma_t2", lambda x: x + 1e-3)),
        ("boosted_exact_phi0", json_edit(50, "concurrence", lambda x: x + 1e-6)),
        ("references", json_edit(50, "reference_rest", lambda x: x + 1e-9)),
        ("range", json_edit(0, "concurrence", lambda x: 1.0 + 1e-6)),
    ],
    "verify": [
        ("all_pass", replace("\nPASS ", "\nFAIL ")),
        ("summary", lambda text, op: text.rsplit("verify: ", 1)[0]
         + "verify: 0/14 checks passed\n"),
        ("header", replace("seed = ", "seed = 1")),
    ],
}


def main() -> int:
    pkg = run.load_package()
    errors = []
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 7)
        _, outs = run.run_pass(pkg.cli, ops)
        for op, (rc, text) in zip(ops, outs):
            label = " ".join(op.argv)
            records, bad = checks.check(op, rc, text)
            if op.edge:
                print(f"edge   {label}: {bad or 'passes'} ({op.edge})")
                continue
            if bad:
                errors.append(f"{label}: real output rejected: {bad}")
            for prop, corrupt in CORRUPTIONS[op.kind] + [("exit_code", None)]:
                rc2, text2 = (1, text) if corrupt is None else (rc, corrupt(text, op))
                caught = prop in checks.check(op, rc2, text2)[1]
                print(f"{'ok' if caught else 'MISSED':6} {op.kind}: corrupted {prop}")
                if not caught:
                    errors.append(f"{label}: corrupted {prop} not rejected")

        judge = run.Judge(ops)
        judge(outs)
        edge_failures = judge.failed
        if judge.problems:
            errors.append(f"{workload}: judge rejects the real output: {judge.problems}")
        rc, text = outs[0]
        judge([(rc, text + "\n")] + outs[1:])
        if not any("byte-identical" in p for p in judge.problems):
            errors.append(f"{workload}: a pass differing from the first was not rejected")
        if judge.failed != 2 * edge_failures or judge.attempted != 2 * len(ops):
            errors.append(f"{workload}: failed/attempted not whole rounds: "
                          f"{judge.failed}/{judge.attempted}")

    # self time = duration minus the time child spans cover
    spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 3.0, 4.0, 1], ["b", 6.0, 7.0, 0]]
    s = summarize(spans)
    got = (s["a"]["self_s"], s["b"]["self_s"], s["b"]["total_s"], s["b"]["calls"])
    if got != (6.0, 3.0, 4.0, 2):
        errors.append(f"summarize: wrong self/total times {dict(s)}")
    tracer = Tracer(pkg)
    original = pkg.cli.eta_profile
    tracer.install()
    patched = pkg.cli.eta_profile is not original and pkg.relkin.eta_profile is not original
    tracer.remove()
    if not patched or pkg.cli.eta_profile is not original:
        errors.append("tracer does not patch and restore cli.eta_profile")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "all checks behave")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
