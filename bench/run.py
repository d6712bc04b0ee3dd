"""Benchmark of the spinboost CLI: set-up, pass time, throughput and memory.

Usage:
    python3 bench/run.py --workload {scan,dynamics,verify} --seed N --seconds S --trace {0,1}

One process drives ``spinboost.cli.main`` in-process, with the table
written to an in-memory stream. A pass runs every operation of the
workload once (see workloads.py); a warm-up pass is checked in full
against computations made apart from the program (checks.py), and every
timed pass must reproduce the warm-up's output byte for byte. Passes
repeat until ``--seconds`` have passed. Set-up time is the wall time of
fresh interpreters running probe.py, spread over the run. Pass and
set-up times are scaled to a fixed machine speed by a reference loop
timed around each of them (ScaledClock).

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
carries the per-layer metrics instead, from passes traced by tracer.py
alternating with untraced ones, and the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import LAYERS, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
MIN_PASSES = 3
# Time of reference_loop() on the 2-core VM of the README's figures, in a
# quiet phase: end-to-end times are given as if the loop took this long.
REFERENCE_S = 0.125
REFERENCE_RNG_VALUES = np.random.default_rng(0).standard_normal(200_000)


def probe(workload: str, seed: int, flags: tuple[str, ...] = ()) -> tuple[float, str]:
    """Wall time and stderr of one fresh set-up probe.

    The probe runs with one BLAS thread. Importing numpy otherwise starts
    a BLAS thread pool whose start-up takes about 0.15 s of CPU: hidden
    while the second core is free, added to the wall time while the host
    keeps it busy. That alone moved the set-up median by a fifth between
    sets of runs of the same code.
    """
    cmd = [sys.executable, *flags, str(HERE / "probe.py"), workload, str(seed)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def import_self_times(stderr: str) -> Counter:
    """Self import time in seconds per top-level package, from -X importtime."""
    out: Counter = Counter()
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        out[fields[2].strip().split(".")[0]] += int(fields[0]) * 1e-6
    return out


def run_pass(cli, ops) -> tuple[float, list[tuple[int | None, str]]]:
    """Run every operation once through ``cli.main`` (looked up on each call,
    so a traced binding is used when installed); return the time spent in
    it and the outputs."""
    elapsed = 0.0
    outs = []
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = cli.main(list(op.argv))
            except Exception as exc:  # a crash is a failed operation, reported below
                rc = None
                buf.write(f"{type(exc).__name__}: {exc}")
            elapsed += time.perf_counter() - start
        outs.append((rc, buf.getvalue()))
    return elapsed, outs


class Judge:
    """Checks the warm-up pass in full, then holds later passes to its output."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = None
        self.verdicts: list[tuple[int, list[str]]] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, outs) -> int:
        """Account for one pass; return the records it wrote."""
        if self.reference is None:
            self.reference = outs
            self.verdicts = [checks.check(op, rc, text) for op, (rc, text) in zip(self.ops, outs)]
        rows = 0
        for op, out, ref, (records, bad) in zip(self.ops, outs, self.reference, self.verdicts):
            self.attempted += 1
            if out != ref:
                records, bad = checks.check(op, *out)
                bad = bad + ["not byte-identical to the first pass"]
            if op.edge and bad:
                self.failed += 1
                continue
            if bad:
                self.problems.append(f"{' '.join(op.argv)}: {', '.join(bad)}")
                self.failed += out[0] != 0
            rows += records
        return rows


def timed_passes(seconds: float, step) -> None:
    """Call step() until the next pass would run past ``seconds``."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or (time.perf_counter() - start
                                      + statistics.median(times) <= seconds):
        times.append(step())


def reference_loop() -> float:
    """Wall time of a fixed loop that touches no spinboost code: float math
    and number formatting in pure Python, then numpy element-wise and small
    matrix work, the two kinds of work the workloads spend their time on.
    The garbage collector is held off, so the size of the program's heap
    does not reach this figure."""
    values = REFERENCE_RNG_VALUES
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        parts = []
        for i in range(40_000):
            x = i * 1e-4
            parts.append(f"{x:.12g},{math.cosh(x) * math.sin(x) + math.sqrt(x + 1.0):.12g}")
        len(",".join(parts))
        for _ in range(10):
            float(np.exp(-values * values).sum() + np.cos(values).sum())
        small = values[:64].reshape(8, 8)
        for _ in range(2000):
            small @ small
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


class ScaledClock:
    """Turns wall times into reference seconds.

    The host this benchmark was built on changes speed by up to a factor
    of two over minutes, and CPU time follows wall time, so a median over
    one run mostly measures which phase the run fell in. The reference
    loop runs after every timed piece of work; each piece is scaled by
    REFERENCE_S over the mean time of the loops just before and just
    after it. A slower program reads slower; a slower machine does not.
    """

    def __init__(self):
        self.reference = [reference_loop()]

    def scale(self, seconds: float) -> float:
        self.reference.append(reference_loop())
        return seconds * REFERENCE_S / statistics.fmean(self.reference[-2:])


def load_package():
    sys.path.insert(0, str(SRC))
    import spinboost
    import spinboost.cli
    if Path(spinboost.__file__).resolve().parent != SRC / "spinboost":
        raise SystemExit(f"error: imported spinboost from {spinboost.__file__}, not {SRC}")
    return spinboost


def end_to_end(args, ops, judge) -> dict:
    probe(args.workload, args.seed)  # may compile bytecode: not counted
    pkg = load_package()
    judge(run_pass(pkg.cli, ops)[1])
    clock = ScaledClock()
    setup, times, wall, rows = [], [], [], []
    start = time.perf_counter()

    def step():
        step_start = time.perf_counter()
        # set-up probes are spread over the run, so that their median does
        # not hang on the state of the machine in one short window
        if step_start - start >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(clock.scale(probe(args.workload, args.seed)[0]))
        elapsed, outs = run_pass(pkg.cli, ops)
        wall.append(elapsed)
        times.append(clock.scale(elapsed))
        rows.append(judge(outs))
        return time.perf_counter() - step_start

    timed_passes(args.seconds, step)
    while len(setup) < SETUP_PROBES:
        setup.append(clock.scale(probe(args.workload, args.seed)[0]))
    run_s = statistics.median(times)
    print(f"passes={len(times)} pass_s={[round(t, 4) for t in wall]} "
          f"wall run_s={statistics.median(wall):.4f} scaled run_s={run_s:.4f} "
          f"reference_s={[round(t, 4) for t in clock.reference]}", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "rows_per_s": statistics.median(rows) / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(args, ops, judge) -> dict:
    flags = ("-X", "importtime")
    probe(args.workload, args.seed, flags)  # may compile bytecode: not counted
    imports = [import_self_times(probe(args.workload, args.seed, flags)[1])
               for _ in range(SETUP_PROBES)]
    pkg = load_package()
    tracer = Tracer(pkg)
    judge(run_pass(pkg.cli, ops)[1])
    plain, traced, summaries, counts, all_spans = [], [], [], [], []

    def step():
        elapsed, outs = run_pass(pkg.cli, ops)
        plain.append(elapsed)
        judge(outs)
        tracer.install()
        try:
            elapsed_traced, outs = run_pass(pkg.cli, ops)
        finally:
            tracer.remove()
        traced.append(elapsed_traced)
        judge(outs)
        spans, count = tracer.take()
        summaries.append(summarize(spans))
        counts.append(count)
        all_spans.append(spans)
        return elapsed + elapsed_traced

    timed_passes(args.seconds, step)
    calls = [{name: v["calls"] for name, v in s.items()} for s in summaries]
    if any(c != counts[0] for c in counts) or any(c != calls[0] for c in calls):
        judge.problems.append("work counts differ between identical passes")
    write_spans(args, all_spans)

    metrics = {
        "oracle.quadrature_nodes": counts[0]["oracle.quadrature_nodes"],
        "oracle.mc_samples": counts[0]["oracle.mc_samples"],
        "cli.write_table.rows": counts[0]["cli.write_table.rows"],
        "oracle.gauss_hermite_nodes.misses": pkg.oracle.gauss_hermite_nodes.cache_info().misses,
        "trace.spans": len(all_spans[0]),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    for package in ("numpy", "scipy", "spinboost"):
        metrics[f"import.{package}_s"] = statistics.median(i[package] for i in imports)
    names = {name for s in summaries for name in s}
    for name in names:
        per_pass = [s.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}) for s in summaries]
        metrics[f"{name}.calls"] = per_pass[0]["calls"]
        for key in ("self_s", "total_s"):
            metrics[f"{name}.{key}"] = statistics.median(p[key] for p in per_pass)
        if name.startswith("verify.check_"):
            metrics[f"verify.{name.removeprefix('verify.check_')}.s"] = metrics[f"{name}.total_s"]
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = statistics.median(
            sum(v["self_s"] for k, v in s.items() if k.startswith(layer + ".")) for s in summaries)
    print(f"traced passes={len(traced)} traced_s={[round(t, 4) for t in traced]} "
          f"untraced_s={[round(t, 4) for t in plain]}", file=sys.stderr)
    return metrics


def write_spans(args, all_spans) -> None:
    """All spans as CSV: pass, name, start and end in seconds from the
    first span of the run, and the row index of the parent within its
    pass (-1 for a root)."""
    OUT.mkdir(exist_ok=True)
    origin = all_spans[0][0][1] if all_spans and all_spans[0] else 0.0
    path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,name,start_s,end_s,parent\n")
        for k, spans in enumerate(all_spans):
            fh.writelines(f"{k},{name},{start - origin:.7f},{end - origin:.7f},{parent}\n"
                          for name, start, end, parent in spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "spinboost" / "cli.py").is_file():
        print(f"error: no spinboost sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    ops = workloads.build(args.workload, args.seed)
    judge = Judge(ops)
    measured = (per_layer if args.trace else end_to_end)(args, ops, judge)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and not args.trace:
        raise SystemExit(f"error: metrics not measured: {missing}")
    for problem in dict.fromkeys(judge.problems):
        print(f"WRONG: {problem}", file=sys.stderr)
    # a layer the workload never reaches reads zero calls and zero seconds
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": not judge.problems, "attempted": judge.attempted,
              "failed": judge.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
