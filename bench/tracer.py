"""Outside-in layer tracing of the spinboost package.

The tracer wraps the public functions of each package module, and the
validation of ``spinalg.DensityMatrix``, and rebinds every name in every
``spinboost`` module that refers to a wrapped function (``cli.eta_profile``
and ``verify.evolve_elementwise`` as well as ``relkin.eta_profile``), so
calls between layers are seen too. Each call records a span
[name, start, end, parent index] in memory; a few wrappers also count the
work their arguments ask for. Nothing in the package is edited: ``remove``
restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "relkin", "spinalg", "channel", "oracle", "entangle", "analysis", "verify")


def _work_counters(pkg) -> dict:
    """Work counts read from the arguments of a call: name -> (counter, fn)."""
    quad = pkg.oracle.QuadratureSpec()
    mc = pkg.oracle.McSpec()

    def arg(fn, name, default):
        sig = inspect.signature(fn)

        def read(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            return bound.arguments.get(name, default)
        return read

    nodes_q = arg(pkg.oracle.average_quadrature, "q", quad)
    nodes_2q = arg(pkg.oracle.two_qubit_average, "q", quad)
    samples = arg(pkg.oracle.average_montecarlo, "mc", mc)
    rows = arg(pkg.cli.write_table, "rows", ())
    return {
        "oracle.average_quadrature": ("oracle.quadrature_nodes", lambda a, k: nodes_q(a, k).nodes),
        "oracle.two_qubit_average": ("oracle.quadrature_nodes", lambda a, k: nodes_2q(a, k).nodes),
        "oracle.average_montecarlo": ("oracle.mc_samples", lambda a, k: samples(a, k).samples),
        "cli.write_table": ("cli.write_table.rows", lambda a, k: len(rows(a, k))),
    }


class Tracer:
    """Span recorder bound to the modules of one imported package."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._modules = [m for name, m in sorted(sys.modules.items())
                         if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
        counters = _work_counters(pkg)
        self._wrapped = {}  # original function -> traced function
        for layer in LAYERS:
            module = getattr(pkg, layer)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    self._wrapped[obj] = self._wrap(name, obj, counters.get(name))
        dm = pkg.spinalg.DensityMatrix
        self._dm_init = dm.__post_init__
        self._dm_traced = self._wrap("spinalg.DensityMatrix", self._dm_init, None)
        self._rebind = [(m, attr, obj) for m in self._modules
                        for attr, obj in vars(m).items()
                        if inspect.isfunction(obj) and obj in self._wrapped]

    def _wrap(self, name, fn, counter):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        for module, attr, obj in self._rebind:
            setattr(module, attr, self._wrapped[obj])
        self.pkg.spinalg.DensityMatrix.__post_init__ = self._dm_traced

    def remove(self) -> None:
        for module, attr, obj in self._rebind:
            setattr(module, attr, obj)
        self.pkg.spinalg.DensityMatrix.__post_init__ = self._dm_init

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far, and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per name: calls, total time and self time.

    Self time is a span's duration minus the time its child spans cover.
    Total time counts only the outermost span of a name, so a recursive
    call is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                            "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["total_s"] += end - start
    return out
