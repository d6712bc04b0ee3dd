"""Workload inputs: the CLI invocations each workload runs, drawn from a seed.

Standard library only, so that the set-up probe measures the import of
``spinboost.cli`` and the building of these inputs, and nothing else.
Each workload is a fixed list of operations; one pass runs every
operation once, so the share of failed operations is the same in every
run. Grid sizes are fixed; only the physical parameters move with the
seed, which keeps the work per pass constant across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("scan", "dynamics", "verify")

# Sizes of one pass, chosen so that a pass takes about a second on a
# 2-core VM and a run of 50 s times some 40 passes (10 for `verify`).
SCAN_XI_STEPS = 300
SCAN_THETA_STEPS = 300
ETA_MAX_STEPS = 20_000
EVOLVE_POINTS = 1000
OFFDIAG_POINTS = 20_000
CONCURRENCE_POINTS = 100

# Largest amplified abscissa gamma' t**2 per command. The quadrature
# oracle resolves gamma' t**2 <= ~100 with its default 201 nodes; the
# two-qubit integrand oscillates twice as fast, hence its smaller bound.
EVOLVE_GP_T2 = 20.0
OFFDIAG_GP_T2 = 40.0
CONCURRENCE_GP_T2 = 2.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the numbers its output check needs.

    ``edge`` names a known fault of the program that this operation
    reaches on every seed; a wrong or missing output of an edge
    operation counts as a failed operation, not as a wrong answer.
    """

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    edge: str = ""


def kappa_sq(xi: float, theta: float) -> float:
    """|B'/B|**2 of the boosted field, from cos/cosh alone."""
    return math.cos(theta) ** 2 + math.cosh(xi) ** 2 * math.sin(theta) ** 2


def _op(kind: str, edge: str = "", fmt: str = "csv", **params) -> Op:
    """The CLI call ``kind --key value ...`` for ``params``, floats in full."""
    argv = [kind]
    for key, value in params.items():
        if isinstance(value, tuple):
            value = ",".join(repr(float(c)) for c in value)
        elif isinstance(value, float):
            value = repr(value)
        argv.append(f"--{key.replace('_', '-')}={value}")
    if fmt != "csv":
        argv.append(f"--format={fmt}")
    return Op(kind, tuple(argv), params, edge)


def _scan_ops(rng: random.Random) -> list[Op]:
    return [
        _op("scan-eta", xi_max=rng.uniform(3.0, 6.0), xi_steps=SCAN_XI_STEPS,
            theta_steps=SCAN_THETA_STEPS, theta_max=rng.uniform(1.2, math.pi / 2)),
        _op("eta-max", fmt="json", xi_max=rng.uniform(8.0, 12.0), xi_steps=ETA_MAX_STEPS),
        # Fixed inputs, independent of the seed: both fail today.
        _op("eta-max", "cosh(xi) - 1 cancels at tiny rapidity", fmt="json",
            xi_max=1e-7, xi_steps=11),
        _op("scan-eta", "(cosh(xi) - 1)**2 overflows beyond xi ~ 355",
            xi_max=1000.0, xi_steps=3, theta_steps=3, theta_max=math.pi / 2),
    ]


def _dynamics_ops(rng: random.Random) -> list[Op]:
    xi = rng.uniform(1.0, 3.0)
    theta = rng.uniform(0.2, math.pi - 0.2)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    gamma = rng.uniform(0.5, 2.0)
    # uniform direction, radius in [0.5, 1]
    cz = rng.uniform(-1.0, 1.0)
    az = rng.uniform(0.0, 2.0 * math.pi)
    radius = rng.uniform(0.5, 1.0)
    sz = math.sqrt(1.0 - cz * cz)
    bloch = (radius * sz * math.cos(az), radius * sz * math.sin(az), radius * cz)
    k2 = kappa_sq(xi, theta)
    return [
        _op("evolve", xi=xi, theta=theta, phi=phi, gamma=gamma, bloch=bloch,
            gamma_t2_max=EVOLVE_GP_T2 / k2, points=EVOLVE_POINTS),
        _op("offdiag", xi=xi, theta=theta, gamma=gamma,
            gamma_t2_max=OFFDIAG_GP_T2 / k2, points=OFFDIAG_POINTS),
        _op("concurrence", fmt="json", xi=xi, theta=theta, gamma=gamma,
            gamma_t2_max=CONCURRENCE_GP_T2 / k2, points=CONCURRENCE_POINTS),
    ]


def _verify_ops(rng: random.Random) -> list[Op]:
    return [_op("verify", seed=rng.randrange(2**31))]


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return {"scan": _scan_ops, "dynamics": _dynamics_ops, "verify": _verify_ops}[workload](rng)
