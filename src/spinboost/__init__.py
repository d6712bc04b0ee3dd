"""Decoherence of a relativistically moving spin-1/2 in Gaussian magnetic noise.

Closed-form channel dynamics, independent numerical averaging oracles,
channel diagnostics (Choi matrices with their CP and TP figures),
two-qubit concurrence under a common bath, and a CLI for figure data and
cross-validation.

The API works on stacks. ``Scenario(xi, theta, phi, gamma=...)`` holds
one case (floats) or a stack of cases (arrays that broadcast) with its
boost geometry: ``kappa``, the axis ``n``, its signed in-plane component
``n_perp``, ``eta_mod``, ``chi_mod`` and the rate ``gamma_prime``. The
channel forms (``evolve_elementwise``, the production form, and its
cross-checks ``operator_sum_apply`` and ``dressed_apply``), the oracles
(``average_quadrature``, ``average_montecarlo``, ``two_qubit_average``)
and ``concurrence`` take states in numpy's (..., 2, 2) or (..., 4, 4)
convention, with scenarios and times that broadcast against them, and
return arrays that they do not validate; an oracle gives NaN where it
refuses a case. States are plain arrays: ``plus_state`` and
``bell_phi_plus`` return read-only ones.
``require_valid`` checks a stack, and raises the ``DensityMatrixError``
of its first invalid matrix from ``DensityMatrix``, the one-matrix check.
``choi_stack`` and ``choi_diagnostics`` analyse stacks of maps.
"""

from .analysis import ChoiDiagnostics, choi_diagnostics, choi_stack
from .channel import (dressed_apply, dressing_transform, evolve_elementwise, operator_sum_apply,
                      plus_state)
from .entangle import bell_phi_plus, concurrence
from .oracle import (McSpec, QuadratureSpec, average_montecarlo, average_quadrature,
                     gauss_hermite_nodes, two_qubit_average)
from .relkin import EtaMax, Scenario, eta_max, eta_profile
from .spinalg import DensityMatrix, DensityMatrixError, require_valid

__version__ = "0.1.0"

__all__ = [
    "ChoiDiagnostics",
    "DensityMatrix",
    "DensityMatrixError",
    "EtaMax",
    "McSpec",
    "QuadratureSpec",
    "Scenario",
    "average_montecarlo",
    "average_quadrature",
    "bell_phi_plus",
    "choi_diagnostics",
    "choi_stack",
    "concurrence",
    "dressed_apply",
    "dressing_transform",
    "eta_max",
    "eta_profile",
    "evolve_elementwise",
    "gauss_hermite_nodes",
    "operator_sum_apply",
    "plus_state",
    "require_valid",
    "two_qubit_average",
]
