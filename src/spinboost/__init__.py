"""Decoherence of a relativistically moving spin-1/2 in Gaussian magnetic noise.

Closed-form channel dynamics, independent numerical averaging oracles,
channel diagnostics (Choi/CPTP/Kraus), two-qubit concurrence under a
common bath, and a CLI for figure data and cross-validation.

The API works on stacks. A ``Scenario`` holds one case or a stack of
cases (a ``BoostParams`` of arrays). The channel forms
(``evolve_elementwise``, the production form, and its cross-checks
``operator_sum_apply`` and ``dressed_apply``), the oracles
(``average_quadrature``, ``average_montecarlo``, ``two_qubit_average``)
and ``concurrence`` take states in numpy's
(..., 2, 2) or (..., 4, 4) convention, with scenarios and times that
broadcast against them, and return arrays that they do not validate;
an oracle gives NaN where it refuses a case. ``require_valid`` checks a
stack as ``DensityMatrix`` checks one matrix. ``choi_stack``,
``choi_diagnostics`` and ``kraus_residuals`` analyse stacks of maps.
"""

from .analysis import (
    ChoiDiagnostics,
    choi_diagnostics,
    choi_stack,
    kraus_residuals,
    kraus_to_choi,
)
from .channel import (
    Scenario,
    dressed_apply,
    dressing_transform,
    evolve_elementwise,
    operator_sum_apply,
    plus_state,
    rest_dephasing,
)
from .entangle import ConcurrenceSeries, bell_phi_plus, concurrence, concurrence_trajectory
from .oracle import (
    McSpec,
    QuadratureSpec,
    average_montecarlo,
    average_quadrature,
    gauss_hermite_nodes,
    two_qubit_average,
)
from .relkin import (
    BoostParams,
    EffectiveField,
    EtaMax,
    boost_em_field,
    effective_field,
    eta_max,
    eta_profile,
)
from .spinalg import (
    DensityMatrix,
    DensityMatrixError,
    frobenius_distance,
    pauli_rotation,
    random_density,
    require_valid,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [
    "BoostParams",
    "ChoiDiagnostics",
    "ConcurrenceSeries",
    "DensityMatrix",
    "DensityMatrixError",
    "EffectiveField",
    "EtaMax",
    "McSpec",
    "QuadratureSpec",
    "Scenario",
    "average_montecarlo",
    "average_quadrature",
    "bell_phi_plus",
    "boost_em_field",
    "choi_diagnostics",
    "choi_stack",
    "concurrence",
    "concurrence_trajectory",
    "dressed_apply",
    "dressing_transform",
    "effective_field",
    "eta_max",
    "eta_profile",
    "evolve_elementwise",
    "frobenius_distance",
    "gauss_hermite_nodes",
    "kraus_residuals",
    "kraus_to_choi",
    "operator_sum_apply",
    "pauli_rotation",
    "plus_state",
    "random_density",
    "require_valid",
    "rest_dephasing",
    "tensor_product",
    "two_qubit_average",
]
