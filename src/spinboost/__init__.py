"""Decoherence of a relativistically moving spin-1/2 in Gaussian magnetic noise.

Closed-form channel dynamics, an independent numerical averaging oracle,
channel diagnostics (Choi/CPTP/Kraus), two-qubit concurrence under a
common bath, and a CLI for figure data and cross-validation.
"""

from .analysis import (
    ChoiMatrix,
    CPTPReport,
    choi_of,
    kraus_from_choi,
    kraus_to_choi,
    verify_cptp,
)
from .channel import (
    ChannelCoeffs,
    NoiseSpec,
    Scenario,
    channel_coeffs,
    dressed_apply,
    dressing_transform,
    evolve_elementwise,
    example_trajectory,
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
    rapidity_from_beta,
)
from .spinalg import (
    DensityMatrix,
    DensityMatrixError,
    eigh_descending,
    frobenius_distance,
    pauli_rotation,
    random_density,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [
    "BoostParams",
    "ChannelCoeffs",
    "ChoiMatrix",
    "ConcurrenceSeries",
    "CPTPReport",
    "DensityMatrix",
    "DensityMatrixError",
    "EffectiveField",
    "EtaMax",
    "McSpec",
    "NoiseSpec",
    "QuadratureSpec",
    "Scenario",
    "average_montecarlo",
    "average_quadrature",
    "bell_phi_plus",
    "boost_em_field",
    "channel_coeffs",
    "choi_of",
    "concurrence",
    "concurrence_trajectory",
    "dressed_apply",
    "dressing_transform",
    "effective_field",
    "eigh_descending",
    "eta_max",
    "eta_profile",
    "evolve_elementwise",
    "example_trajectory",
    "frobenius_distance",
    "gauss_hermite_nodes",
    "kraus_from_choi",
    "kraus_to_choi",
    "operator_sum_apply",
    "pauli_rotation",
    "plus_state",
    "random_density",
    "rapidity_from_beta",
    "rest_dephasing",
    "tensor_product",
    "two_qubit_average",
    "verify_cptp",
]
