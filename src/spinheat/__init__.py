"""Steady-state heat transport through strongly coupled spin chains.

Short spin chains are driven by two thermal reservoirs, in both the
eigenbasis (global) and single-spin (local) dissipator treatments.  Two
transport routes solve for the stationary state: the four-level Pauli
rate cycle of the Ising pair (`rates`) and the one-body correlation
matrix of the XY chain (`gaussian`).  The heat currents and rectification
are read off them (`thermo`), and the dense Lindblad generator of `oracle`
checks both.
"""

from .spinops import (
    ChainModel,
    HermitianOperator,
    SpectralDecomposition,
    SpinChainSpec,
    build_hamiltonian,
    pauli,
    spectral_decompose,
)
from .lindblad import (
    BathSpec,
    DissipatorStyle,
    bath_transitions,
    bose_einstein,
    standard_baths,
    thermal_rates,
)
from .gaussian import (
    GaussianChain,
    GaussianState,
    gaussian_chain,
    steady_state_gaussian,
)
from .rates import PauliChain, pauli_chain, steady_state_pauli
from .steady import SteadyState, SteadyStateError
from .oracle import (
    CrossValidationError,
    Liouvillian,
    NetRates,
    assemble_liouvillian,
    bath_dissipator,
    cross_validate,
    current_from_cycle,
    steady_state_nullspace,
    steady_state_rate_equations,
)
from .thermo import RectificationReport, rectification, steady_net_current
from .experiments import (
    SweepConfig,
    run_acceptance,
    run_fig2,
    run_fig3,
    run_sweep,
    run_xy_comparison,
)

__all__ = [
    "BathSpec",
    "ChainModel",
    "CrossValidationError",
    "DissipatorStyle",
    "GaussianChain",
    "GaussianState",
    "HermitianOperator",
    "Liouvillian",
    "NetRates",
    "PauliChain",
    "RectificationReport",
    "SpectralDecomposition",
    "SpinChainSpec",
    "SteadyState",
    "SteadyStateError",
    "SweepConfig",
    "assemble_liouvillian",
    "bath_dissipator",
    "bath_transitions",
    "bose_einstein",
    "build_hamiltonian",
    "cross_validate",
    "current_from_cycle",
    "gaussian_chain",
    "pauli",
    "pauli_chain",
    "rectification",
    "run_acceptance",
    "run_fig2",
    "run_fig3",
    "run_sweep",
    "run_xy_comparison",
    "spectral_decompose",
    "standard_baths",
    "steady_net_current",
    "steady_state_gaussian",
    "steady_state_nullspace",
    "steady_state_pauli",
    "steady_state_rate_equations",
    "thermal_rates",
]

__version__ = "0.1.0"
