"""Steady-state heat transport through strongly coupled spin chains.

The package builds Lindblad generators for short spin chains driven by two
thermal reservoirs, in both the eigenbasis (global) and single-spin
(local) dissipator treatments, solves for the stationary state, and
evaluates heat currents and rectification.
"""

from .spinops import (
    ChainModel,
    HermitianOperator,
    SpectralDecomposition,
    SpinChainSpec,
    build_hamiltonian,
    embed,
    pauli,
    spectral_decompose,
)
from .lindblad import (
    BathSpec,
    DissipatorStyle,
    JumpOperator,
    Liouvillian,
    assemble_liouvillian,
    bath_dissipator,
    bath_transitions,
    bose_einstein,
    global_jump_operators,
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
from .steady import (
    CrossValidationError,
    NetRates,
    SteadyState,
    SteadyStateError,
    cross_validate,
    steady_state_nullspace,
    steady_state_rate_equations,
)
from .thermo import (
    RectificationReport,
    current_from_cycle,
    rectification,
    steady_net_current,
)
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
    "JumpOperator",
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
    "embed",
    "gaussian_chain",
    "global_jump_operators",
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
