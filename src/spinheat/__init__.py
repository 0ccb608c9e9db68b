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
    BlockGenerator,
    Channel,
    DissipatorStyle,
    JumpOperator,
    Liouvillian,
    assemble_block_generator,
    assemble_liouvillian,
    bose_einstein,
    global_dissipator,
    global_jump_operators,
    local_dissipator,
    standard_baths,
    thermal_channels,
)
from .steady import (
    CrossValidationError,
    NetRates,
    SteadyState,
    SteadyStateError,
    cross_validate,
    steady_state_block,
    steady_state_nullspace,
    steady_state_rate_equations,
)
from .thermo import (
    HeatCurrents,
    RectificationReport,
    channel_heat_currents,
    current_from_cycle,
    heat_currents,
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
    "BlockGenerator",
    "ChainModel",
    "Channel",
    "CrossValidationError",
    "DissipatorStyle",
    "HeatCurrents",
    "HermitianOperator",
    "JumpOperator",
    "Liouvillian",
    "NetRates",
    "RectificationReport",
    "SpectralDecomposition",
    "SpinChainSpec",
    "SteadyState",
    "SteadyStateError",
    "SweepConfig",
    "assemble_block_generator",
    "assemble_liouvillian",
    "bose_einstein",
    "build_hamiltonian",
    "channel_heat_currents",
    "cross_validate",
    "current_from_cycle",
    "embed",
    "global_dissipator",
    "global_jump_operators",
    "heat_currents",
    "local_dissipator",
    "pauli",
    "rectification",
    "run_acceptance",
    "run_fig2",
    "run_fig3",
    "run_sweep",
    "run_xy_comparison",
    "spectral_decompose",
    "standard_baths",
    "steady_net_current",
    "steady_state_block",
    "steady_state_nullspace",
    "steady_state_rate_equations",
    "thermal_channels",
]

__version__ = "0.1.0"
