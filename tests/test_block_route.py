"""The charge-block steady-state route against the dense d^2 x d^2 oracle."""

import numpy as np
import pytest

from spinheat.lindblad import (
    DissipatorStyle,
    assemble_block_generator,
    assemble_liouvillian,
    energy_charges,
    standard_baths,
)
from spinheat.spinops import (
    PAULI_X,
    ChainModel,
    HermitianOperator,
    SpinChainSpec,
    build_hamiltonian,
    embed_matrix,
)
from spinheat.steady import SteadyStateError, steady_state_block, steady_state_nullspace
from spinheat.thermo import channel_heat_currents, heat_currents, steady_net_current

TOL = 1e-10


def _grid():
    """Seeded chain/bath parameters, plus the edge cases every grid must hold."""
    rng = np.random.default_rng(20261017)
    chains = [(ChainModel.ISING_ZZ, 2)] + [(ChainModel.XY_TRANSVERSE, n) for n in (2, 3, 4)]
    cases = []
    for style in DissipatorStyle:
        for model, n in chains:
            for k in range(4):
                h = float(rng.uniform(0.5, 2.0))
                # delta = 0, a generic coupling, and delta = h on the XY chain
                delta = (0.0, float(rng.uniform(0.05, 0.95)) * h, h, float(rng.uniform(0, h)))[k]
                kappa = float(rng.uniform(0.5, 2.0))
                t_left = (0.0, float(rng.uniform(0.1, 5.0)))[k % 2]
                t_right = (float(rng.uniform(0.1, 5.0)), 0.0)[k // 2 % 2]
                spec = SpinChainSpec(n, h, delta, model)
                cases.append((spec, kappa, t_left, t_right, style))
    return cases


# One degenerate kernel per style: the decoupled Ising pair under global baths,
# and the Ising pair whose right local bath (nu = 0, T = 0) is dead.
DEGENERATE = [
    (SpinChainSpec(2, 1.0, 0.0, ChainModel.ISING_ZZ), 1.0, 1.0, 1.0, DissipatorStyle.GLOBAL),
    (SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ), 1.0, 1.0, 0.0, DissipatorStyle.LOCAL),
]


def _case_id(case):
    spec, kappa, t_left, t_right, style = case
    return (
        f"{spec.model.value}{spec.n_spins}-{style.value}-h{spec.field_h:.2f}"
        f"-d{spec.coupling_delta:.2f}-TL{t_left:.2f}-TR{t_right:.2f}"
    )


def _both_routes(spec, kappa, t_left, t_right, style):
    H = build_hamiltonian(spec)
    baths = standard_baths(spec, kappa, t_left, t_right, style)
    dense = assemble_liouvillian(H, baths)
    dense_state = steady_state_nullspace(dense)
    block = assemble_block_generator(H, baths)
    block_state = steady_state_block(block)
    j_dense = heat_currents(dense, dense_state.rho, H)
    j_block = channel_heat_currents(block.baths, block.channels, block_state.rho, block.hamiltonian)
    return dense_state, j_dense, block_state, j_block


@pytest.mark.parametrize("case", _grid() + DEGENERATE, ids=_case_id)
def test_block_route_matches_dense_oracle(case):
    dense_state, j_dense, block_state, j_block = _both_routes(*case)
    assert abs(j_block.j_in_left - j_dense.j_in_left) <= TOL
    assert abs(j_block.j_in_right - j_dense.j_in_right) <= TOL
    assert np.max(np.abs(block_state.rho - dense_state.rho)) <= TOL
    assert np.max(np.abs(block_state.populations - dense_state.populations)) <= TOL
    assert block_state.kernel_dim <= dense_state.kernel_dim
    assert block_state.residual <= TOL


@pytest.mark.parametrize("case", DEGENERATE, ids=_case_id)
def test_degenerate_kernels_are_resolved_alike(case):
    dense_state, _, block_state, _ = _both_routes(*case)
    assert block_state.degenerate and dense_state.degenerate


def test_dense_route_counts_coherences_outside_the_block():
    # in the local style at delta = 0 the frozen right spin keeps its
    # coherences, which change the number of up spins by one
    spec = SpinChainSpec(2, 1.0, 0.0, ChainModel.ISING_ZZ)
    dense_state, _, block_state, _ = _both_routes(spec, 1.0, 2.0, 0.0, DissipatorStyle.LOCAL)
    assert (dense_state.kernel_dim, block_state.kernel_dim) == (4, 2)
    assert np.max(np.abs(block_state.rho - dense_state.rho)) <= TOL


@pytest.mark.parametrize("n_spins", range(2, 7))
def test_local_xy_current_is_length_independent(n_spins):
    spec = SpinChainSpec(n_spins, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
    j = steady_net_current(spec, 1.0, 2.0, 0.0, DissipatorStyle.LOCAL)
    assert round(j, 6) == 0.150076


def test_block_sizes():
    spec = SpinChainSpec(5, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
    H = build_hamiltonian(spec)
    sizes = {
        style: len(assemble_block_generator(H, standard_baths(spec, 1.0, 1.0, 0.0, style)).rows)
        for style in DissipatorStyle
    }
    assert sizes == {DissipatorStyle.GLOBAL: 80, DissipatorStyle.LOCAL: 252}


def test_energy_charges_group_degenerate_levels():
    energies = np.array([-1.0, -1.0 + 1e-12, 0.0, 0.5, 0.5, 0.5 + 1e-3])
    assert energy_charges(energies).tolist() == [0, 0, 1, 2, 2, 3]


def test_leaving_the_block_raises():
    # a transverse field breaks the conservation of total S_z, so the
    # number-of-up-spins block is no longer invariant under the generator
    spec = SpinChainSpec(3, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
    H = HermitianOperator(build_hamiltonian(spec).matrix + 0.3 * embed_matrix(PAULI_X, 1, 3))
    baths = standard_baths(spec, 1.0, 2.0, 0.0, DissipatorStyle.LOCAL)
    with pytest.raises(SteadyStateError, match="leaves the symmetry block"):
        steady_state_block(assemble_block_generator(H, baths))


def test_mixed_styles_rejected():
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
    baths = standard_baths(spec, 1.0, 1.0, 0.0, DissipatorStyle.GLOBAL)[:1]
    baths += standard_baths(spec, 1.0, 1.0, 0.0, DissipatorStyle.LOCAL)[1:]
    with pytest.raises(ValueError):
        assemble_block_generator(build_hamiltonian(spec), baths)
