"""The steady state of the Ising zz pair from its four-level rate matrix.

The Ising pair H = (h/2) sz_L + (delta/2) sz_L sz_R is diagonal in the
product basis, and every jump operator of both styles maps each basis
state to at most one basis state: sigma-minus or sigma-plus on one site in
the local style, sum P_E sigma^x P_E' over the diagonal eigenprojectors of
one gap in the global style.  So a diagonal rho stays diagonal, the
populations p never couple to coherences, and they obey the closed Pauli
master equation dp/dt = G p.  G is the diagonal-to-diagonal block of the
full generator, and the uniform vector is the maximally mixed state on it,
so projecting it onto a degenerate kernel of G gives the state the dense
route projects from the maximally mixed state.

The chain step, `pauli_chain`, holds the four energies (the diagonal of
H) and, for each bath, one (frequency, |A_ij|^2) pair per transition of
`lindblad.bath_transitions`; none of it depends on temperature or kappa.
The point step, `steady_state_pauli`, takes P points of one chain at
once.  At each point it takes the rates of `lindblad.thermal_rates`, one
call per transition, into each bath's rate matrix

    W_k = sum_t (emission |A_t|^2 + absorption |A_t|^2 transposed),

whose entry (i, j) moves population from level j to level i, and it
solves the (P, 4, 4) stack of G = W - diag(column sums of W),
W = sum_k W_k, by the stacked kernel rule of `steady._kernel_vector`: one
batched SVD, then the rule member by member.  L maps diagonal states to
diagonal ones, so ||G p|| is the residual ||L[rho]||, and bath k feeds in
sum_ij W_k[i, j] (E_i - E_j) p_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lindblad
from .lindblad import BathSpec, DissipatorStyle, _chain_length, _coupling, bath_transitions
from .spinops import ChainModel, SpinChainSpec, build_hamiltonian, spectral_decompose
from .steady import SteadyState, _density_matrix, _kernel_vector


@dataclass(frozen=True)
class PauliChain:
    """The temperature-independent half of the rate route (the chain step).

    `energies` is the diagonal of H in the product basis.  For each bath,
    `couplings` holds (site, style, local_frequency) and `transitions`
    holds one (frequency, |A_ij|^2) pair per lowering operator A.  Every
    array is read-only.
    """

    energies: np.ndarray
    couplings: tuple[tuple[int, DissipatorStyle, float | None], ...]
    transitions: tuple[tuple[tuple[float, np.ndarray], ...], ...]


def pauli_chain(spec: SpinChainSpec, baths: list[BathSpec]) -> PauliChain:
    """The chain step: the energies and each bath's transition weights.

    Only each bath's site, style and local frequency are read.
    """
    if spec.model is not ChainModel.ISING_ZZ:
        raise ValueError("the rate route needs the Ising zz pair, whose H is diagonal")
    H = build_hamiltonian(spec)
    _chain_length(H, baths)
    decomp = spectral_decompose(H)
    energies = np.diag(H.matrix).real.copy()
    transitions = tuple(
        tuple(
            (frequency, np.abs(lowering) ** 2)
            for frequency, lowering in bath_transitions(decomp, bath)
        )
        for bath in baths
    )
    energies.setflags(write=False)
    for pairs in transitions:
        for _, weights in pairs:
            weights.setflags(write=False)
    return PauliChain(
        energies=energies,
        couplings=tuple(_coupling(bath) for bath in baths),
        transitions=transitions,
    )


def steady_state_pauli(chain: PauliChain, baths: Sequence[list[BathSpec]]) -> SteadyState:
    """The point step: the steady populations of P points, and each bath's current.

    `baths[p]` lists point p's baths, which must couple where the chain
    step's baths did (same sites, style and local frequencies); their
    temperatures and kappa are free.  The rate matrices of all P points
    are solved as one stack by the kernel rule of `steady._kernel_vector`,
    whose checks are those of `steady.steady_state_nullspace`.  The
    returned fields carry a leading axis of length P; a member comes out
    bit-identical in any stack.
    """
    for point in baths:
        if tuple(_coupling(bath) for bath in point) != chain.couplings:
            raise ValueError("the baths do not couple where the chain step's baths do")
    d = len(chain.energies)
    bath_rates = []
    for k, transitions in enumerate(chain.transitions):
        w = np.zeros((len(baths), d, d))
        for frequency, weights in transitions:
            rates = np.array([lindblad.thermal_rates(point[k], frequency) for point in baths])
            emission, absorption = rates[:, 0, None, None], rates[:, 1, None, None]
            w += emission * weights + absorption * weights.T
        bath_rates.append(w)
    w_total = sum(bath_rates)
    levels = np.arange(d)
    generator = w_total.copy()
    generator[:, levels, levels] -= w_total.sum(axis=1)

    vectors, kernel_dim = _kernel_vector(generator, np.full(d, 1.0 / d))
    rho = np.zeros((len(baths), d, d), dtype=vectors.dtype)
    rho[:, levels, levels] = vectors
    rho = _density_matrix(rho)
    p = rho.diagonal(axis1=1, axis2=2).real
    gaps = chain.energies[:, None] - chain.energies[None, :]  # gaps[i, j] = E_i - E_j
    flows = [(w * gaps * p[:, None, :]).reshape(len(baths), -1).sum(axis=1) for w in bath_rates]
    return SteadyState(
        rho=rho,
        residual=np.linalg.norm((generator @ p[:, :, None])[:, :, 0], axis=1),
        kernel_dim=kernel_dim,
        bath_currents=np.stack(flows, axis=1),
    )
