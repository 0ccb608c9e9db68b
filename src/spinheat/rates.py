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
`lindblad.bath_transitions`; it alone says where the baths couple, and
none of it depends on temperature or kappa.  The point step,
`steady_state_pauli`, takes P points of one chain at once, a kappa per
point and a temperature per point and bath, and takes their rates
(`lindblad._rate_tables`) into each bath's rate matrix

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

import numpy as np

from .lindblad import BathSpec, _check_bath_sites, _rate_tables, bath_transitions
from .spinops import ChainModel, SpinChainSpec, build_hamiltonian, spectral_decompose
from .steady import SteadyState, _density_matrix, _kernel_vector


@dataclass(frozen=True)
class PauliChain:
    """The temperature-independent half of the rate route (the chain step).

    `energies` is the diagonal of H in the product basis.  For each bath,
    `frequencies` holds one frequency per transition and `weights` the
    transitions' |A_ij|^2, one 4 x 4 matrix per lowering operator A.
    Every array is read-only.
    """

    energies: np.ndarray
    frequencies: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]


def pauli_chain(spec: SpinChainSpec, baths: list[BathSpec]) -> PauliChain:
    """The chain step: the energies and each bath's transition weights.

    Only each bath's site, style and local frequency are read.
    """
    if spec.model is not ChainModel.ISING_ZZ:
        raise ValueError("the rate route needs the Ising zz pair, whose H is diagonal")
    H = build_hamiltonian(spec)
    _check_bath_sites(H, baths)
    decomp = spectral_decompose(H)
    energies = np.diag(H.matrix).real.copy()
    transitions = [bath_transitions(decomp, bath) for bath in baths]
    frequencies = tuple(np.array([frequency for frequency, _ in pairs]) for pairs in transitions)
    weights = tuple(np.array([np.abs(a) ** 2 for _, a in pairs]) for pairs in transitions)
    for array in (energies, *frequencies, *weights):
        array.setflags(write=False)
    return PauliChain(energies=energies, frequencies=frequencies, weights=weights)


def steady_state_pauli(
    chain: PauliChain, kappa: np.ndarray, temperatures: np.ndarray
) -> SteadyState:
    """The point step: the steady populations of P points, and each bath's current.

    `kappa[p]` is point p's kappa and `temperatures[p, k]` the temperature
    of the chain step's k-th bath at point p; a `temperatures` array of
    another shape than (P, n_baths) raises ValueError.  The rate matrices
    of all P points are solved as one stack by the kernel rule of
    `steady._kernel_vector`, whose checks are those of
    `steady.steady_state_nullspace`.  The returned fields carry a leading
    axis of length P; a member comes out bit-identical in any stack.
    """
    tables = _rate_tables(kappa, temperatures, chain.frequencies)
    d = len(chain.energies)
    bath_rates = []
    for bath_weights, rates in zip(chain.weights, tables):
        w = np.zeros((len(rates), d, d))
        for t, weights in enumerate(bath_weights):
            emission, absorption = rates[:, t, 0, None, None], rates[:, t, 1, None, None]
            w += emission * weights + absorption * weights.T
        bath_rates.append(w)
    w_total = sum(bath_rates)
    levels = np.arange(d)
    generator = w_total.copy()
    generator[:, levels, levels] -= w_total.sum(axis=1)

    vectors, kernel_dim = _kernel_vector(generator, np.full(d, 1.0 / d))
    rho = np.zeros((len(vectors), d, d), dtype=vectors.dtype)
    rho[:, levels, levels] = vectors
    rho = _density_matrix(rho)
    p = rho.diagonal(axis1=1, axis2=2).real
    gaps = chain.energies[:, None] - chain.energies[None, :]  # gaps[i, j] = E_i - E_j
    flows = [(w * gaps * p[:, None, :]).reshape(len(p), -1).sum(axis=1) for w in bath_rates]
    return SteadyState(
        rho=rho,
        residual=np.linalg.norm((generator @ p[:, :, None])[:, :, 0], axis=1),
        kernel_dim=kernel_dim,
        bath_currents=np.stack(flows, axis=1),
    )
