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

The chain step, `pauli_chain`, takes a stack of C pairs that differ in
the coupling alone and holds, for each member, the four energies (the
diagonal of H, `spinops.ising_levels`) and, for each bath, one
(frequency, |A_ij|^2) pair per transition of `lindblad.bath_transitions`,
the stacked transition rule; it alone says where the baths couple, and
none of it depends on temperature or kappa.  Every member's levels and
transitions come out of array operations over the stack, and a member
with fewer transitions than another is padded with zero weights.  The
point step, `steady_state_pauli`, takes P points on the members at once,
a member index, a kappa and a temperature per bath for each point, and
takes their rates (`lindblad._rate_tables`, which never evaluates a
padding slot) into each bath's rate matrix

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

from .lindblad import BathSpec, _check_bath_sites, _rate_tables, bath_transitions
from .spinops import ChainModel, SpinChainSpec, _stack_head, diagonal_decomposition, ising_levels
from .steady import SteadyState, _density_matrix, _kernel_vector


@dataclass(frozen=True)
class PauliChain:
    """The temperature-independent half of the rate route (the chain step),
    for a stack of C chains that differ in the coupling alone.

    `energies[c]` is the diagonal of member c's H in the product basis.
    For each bath, member c drives `counts[c]` transitions:
    `frequencies[c, t]` is transition t's frequency and `weights[c, t]` its
    |A_ij|^2, a 4 x 4 matrix per lowering operator A.  The slots past
    `counts[c]` are padding, with frequency NaN and zero weights.  Every
    array is read-only.
    """

    energies: np.ndarray
    frequencies: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    counts: tuple[np.ndarray, ...]


def pauli_chain(specs: Sequence[SpinChainSpec], baths: list[BathSpec]) -> PauliChain:
    """The chain step of a stack of Ising pairs that differ in the coupling
    alone: the energies and each bath's transition weights, member c for
    `specs[c]`.  Levels and transitions of all members are array operations
    over the stack (`ising_levels`, `lindblad.global_transitions`).

    Only each bath's site, style and local frequency are read.
    """
    head = _stack_head(specs)
    if head.model is not ChainModel.ISING_ZZ:
        raise ValueError("the rate route needs the Ising zz pair, whose H is diagonal")
    energies = ising_levels(head.field_h, [spec.coupling_delta for spec in specs])
    _check_bath_sites(energies.shape[1], baths)
    decomp = diagonal_decomposition(energies)
    frequencies, weights, counts = [], [], []
    for bath in baths:
        bath_frequencies, lowering, bath_counts = bath_transitions(decomp, bath)
        frequencies.append(bath_frequencies)
        weights.append(np.abs(lowering) ** 2)
        counts.append(bath_counts)
    for array in (energies, *frequencies, *weights, *counts):
        array.setflags(write=False)
    return PauliChain(
        energies=energies,
        frequencies=tuple(frequencies),
        weights=tuple(weights),
        counts=tuple(counts),
    )


def steady_state_pauli(
    chain: PauliChain, member: np.ndarray, kappa: np.ndarray, temperatures: np.ndarray
) -> SteadyState:
    """The point step: the steady populations of P points, and each bath's current.

    Point p is on member `member[p]` of the chain stack, `kappa[p]` is its
    kappa and `temperatures[p, k]` the temperature of the chain step's
    k-th bath there; arrays of other shapes than (P,), (P,) and
    (P, n_baths) raise ValueError.  The rate matrices of all P points are
    solved as one stack by the kernel rule of `steady._kernel_vector`,
    which the dense oracle shares, checks included.  The returned fields
    carry a leading axis of length P; a point comes out bit-identical in
    any stack, and on any chain stack that holds its chain.
    """
    member = np.asarray(member, dtype=np.intp)
    tables = _rate_tables(member, kappa, temperatures, chain.frequencies, chain.counts)
    d = chain.energies.shape[1]
    bath_rates = []
    for bath_weights, rates in zip(chain.weights, tables):
        weights = bath_weights[member]
        w = np.zeros((len(rates), d, d))
        for t in range(rates.shape[1]):
            emission, absorption = rates[:, t, 0, None, None], rates[:, t, 1, None, None]
            w += emission * weights[:, t] + absorption * weights[:, t].swapaxes(1, 2)
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
    energies = chain.energies[member]
    gaps = energies[:, :, None] - energies[:, None, :]  # gaps[p, i, j] = E_i - E_j
    flows = [(w * gaps * p[:, None, :]).reshape(len(p), d * d).sum(axis=1) for w in bath_rates]
    return SteadyState(
        rho=rho,
        residual=np.linalg.norm((generator @ p[:, :, None])[:, :, 0], axis=1),
        kernel_dim=kernel_dim,
        bath_currents=np.stack(flows, axis=1),
    )
