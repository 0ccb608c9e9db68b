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
with fewer transitions than another is padded with frequency NaN and zero
weights.  The point step, `steady_state_pauli`, takes P points on the
members at once, a member index, a kappa and a temperature per bath for
each point, and takes their rates (`lindblad._rate_tables`, which never
evaluates a NaN padding slot) into each bath's rate matrix

    W_k = sum_t (emission |A_t|^2 + absorption |A_t|^2 transposed),

whose entry (i, j) moves population from level j to level i, and it
solves the (P, 4, 4) stack of G = W - diag(column sums of W),
W = sum_k W_k.  The rate law is called once for the whole stack.

The steady populations come from the Markov chain tree theorem
(Schnakenberg, Rev. Mod. Phys. 48, 571 (1976)): p_i is proportional to
the sum, over the 16 spanning trees of the four levels directed toward i,
of the product of their three rates, one gather, product and sum over a
fixed index table for the whole stack.  The sum has no cancellation, and
a population whose every tree holds a zero rate is exactly zero: with the
cold bath at T = 0 on the left and 0 < delta < h, nothing lifts the left
spin, the levels with it up are empty and the reverse current is exactly
0.  The tree sum answers a
point only when its total Z exceeds `_TREE_RTOL` times ||G||_F^3, which
certifies that the kernel rule of `steady._kernel_vector` would find a
one-dimensional kernel; the other points (a degenerate kernel, as at the
local style's T_R = 0, or rates no law gives) go to that rule as one
sub-stack.  The populations stay a real (P, 4) vector, normalized by
their sum and refused below `steady._MIN_EIGENVALUE`, and rho = diag(p).
L maps diagonal states to diagonal ones, so ||G p|| is the residual
||L[rho]||, and bath k feeds in sum_ij W_k[i, j] (E_i - E_j) p_j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lindblad import BathSpec, _check_bath_sites, _rate_tables, bath_transitions
from .spinops import ChainModel, SpinChainSpec, _stack_head, diagonal_decomposition, ising_levels
from .steady import (
    _MIN_EIGENVALUE,
    KERNEL_RTOL,
    SteadyState,
    SteadyStateError,
    _check_currents,
    _first_failure,
    _kernel_vector,
)


def _in_trees(d: int) -> np.ndarray:
    """The spanning trees of the complete graph on d levels directed toward
    each root, as a (d, d**(d-2), d-1) table of flat indices i*d + j into a
    rate matrix: a tree is the edge j -> i, rate W[i, j], out of each level
    j but its root."""
    trees = []
    for root in range(d):
        others = [j for j in range(d) if j != root]
        rooted = []
        for targets in itertools.product(range(d), repeat=d - 1):
            target = dict(zip(others, targets))
            target[root] = root
            # a tree when d - 1 steps take every level to the root
            ends = others
            for _ in range(d - 1):
                ends = [target[j] for j in ends]
            if all(j == root for j in ends):
                rooted.append([target[j] * d + j for j in others])
        trees.append(rooted)
    return np.array(trees)


# The Markov chain tree theorem (Schnakenberg, Rev. Mod. Phys. 48, 571
# (1976)): the steady population of level i is proportional to the sum over
# the trees directed toward i of the product of their rates.
_TREES = _in_trees(4)

# The tree sum answers a point when its total Z exceeds this fraction of
# ||G||_F^3.  Z is the product of the nonzero eigenvalues of G, and Weyl's
# product inequality gives Z <= s1 s2 s3 <= ||G||_F^2 s3 over the singular
# values s1 >= s2 >= s3 of G, so there s3 > 2 KERNEL_RTOL s1: the kernel
# rule would find a one-dimensional kernel, and the tree sum is its vector.
_TREE_RTOL = 2.0 * KERNEL_RTOL


@dataclass(frozen=True)
class PauliChain:
    """The temperature-independent half of the rate route (the chain step),
    for a stack of C chains that differ in the coupling alone.

    `energies[c]` is the diagonal of member c's H in the product basis.
    For each bath, `frequencies[c, t]` is the frequency of member c's
    transition t and `weights[c, t]` its |A_ij|^2, a 4 x 4 matrix per
    lowering operator A.  The slots past a member's transitions are
    padding, with frequency NaN and zero weights.  Every array is
    read-only.
    """

    energies: np.ndarray
    frequencies: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]


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
    frequencies, weights = [], []
    for bath in baths:
        bath_frequencies, lowering = bath_transitions(decomp, bath)
        frequencies.append(bath_frequencies)
        weights.append(np.abs(lowering) ** 2)
    for array in (energies, *frequencies, *weights):
        array.setflags(write=False)
    return PauliChain(energies=energies, frequencies=tuple(frequencies), weights=tuple(weights))


def _tree_sum(w: np.ndarray, generator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tree sums of a (P, 4, 4) stack of rate matrices W and their
    generators G: each member's unnormalized steady populations, and
    whether the certificate of `_TREE_RTOL` lets the sum answer it."""
    # np.take lays the gather out alike in every stack, so a member's
    # products and sums do not depend on the stack
    flat = (len(w), w.shape[1] * w.shape[2])
    populations = np.take(w.reshape(flat), _TREES, axis=1).prod(axis=-1).sum(axis=-1)
    scale = np.linalg.norm(generator.reshape(flat), axis=1)
    return populations, populations.sum(axis=1) > _TREE_RTOL * scale**3


def steady_state_pauli(
    chain: PauliChain, member: np.ndarray, kappa: np.ndarray, temperatures: np.ndarray
) -> SteadyState:
    """The point step: the steady populations of P points, and each bath's current.

    Point p is on member `member[p]` of the chain stack, `kappa[p]` is its
    kappa and `temperatures[p, k]` the temperature of the chain step's
    k-th bath there; arrays of other shapes than (P,), (P,) and
    (P, n_baths) raise ValueError.  The tree sum solves the points it
    certifies, and the kernel rule of `steady._kernel_vector` the others
    as one sub-stack.  A population below `steady._MIN_EIGENVALUE`, or a
    kernel rule that fails, raises SteadyStateError with the point's
    index, as do bath currents that are not finite.  The returned fields
    carry a leading axis of length P; a point comes out bit-identical in
    any stack, and on any chain stack that holds its chain.
    """
    member = np.asarray(member, dtype=np.intp)
    tables = _rate_tables(member, kappa, temperatures, chain.frequencies)
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

    populations, certified = _tree_sum(w_total, generator)
    kernel_dim = np.ones(len(generator), dtype=int)
    rest = np.flatnonzero(~certified)
    if len(rest):
        try:
            vectors, kernel_dim[rest] = _kernel_vector(generator[rest], np.full(d, 1.0 / d))
            _first_failure(
                np.abs(vectors.sum(axis=1)) < 1e-12, lambda i: "kernel vector has vanishing trace"
            )
        except SteadyStateError as err:
            raise SteadyStateError(str(err), member=int(rest[err.member])) from None
        populations[rest] = vectors
    p = populations / populations.sum(axis=1)[:, None]
    smallest = p.min(axis=1)
    _first_failure(
        smallest < _MIN_EIGENVALUE,
        lambda i: f"steady state not positive: min eigenvalue {smallest[i]:.3e}",
    )
    rho = np.zeros((len(p), d, d))
    rho[:, levels, levels] = p
    energies = chain.energies[member]
    gaps = energies[:, :, None] - energies[:, None, :]  # gaps[p, i, j] = E_i - E_j
    flows = [(w * gaps * p[:, None, :]).reshape(len(p), d * d).sum(axis=1) for w in bath_rates]
    currents = np.stack(flows, axis=1)
    _check_currents(currents)
    return SteadyState(
        rho=rho,
        residual=np.linalg.norm((generator @ p[:, :, None])[:, :, 0], axis=1),
        kernel_dim=kernel_dim,
        bath_currents=currents,
    )
