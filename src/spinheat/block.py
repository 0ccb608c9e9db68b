"""The steady state of the Ising zz pair on a charge block of the generator.

The block route is the transport route of the two-spin Ising zz chain,
whose sz sz coupling is quartic in Jordan-Wigner fermions.  The XY chain is
quadratic in them and takes the Gaussian route of the `gaussian` module
instead, which solves a 2n x 2n covariance in O(n^3); the block route is
its oracle in the tests.  The block route never forms a d^2 x d^2 matrix.
Each style has a conserved charge q per basis state: in the global style
the secular generator commutes with [H, .], so the charge is the energy
(eigenstates grouped with the `DEGENERACY_TOL` rule of
`lindblad.global_jump_operators`); in the local style H conserves total
S_z and the edge sigma-minus/sigma-plus operators change it by one on both
sides of rho, a weak U(1) symmetry, so the charge is the number of up
spins.  Either way the generator maps the span of |i><j| with q_i = q_j
into itself, and that span holds the identity, so the steady state and the
maximally mixed state that a degenerate kernel is projected from both lie
in it.  The block generator is assembled entry by entry from d x d
matrices in the charge basis:

    L[(i,j),(k,l)] = -i (H_ik d_jl - d_ik H_lj)
                     + sum_c g_c (A_ik A*_jl - M_ik d_jl / 2 - d_ik M_lj / 2)

with M = A^dag A.  The block has b = sum_q n_q^2 rows, where n_q basis
states carry charge q: 80 (global) or 252 (local) for the 5-spin XY chain,
against d^2 = 1024.

It is solved in two steps.  The chain step, `chain_operators`, holds
everything that does not depend on the baths' temperatures or kappa: the
charge basis, the block's index arrays, H in that basis, and each bath's
transitions from `lindblad.bath_transitions`, each with the d x d forms of
its lowering and raising operator (A in the charge basis, A^dag A there,
and the energy rate A^dag H A - {A^dag A, H}/2).  None of
these depend on temperature because the eigenbasis, the Bohr frequencies
and the operators are properties of the chain and of where each bath
couples; a bath's temperature and kappa enter only through the rates.  The
chain step's arrays are read-only, so one chain step can serve any number
of points.

The point step, `steady_state_block`, calls `lindblad.thermal_rates` once
per transition and walks the channels in one order (bath, transition,
emission then absorption) for K, the block, the residual and the currents.
It takes the block's kernel by the rule of `steady._kernel_vector`.  The
invariance is checked at run time: the residual ||L[rho]|| is evaluated on
the full d x d state in operator form, in the charge basis (the Frobenius
norm does not depend on the basis), with the same K and channels, and a
residual above `KERNEL_RTOL` times the block's largest singular value
raises SteadyStateError.  `kernel_dim` counts the block's kernel only: the
dense route can count extra undamped coherences between different charges
(the Ising pair at delta = 0 in the local style, with its right bath dead,
has a kernel of 4 against the block's 2), but those are orthogonal to the
maximally mixed state, so the projected state is the same.  Bath k feeds
in sum_c g_c Tr(rho E_c) over its channels, with E_c the energy rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lindblad
from .lindblad import (
    BathSpec,
    DissipatorStyle,
    _chain_length,
    _coupling,
    _degeneracy_tolerance,
    _group_starts,
    bath_transitions,
)
from .spinops import HermitianOperator, spectral_decompose
from .steady import KERNEL_RTOL, SteadyState, SteadyStateError, _density_matrix, _kernel_vector


class PreparedOperator(NamedTuple):
    """One channel operator A in the d x d forms the block route uses.

    `charge` is A in the charge basis, `decay` is charge^dag charge, and
    `energy_rate` is A^dag H A - {A^dag A, H}/2 in the original basis,
    whose expectation value is the energy the channel feeds in at unit
    rate.
    """

    charge: np.ndarray
    decay: np.ndarray
    energy_rate: np.ndarray


@dataclass(frozen=True)
class ChainOperators:
    """The temperature-independent half of the block route (the chain step).

    `basis` holds the charge basis as columns: the energy eigenvectors for
    the global style, the computational basis for the local style.  Entry k
    of the block is the matrix element (rows[k], cols[k]) of an operator in
    that basis; `row_pairs` and `col_pairs` are `np.ix_(rows, rows)` and
    `np.ix_(cols, cols)`.  `effective` is H in the charge basis.  For each
    bath, `couplings` holds (site, style, local_frequency) and
    `transitions` holds one (frequency, lowering, raising) triple per
    transition, the operators as `PreparedOperator`s: the lowering one
    carries the emission rate, its adjoint the absorption rate.  Every
    array is read-only.
    """

    dim: int
    basis: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    row_pairs: tuple[np.ndarray, np.ndarray]
    col_pairs: tuple[np.ndarray, np.ndarray]
    effective: np.ndarray
    couplings: tuple[tuple[int, DissipatorStyle, float | None], ...]
    transitions: tuple[tuple[tuple[float, PreparedOperator, PreparedOperator], ...], ...]


def energy_charges(energies: np.ndarray) -> np.ndarray:
    """Label ascending energies with a group index, degenerate ones alike.

    Energies within `DEGENERACY_TOL * max(|energy|)` of the first one of
    their group share its label, the rule `lindblad.global_jump_operators`
    applies to the gaps.
    """
    charges = np.zeros(len(energies), dtype=int)
    charges[_group_starts(energies, _degeneracy_tolerance(energies))[1:]] = 1
    return np.cumsum(charges)


def _prepare(operator: np.ndarray, basis: np.ndarray, H: np.ndarray) -> PreparedOperator:
    """The d x d forms of one channel operator."""
    charge = basis.conj().T @ operator @ basis
    operator_dag = operator.conj().T
    m = operator_dag @ operator
    energy_rate = operator_dag @ H @ operator - 0.5 * (m @ H + H @ m)
    return PreparedOperator(charge, charge.conj().T @ charge, energy_rate)


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


def chain_operators(H: HermitianOperator, baths: list[BathSpec]) -> ChainOperators:
    """The chain step: the pieces of the block generator that no rate enters.

    Only each bath's site, style and local frequency are read, never its
    temperature or kappa.  All baths must share one style, which fixes the
    charge (see the module docstring).
    """
    n_spins = _chain_length(H, baths)
    d = H.dim
    styles = {bath.style for bath in baths}
    if len(styles) != 1:
        raise ValueError("the block generator needs one dissipator style for all baths")

    decomp = spectral_decompose(H)
    if styles == {DissipatorStyle.GLOBAL}:
        basis = decomp.eigenvectors
        charges = energy_charges(decomp.energies)
    else:
        basis = np.eye(d, dtype=complex)
        # basis index bit 0 is an up spin (see spinops), so this counts up spins
        charges = np.array([n_spins - bin(i).count("1") for i in range(d)])

    rows, cols = np.nonzero(charges[:, None] == charges[None, :])
    prepared = tuple(
        tuple(
            (
                frequency,
                _prepare(lowering, basis, H.matrix),
                _prepare(lowering.conj().T, basis, H.matrix),
            )
            for frequency, lowering in bath_transitions(decomp, bath)
        )
        for bath in baths
    )
    effective = basis.conj().T @ H.matrix @ basis
    _read_only(basis, rows, cols, effective)
    _read_only(
        *(
            array
            for transitions in prepared
            for _, lowering, raising in transitions
            for array in lowering + raising
        )
    )
    return ChainOperators(
        dim=d,
        basis=basis,
        rows=rows,
        cols=cols,
        row_pairs=np.ix_(rows, rows),
        col_pairs=np.ix_(cols, cols),
        effective=effective,
        couplings=tuple(_coupling(bath) for bath in baths),
        transitions=prepared,
    )


def steady_state_block(chain: ChainOperators, baths: list[BathSpec]) -> SteadyState:
    """The point step: the steady state at the baths' rates, and each bath's current.

    `baths` must couple where the chain step's baths did (same sites,
    style and local frequencies); their temperatures and kappa are free.
    The kernel rule and the state checks are those of
    `steady.steady_state_nullspace`.  `residual` is ||L[rho]|| of the full
    d x d state under the full generator; it must stay below `KERNEL_RTOL`
    times the block's largest singular value, or the block was not
    invariant and SteadyStateError is raised.
    """
    if tuple(_coupling(bath) for bath in baths) != chain.couplings:
        raise ValueError("the baths do not couple where the chain step's baths do")
    # (bath index, rate, operator) of every channel: emission through the
    # lowering operator, then absorption through the raising one
    channels = [
        (k, rate, forms)
        for k, (bath, transitions) in enumerate(zip(baths, chain.transitions))
        for frequency, lowering, raising in transitions
        for rate, forms in zip(lindblad.thermal_rates(bath, frequency), (lowering, raising))
    ]
    # the coherent part and the anticommutator terms together are
    # -i(K rho - rho K^dag) with K = H - (i/2) sum_c g_c M_c
    k_eff = chain.effective.copy()
    block = np.zeros((len(chain.rows), len(chain.rows)), dtype=complex)
    for _, rate, forms in channels:
        k_eff -= 0.5j * rate * forms.decay
        block += rate * forms.charge[chain.row_pairs] * forms.charge[chain.col_pairs].conj()
    same_row = chain.rows[:, None] == chain.rows[None, :]
    same_col = chain.cols[:, None] == chain.cols[None, :]
    block += -1j * k_eff[chain.row_pairs] * same_col
    block += 1j * same_row * k_eff.conj()[chain.col_pairs]

    d = chain.dim
    mixed = np.where(chain.rows == chain.cols, 1.0 / d, 0.0).astype(complex)
    vec, kernel_dim, s_max = _kernel_vector(block, mixed)
    rho_block = np.zeros((d, d), dtype=complex)
    rho_block[chain.rows, chain.cols] = vec
    rho_block = _density_matrix(rho_block)

    # L[rho] = -i(K rho - rho K^dag) + sum_c g_c a rho a^dag, and rho K^dag = (K rho)^dag
    jumps = np.zeros_like(rho_block)
    for _, rate, forms in channels:
        jumps += rate * (forms.charge @ rho_block @ forms.charge.conj().T)
    k_rho = k_eff @ rho_block
    residual = float(np.linalg.norm(-1j * (k_rho - k_rho.conj().T) + jumps))
    if residual > KERNEL_RTOL * s_max:
        raise SteadyStateError(
            f"steady state leaves the symmetry block: residual {residual:.3e} "
            f"exceeds {KERNEL_RTOL:.0e} x largest singular value {s_max:.3e}"
        )

    rho = chain.basis @ rho_block @ chain.basis.conj().T
    flows = [0.0] * len(baths)
    for k, rate, forms in channels:
        flows[k] += rate * float(np.real(np.sum(rho * forms.energy_rate.T)))
    return SteadyState(
        rho=rho, residual=residual, kernel_dim=kernel_dim, bath_currents=tuple(flows)
    )
