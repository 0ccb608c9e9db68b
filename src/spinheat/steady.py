"""Steady states: generator kernels and the four-level rate equations.

Three solvers are provided.

- `steady_state_block` is the route the transport functions use.  It takes
  the SVD kernel of the b x b block generator of
  `lindblad.assemble_block_generator`, the span of |i><j| with equal
  conserved charge.  That span is invariant under the generator and holds
  both the steady state and the identity (the module docstring of
  `lindblad` gives the argument for each dissipator style), so the block's
  kernel holds every steady state the full generator projects to.  The
  invariance is checked at run time: the residual ||L[rho]|| is evaluated
  on the full d x d state in operator form, with the full Hamiltonian and
  channel operators, and a residual above `KERNEL_RTOL` times the block's
  largest singular value raises SteadyStateError.
- `steady_state_nullspace` takes the SVD kernel of the full d^2 x d^2
  Liouvillian.  It is the oracle for the block route.
- `steady_state_rate_equations` solves the closed population cycle of the
  two-spin Ising chain, analytically pinned to four levels.  It and the
  null-space route serve as oracles for each other.

Both kernel routes apply one rule: singular values below `KERNEL_RTOL`
times the largest count as kernel, a one-dimensional kernel gives the state
directly, and a degenerate kernel is resolved by projecting the maximally
mixed state onto it; the result is trace-normalized, Hermitized and checked
for positivity.  `kernel_dim` counts the kernel of the matrix that was
solved.  For the block route that is the block's kernel only: the dense
route can count extra undamped coherences between different charges (the
Ising pair at delta = 0 in the local style, with its right bath dead, has
a kernel of 4 against the block's 2), but those are orthogonal to the
maximally mixed state, so the projected state is the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import (
    BlockGenerator,
    Channel,
    DissipatorStyle,
    Liouvillian,
    assemble_liouvillian,
    bose_einstein,
    standard_baths,
    unvectorize,
    vectorize,
)
from .spinops import (
    ChainModel,
    HermitianOperator,
    SpinChainSpec,
    build_hamiltonian,
    spectral_decompose,
)

# Singular values below this fraction of the largest one count as kernel.
KERNEL_RTOL = 1e-9

_MIN_EIGENVALUE = -1e-10


class SteadyStateError(RuntimeError):
    """The Liouvillian kernel could not be extracted as a valid state."""


class CrossValidationError(RuntimeError):
    """The two independent steady-state routes disagree."""


@dataclass(frozen=True)
class SteadyState:
    """Stationary density matrix with solver diagnostics.

    `populations` holds the diagonal in the energy eigenbasis, ascending.
    `degenerate` flags a kernel of dimension > 1, in which case `rho` is
    the normalized projection of the maximally mixed state onto the kernel.
    `residual` is ||L[rho]|| under the full generator.
    """

    rho: np.ndarray
    residual: float
    kernel_dim: int
    populations: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class NetRates:
    """Net transition rates around the four-level cycle.

    `gamma_41_L` is the net decay from the top level to the ground state
    through the left bath; the other three are the net rates along the
    remaining links, oriented so that in steady state all four coincide
    with `cycle_gamma`.
    """

    gamma_41_L: float
    gamma_23_L: float
    gamma_12_R: float
    gamma_34_R: float
    cycle_gamma: float


@dataclass(frozen=True)
class CrossCheckReport:
    population_deviation: float
    coherence_max: float


def _kernel_vector(matrix: np.ndarray, mixed: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Kernel vector of `matrix`, its kernel dimension and largest singular value.

    `mixed` is the maximally mixed state in the coordinates of `matrix`;
    a degenerate kernel is resolved by projecting it onto the kernel.
    """
    _, s, vh = np.linalg.svd(matrix)
    if s[0] == 0.0:
        raise SteadyStateError("Liouvillian is identically zero")
    kernel_mask = s < KERNEL_RTOL * s[0]
    kernel_dim = int(np.count_nonzero(kernel_mask))
    if kernel_dim == 0:
        raise SteadyStateError(
            f"no kernel found: smallest relative singular value {s[-1] / s[0]:.3e}"
        )
    if kernel_dim == 1:
        return vh[-1].conj(), kernel_dim, float(s[0])
    basis = vh[kernel_mask].conj().T  # columns span the kernel
    return basis @ (basis.conj().T @ mixed), kernel_dim, float(s[0])


def _density_matrix(rho: np.ndarray) -> np.ndarray:
    """Trace-normalized, Hermitized kernel matrix, checked for positivity."""
    # the kernel vector carries an arbitrary global phase: dividing by the
    # complex trace removes it before Hermitization can cancel anything
    trace = complex(np.trace(rho))
    if abs(trace) < 1e-12:
        raise SteadyStateError("kernel vector has vanishing trace")
    rho = rho / trace
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real

    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < _MIN_EIGENVALUE:
        raise SteadyStateError(f"steady state not positive: min eigenvalue {min_eig:.3e}")
    return rho


def steady_state_nullspace(L: Liouvillian) -> SteadyState:
    """Stationary state from the SVD kernel of the full Liouvillian matrix.

    The right-singular vector of the smallest singular value is reshaped,
    Hermitized and trace-normalized.  A kernel of dimension > 1 (possible
    for decoupled chains) is resolved by projecting the maximally mixed
    state onto the kernel; an empty kernel raises SteadyStateError.
    """
    d = L.dim
    vec, kernel_dim, _ = _kernel_vector(L.matrix, vectorize(np.eye(d, dtype=complex) / d))
    rho = _density_matrix(unvectorize(vec, d))
    residual = float(np.linalg.norm(L.matrix @ vectorize(rho)))
    decomp = spectral_decompose(HermitianOperator(L.hamiltonian))
    populations = np.real(
        np.diag(decomp.eigenvectors.conj().T @ rho @ decomp.eigenvectors)
    )
    return SteadyState(
        rho=rho,
        residual=residual,
        kernel_dim=kernel_dim,
        populations=populations,
        degenerate=kernel_dim > 1,
    )


def _apply_generator(
    H: np.ndarray, channels: tuple[Channel, ...], rho: np.ndarray
) -> np.ndarray:
    """L[rho] = -i[H, rho] + sum_c g_c (A rho A^dag - {A^dag A, rho}/2), on d x d matrices."""
    out = -1j * (H @ rho - rho @ H)
    for channel in channels:
        a = channel.operator
        m = a.conj().T @ a
        out += channel.rate * (a @ rho @ a.conj().T - 0.5 * (m @ rho + rho @ m))
    return out


def steady_state_block(G: BlockGenerator) -> SteadyState:
    """Stationary state from the SVD kernel of the block generator.

    The kernel rule and the state checks are those of
    `steady_state_nullspace`.  `residual` is ||L[rho]|| of the full
    d x d state under the full generator; it must stay below
    `KERNEL_RTOL` times the block's largest singular value, or the block
    was not invariant and SteadyStateError is raised.
    """
    d = G.dim
    mixed = np.where(G.rows == G.cols, 1.0 / d, 0.0).astype(complex)
    vec, kernel_dim, s_max = _kernel_vector(G.matrix, mixed)
    rho_block = np.zeros((d, d), dtype=complex)
    rho_block[G.rows, G.cols] = vec
    rho_block = _density_matrix(rho_block)
    rho = G.basis @ rho_block @ G.basis.conj().T

    residual = float(np.linalg.norm(_apply_generator(G.hamiltonian, G.channels, rho)))
    if residual > KERNEL_RTOL * s_max:
        raise SteadyStateError(
            f"steady state leaves the symmetry block: residual {residual:.3e} "
            f"exceeds {KERNEL_RTOL:.0e} x largest singular value {s_max:.3e}"
        )
    vectors = G.decomp.eigenvectors
    populations = np.real(np.diag(vectors.conj().T @ rho @ vectors))
    return SteadyState(
        rho=rho,
        residual=residual,
        kernel_dim=kernel_dim,
        populations=populations,
        degenerate=kernel_dim > 1,
    )


def steady_state_rate_equations(
    h: float, delta: float, kappa: float, t_left: float, t_right: float
) -> tuple[np.ndarray, NetRates]:
    """Populations and net rates of the four-level cycle.

    Levels are ordered by ascending energy.  The left bath drives the
    1<->4 and 2<->3 transitions at frequencies h+delta and h-delta; the
    right bath drives 1<->2 and 3<->4, both at frequency delta.  Valid for
    0 < delta < h, where this level ordering holds.
    """
    if not 0 < delta < h:
        raise ValueError("rate equations require 0 < delta < h")
    if t_left < 0 or t_right < 0:
        raise ValueError("temperatures must be nonnegative")
    if kappa <= 0:
        raise ValueError("kappa must be positive")

    w41 = h + delta
    w32 = h - delta
    wr = delta
    n41 = bose_einstein(w41, t_left)
    n32 = bose_einstein(w32, t_left)
    nr = bose_einstein(wr, t_right)

    # rates[i, j] moves population from level j to level i
    rates = np.zeros((4, 4))
    rates[0, 3] = kappa * w41 * (1.0 + n41)
    rates[3, 0] = kappa * w41 * n41
    rates[1, 2] = kappa * w32 * (1.0 + n32)
    rates[2, 1] = kappa * w32 * n32
    rates[0, 1] = kappa * wr * (1.0 + nr)
    rates[1, 0] = kappa * wr * nr
    rates[2, 3] = kappa * wr * (1.0 + nr)
    rates[3, 2] = kappa * wr * nr

    generator = rates - np.diag(rates.sum(axis=0))
    system = np.vstack([generator, np.ones(4)])
    target = np.zeros(5)
    target[4] = 1.0
    populations, _, rank, _ = np.linalg.lstsq(system, target, rcond=None)
    assert rank == 4, "rate-equation system is singular"

    p1, p2, p3, p4 = populations
    gamma_41_L = kappa * w41 * ((1.0 + n41) * p4 - n41 * p1)
    gamma_23_L = -(kappa * w32 * ((1.0 + n32) * p3 - n32 * p2))
    gamma_12_R = -(kappa * wr * ((1.0 + nr) * p2 - nr * p1))
    gamma_34_R = -(kappa * wr * ((1.0 + nr) * p4 - nr * p3))
    rates_out = NetRates(
        gamma_41_L=gamma_41_L,
        gamma_23_L=gamma_23_L,
        gamma_12_R=gamma_12_R,
        gamma_34_R=gamma_34_R,
        cycle_gamma=gamma_23_L,
    )
    return populations, rates_out


def cross_validate(
    h: float,
    delta: float,
    kappa: float,
    t_left: float,
    t_right: float,
    population_tol: float = 1e-8,
    coherence_tol: float = 1e-10,
) -> CrossCheckReport:
    """Check the null-space and rate-equation routes against each other.

    Raises CrossValidationError if the eigenbasis populations differ by
    more than `population_tol` or if the null-space solution carries
    eigenbasis coherences above `coherence_tol`.
    """
    spec = SpinChainSpec(2, h, delta, ChainModel.ISING_ZZ)
    H = build_hamiltonian(spec)
    baths = standard_baths(spec, kappa, t_left, t_right, DissipatorStyle.GLOBAL)
    state = steady_state_nullspace(assemble_liouvillian(H, baths))
    populations, _ = steady_state_rate_equations(h, delta, kappa, t_left, t_right)

    decomp = spectral_decompose(H, spec)
    rho_eig = decomp.eigenvectors.conj().T @ state.rho @ decomp.eigenvectors
    coherence_max = float(np.max(np.abs(rho_eig - np.diag(np.diag(rho_eig)))))
    population_deviation = float(np.max(np.abs(state.populations - populations)))

    if population_deviation > population_tol:
        raise CrossValidationError(
            f"population deviation {population_deviation:.3e} exceeds {population_tol:.1e}"
        )
    if coherence_max > coherence_tol:
        raise CrossValidationError(
            f"steady-state coherence {coherence_max:.3e} exceeds {coherence_tol:.1e}"
        )
    return CrossCheckReport(
        population_deviation=population_deviation, coherence_max=coherence_max
    )
