"""Steady states: the kernel rule, the dense route and the four-level rate equations.

One kernel rule serves every generator route (`_kernel_vector` and
`_density_matrix`): singular values below `KERNEL_RTOL` times the largest
count as kernel, a one-dimensional kernel gives the state directly, and a
degenerate kernel is resolved by projecting the maximally mixed state onto
it; the result is trace-normalized, Hermitized and checked for
positivity.  The rule takes a stack of P generators, takes one batched
SVD and applies the rule to each member, so a member comes out the same
in any stack; the first member that fails a check raises a
SteadyStateError that carries its index.  The rate route of the `rates`
module applies it to a stack of the Ising pair's 4 x 4 rate matrices, the
dense route to a 1-stack, and the Gaussian route of the `gaussian` module
zeroes undamped mode pairs by the same `KERNEL_RTOL`, which gives the
same projected state.

- `steady_state_nullspace` takes the SVD kernel of the full d^2 x d^2
  Liouvillian and reports each bath's current,
  `Liouvillian.bath_currents`.  It is the oracle for both transport
  routes.  `kernel_dim` counts the kernel of the full generator.
- `steady_state_rate_equations` solves the closed population cycle of the
  two-spin Ising chain, written out by hand for its four levels.  It and
  the null-space route serve as oracles for each other (`cross_validate`),
  and it shares only `bose_einstein` and the input check of the rate law
  with the rate route of the `rates` module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import (
    DissipatorStyle,
    Liouvillian,
    _check_rate_parameters,
    assemble_liouvillian,
    bose_einstein,
    standard_baths,
    unvectorize,
    vectorize,
)
from .spinops import (
    ChainModel,
    SpinChainSpec,
    build_hamiltonian,
    spectral_decompose,
)

# Singular values below this fraction of the largest one count as kernel.
KERNEL_RTOL = 1e-9

_MIN_EIGENVALUE = -1e-10

# `cross_validate` bounds: largest eigenbasis population deviation between
# the two routes, and largest eigenbasis coherence of the null-space state.
POPULATION_TOL = 1e-8
COHERENCE_TOL = 1e-10


class SteadyStateError(RuntimeError):
    """The Liouvillian kernel could not be extracted as a valid state.

    The kernel rule and the point steps set `member` to the index of the
    stack member that failed; the dataset runner, which names the failing
    curve and x in the message instead, leaves it None.
    """

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class CrossValidationError(RuntimeError):
    """The two independent steady-state routes disagree."""


@dataclass(frozen=True)
class SteadyState:
    """Stationary density matrix with solver diagnostics.

    `residual` is ||L[rho]|| under the full generator.  `kernel_dim` is
    the dimension of the kernel that was solved; above 1, `rho` is the
    normalized projection of the maximally mixed state onto it.
    `bath_currents[k]` is Tr{D_k[rho] H}, the energy the k-th bath of the
    generator (or of the chain step) feeds in per unit time.

    `steady_state_nullspace` returns one state.  The point step of the
    `rates` module, given a chain stack and, for each of P points, a
    member of the stack, a kappa and a temperature per bath, returns P of
    them in the same fields: `rho` of shape (P, d, d), `residual` and
    `kernel_dim` of shape (P,) and `bath_currents` of shape (P, n_baths),
    P = 0 included.
    """

    rho: np.ndarray
    residual: float | np.ndarray
    kernel_dim: int | np.ndarray
    bath_currents: tuple[float, ...] | np.ndarray


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


def _first_failure(failed: np.ndarray, message) -> None:
    """Raise SteadyStateError for the first stack member flagged in `failed`,
    with `message(member)` as its text."""
    if np.any(failed):
        member = int(np.argmax(failed))
        raise SteadyStateError(message(member), member=member)


def _kernel_vector(matrices: np.ndarray, mixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel vectors of a (P, m, m) stack and each member's kernel dimension.

    `mixed` is the maximally mixed state in the coordinates of the
    matrices; a degenerate kernel is resolved by projecting it onto the
    kernel.  A member whose kernel is empty raises SteadyStateError.
    """
    _, s, vh = np.linalg.svd(matrices)
    largest, smallest = s[:, 0], s[:, -1]
    _first_failure(largest == 0.0, lambda p: "Liouvillian is identically zero")
    kernel_mask = s < KERNEL_RTOL * largest[:, None]
    kernel_dim = np.count_nonzero(kernel_mask, axis=1)
    _first_failure(
        kernel_dim == 0,
        lambda p: f"no kernel found: smallest relative singular value "
        f"{smallest[p] / largest[p]:.3e}",
    )
    vectors = np.array(vh[:, -1].conj())
    for p in np.flatnonzero(kernel_dim > 1):
        basis = vh[p][kernel_mask[p]].conj().T  # columns span the kernel
        vectors[p] = basis @ (basis.conj().T @ mixed)
    return vectors, kernel_dim


def _density_matrix(rho: np.ndarray) -> np.ndarray:
    """Trace-normalized, Hermitized kernel matrices of a (P, d, d) stack,
    each checked for positivity."""
    # the kernel vector carries an arbitrary global phase: dividing by the
    # complex trace removes it before Hermitization can cancel anything
    trace = np.trace(rho, axis1=1, axis2=2).astype(complex)
    _first_failure(np.abs(trace) < 1e-12, lambda p: "kernel vector has vanishing trace")
    rho = rho / trace[:, None, None]
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]

    min_eig = np.linalg.eigvalsh(rho).min(axis=1)
    _first_failure(
        min_eig < _MIN_EIGENVALUE,
        lambda p: f"steady state not positive: min eigenvalue {min_eig[p]:.3e}",
    )
    return rho


def steady_state_nullspace(L: Liouvillian) -> SteadyState:
    """Stationary state from the SVD kernel of the full Liouvillian matrix.

    The right-singular vector of the smallest singular value is reshaped,
    Hermitized and trace-normalized.  A kernel of dimension > 1 (possible
    for decoupled chains) is resolved by projecting the maximally mixed
    state onto the kernel; an empty kernel raises SteadyStateError.  Each
    bath's current is read off its own dissipator in `L`.  The kernel rule
    is the stacked one of the transport routes, applied to a 1-stack.
    """
    d = L.dim
    vectors, kernel_dim = _kernel_vector(
        L.matrix[None], vectorize(np.eye(d, dtype=complex) / d)
    )
    rho = _density_matrix(unvectorize(vectors[0], d)[None])[0]
    residual = float(np.linalg.norm(L.matrix @ vectorize(rho)))
    return SteadyState(
        rho=rho,
        residual=residual,
        kernel_dim=int(kernel_dim[0]),
        bath_currents=L.bath_currents(rho),
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
    _check_rate_parameters([kappa], [t_left, t_right])

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
    h: float, delta: float, kappa: float, t_left: float, t_right: float
) -> CrossCheckReport:
    """Check the null-space and rate-equation routes against each other.

    Raises CrossValidationError if the eigenbasis populations differ by
    more than `POPULATION_TOL` or if the null-space solution carries
    eigenbasis coherences above `COHERENCE_TOL`.
    """
    spec = SpinChainSpec(2, h, delta, ChainModel.ISING_ZZ)
    H = build_hamiltonian(spec)
    baths = standard_baths(spec, kappa, t_left, t_right, DissipatorStyle.GLOBAL)
    state = steady_state_nullspace(assemble_liouvillian(H, baths))
    populations, _ = steady_state_rate_equations(h, delta, kappa, t_left, t_right)

    decomp = spectral_decompose(H)
    rho_eig = decomp.eigenvectors.conj().T @ state.rho @ decomp.eigenvectors
    coherence_max = float(np.max(np.abs(rho_eig - np.diag(np.diag(rho_eig)))))
    population_deviation = float(np.max(np.abs(np.real(np.diag(rho_eig)) - populations)))

    if population_deviation > POPULATION_TOL:
        raise CrossValidationError(
            f"population deviation {population_deviation:.3e} exceeds {POPULATION_TOL:.1e}"
        )
    if coherence_max > COHERENCE_TOL:
        raise CrossValidationError(
            f"steady-state coherence {coherence_max:.3e} exceeds {COHERENCE_TOL:.1e}"
        )
    return CrossCheckReport(
        population_deviation=population_deviation, coherence_max=coherence_max
    )
