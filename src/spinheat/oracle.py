"""The dense oracle: the d^2 x d^2 generator, its null-space steady state,
and the rate equations of the Ising pair.

The tests and the acceptance checks compare the two transport routes, the
four-level rate cycle (`rates`) and the one-body correlation matrix
(`gaussian`), against this module; no module of the transport path
imports it.

- `assemble_liouvillian` builds the full generator with Kronecker
  products: the coherent part plus one `bath_dissipator` per bath, from
  the transitions of `lindblad.bath_transitions`, which no transport route
  calls, at the rates of `lindblad.thermal_rates`, called with scalars,
  which it looks up at call time as the transport routes do.
- `steady_state_nullspace` solves it by the kernel rule `_kernel_vector`
  (no transport route holds one) on a 1-stack, turns the kernel vector
  into a trace-normalized, Hermitian and positive state (`_density_matrix`)
  and reports each bath's current, `Liouvillian.bath_currents`.
  `kernel_dim` counts the kernel of the full generator.
- `steady_state_rate_equations` solves the closed population cycle of the
  two-spin Ising chain, written out by hand for its four levels by a
  least-squares solve, where the rate route takes a spanning-tree sum.  It
  and the null-space route serve as oracles for each other
  (`cross_validate`).  Its occupations come from `bose_einstein`, which
  the rate law does not call, so it shares only the input check of the
  rate law with the rate route.

Superoperators use column-stacking vectorization: vec(rho) stacks the
columns of rho (numpy order='F'), so vec(A rho B) = (B^T kron A) vec(rho)
and the coherent part reads -i(I kron H - H^T kron I).

The null-space route has a floor: `steady.KERNEL_RTOL` is relative to
the largest singular value of the generator, so a rate below about that
fraction of the largest scale counts as none, and the kernel takes in
states the baths still tell apart.

- Weak coupling, where the coherent part (of order h) dominates: on the
  Ising pair at h = 1, delta = 0.5, T_L = 1, T_R = 0.5, global style,
  the kernel has dimension 2 at kappa = 1e-9 and 4 at kappa = 1e-10,
  where J = -6.25e-11 against the rate route's 3.07e-12.
- Boltzmann factors near exp(-20): on the Ising pair, global style, at
  h = 1, delta = 1 or 3, kappa = 0.5 or 2, T_L = 0.1, T_R = 0, and at
  h = 0.5, delta = 1.5, kappa = 1, T_L = 0.05078125, T_R = 0, it reports
  `kernel_dim` 2 where the population block has one closed class (at
  the latter J = 9.33e-10 against the exact 2.02e-17).  The tests take
  their reference there from exact rational tree sums of that block.

Its global jumps group the many-body gaps each bath's coupling connects
(`lindblad.global_transitions`); the rate route keeps each edge of the
Ising pair's cycle at its own frequency.  They differ at
2 delta <= 1e-9 (h + delta) / 2, where the oracle merges h + delta and
h - delta at their mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the rate law is looked up through its module at call time, so a rate law
# patched there reaches the oracle as it reaches the transport routes
from . import lindblad
from .lindblad import (
    BathSpec,
    DissipatorStyle,
    _check_bath_sites,
    _check_rate_parameters,
    bath_transitions,
    bose_einstein,
    standard_baths,
)
from .spinops import (
    ChainModel,
    HermitianOperator,
    SpectralDecomposition,
    SpinChainSpec,
    build_hamiltonian,
    spectral_decompose,
)
from .steady import _MIN_EIGENVALUE, KERNEL_RTOL, SteadyState, SteadyStateError, _refuse_first

# `cross_validate` bounds: largest eigenbasis population deviation between
# the two routes, and largest eigenbasis coherence of the null-space state.
POPULATION_TOL = 1e-8
COHERENCE_TOL = 1e-10


class CrossValidationError(RuntimeError):
    """The two independent steady-state routes disagree."""


@dataclass(frozen=True)
class Liouvillian:
    """Full generator plus the per-bath pieces needed for heat currents.

    `matrix` is the d^2 x d^2 generator; `h_part` the coherent part and
    `bath_parts[k]` the dissipator of the k-th bath, all in the same
    column-stacking convention.  `hamiltonian` keeps the d x d system
    Hamiltonian the bath currents are measured with.
    """

    dim: int
    matrix: np.ndarray
    h_part: np.ndarray
    bath_parts: tuple[np.ndarray, ...]
    hamiltonian: np.ndarray

    def bath_currents(self, rho: np.ndarray) -> tuple[float, ...]:
        """Tr{D_k[rho] H}, the energy each bath feeds in, in the order of `bath_parts`."""
        if rho.shape != (self.dim, self.dim):
            raise ValueError("dimension mismatch between Liouvillian and state")
        drhos = (unvectorize(part @ vectorize(rho), self.dim) for part in self.bath_parts)
        return tuple(float(np.real(np.trace(drho @ self.hamiltonian))) for drho in drhos)


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


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a density matrix into a length d^2 vector."""
    return np.asarray(rho).reshape(-1, order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of `vectorize`."""
    return np.asarray(vec).reshape(dim, dim, order="F")


def trace_row(dim: int) -> np.ndarray:
    """Row functional r with r @ vec(rho) = trace(rho)."""
    row = np.zeros(dim * dim, dtype=complex)
    row[:: dim + 1] = 1.0
    return row


def dissipation_superoperator(op: np.ndarray) -> np.ndarray:
    """Unit-rate GKSL channel D[op] as a column-stacking superoperator."""
    d = op.shape[0]
    eye = np.eye(d, dtype=complex)
    opd_op = op.conj().T @ op
    return (
        np.kron(op.conj(), op)
        - 0.5 * np.kron(eye, opd_op)
        - 0.5 * np.kron(opd_op.T, eye)
    )


def hamiltonian_superoperator(H: np.ndarray) -> np.ndarray:
    """Coherent part -i[H, .] in column-stacking form."""
    d = H.shape[0]
    eye = np.eye(d, dtype=complex)
    return -1.0j * (np.kron(eye, H) - np.kron(H.T, eye))


def bath_dissipator(decomp: SpectralDecomposition, bath: BathSpec) -> np.ndarray:
    """The dense dissipator of one bath: emission through each lowering
    operator of `bath_transitions`, absorption through its adjoint, at the
    rates of `lindblad.thermal_rates`.  A bath that drives no transition
    gives the zero superoperator."""
    dim = decomp.dim
    part = np.zeros((dim * dim, dim * dim), dtype=complex)
    frequencies, lowering = bath_transitions(decomp, bath)
    for frequency, op in zip(frequencies.tolist(), lowering):
        emission, absorption = lindblad.thermal_rates(bath.kappa, bath.temperature, frequency)
        part += emission * dissipation_superoperator(op)
        part += absorption * dissipation_superoperator(op.conj().T)
    return part


def assemble_liouvillian(H: HermitianOperator, baths: list[BathSpec]) -> Liouvillian:
    """Coherent part plus one dissipator per bath, kept separately.

    The per-bath pieces are retained in `bath_parts` (same order as
    `baths`) because the heat current through each reservoir is computed
    from its own dissipator alone.
    """
    _check_bath_sites(H.dim, baths)
    decomp = spectral_decompose(H)
    parts = [bath_dissipator(decomp, bath) for bath in baths]

    h_part = hamiltonian_superoperator(H.matrix)
    matrix = h_part + sum(parts)
    return Liouvillian(
        dim=H.dim,
        matrix=matrix,
        h_part=h_part,
        bath_parts=tuple(parts),
        hamiltonian=H.matrix.copy(),
    )


def _kernel_vector(matrices: np.ndarray, mixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel vectors of a (P, m, m) stack and each member's kernel dimension.

    One batched SVD: singular values below `KERNEL_RTOL` times the largest
    count as kernel.  A degenerate kernel is resolved by projecting
    `mixed`, the maximally mixed state in the coordinates of the matrices,
    onto it: its coefficients vh @ mixed, masked to the kernel rows, taken
    back through vh^H.  A member with a non-finite entry, which the SVD
    cannot take, or whose kernel is empty raises SteadyStateError.
    """
    _refuse_first(
        [(~np.isfinite(matrices).all(axis=(1, 2)), lambda p: "generator has a non-finite entry")]
    )
    _, s, vh = np.linalg.svd(matrices)
    largest, smallest = s[:, 0], s[:, -1]
    _refuse_first([(largest == 0.0, lambda p: "generator is identically zero")])
    kernel_mask = s < KERNEL_RTOL * largest[:, None]
    kernel_dim = np.count_nonzero(kernel_mask, axis=1)
    _refuse_first(
        [
            (
                kernel_dim == 0,
                lambda p: f"no kernel found: smallest relative singular value "
                f"{smallest[p] / largest[p]:.3e}",
            )
        ]
    )
    vectors = np.array(vh[:, -1].conj())
    degenerate = np.flatnonzero(kernel_dim > 1)
    rows = vh[degenerate]  # the kernel rows of each span its kernel
    coefficients = np.where(kernel_mask[degenerate], rows @ mixed, 0.0)
    vectors[degenerate] = (coefficients[:, None, :] @ rows.conj())[:, 0]
    return vectors, kernel_dim


def _density_matrix(rho: np.ndarray) -> np.ndarray:
    """Trace-normalized, Hermitized kernel matrices of a (P, d, d) stack,
    each checked for positivity."""
    # the kernel vector carries an arbitrary global phase: dividing by the
    # complex trace removes it before Hermitization can cancel anything
    trace = np.trace(rho, axis1=1, axis2=2).astype(complex)
    _refuse_first([(np.abs(trace) < 1e-12, lambda p: "kernel vector has vanishing trace")])
    rho = rho / trace[:, None, None]
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]

    min_eig = np.linalg.eigvalsh(rho).min(axis=1)
    _refuse_first(
        [
            (
                min_eig < _MIN_EIGENVALUE,
                lambda p: f"steady state not positive: min eigenvalue {min_eig[p]:.3e}",
            )
        ]
    )
    return rho


def steady_state_nullspace(L: Liouvillian) -> SteadyState:
    """Stationary state from the SVD kernel of the full Liouvillian matrix.

    The right-singular vector of the smallest singular value is reshaped,
    Hermitized and trace-normalized.  A kernel of dimension > 1 (possible
    for decoupled chains) is resolved by projecting the maximally mixed
    state onto the kernel; an empty kernel raises SteadyStateError.  Each
    bath's current is read off its own dissipator in `L`.  The stacked
    kernel rule `_kernel_vector` takes it as a 1-stack.
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
    0 < delta < h, where this level ordering holds.  Every rate carries
    kappa as a factor, so the populations are those of kappa = 1 and only
    the net rates scale with it.  A rate matrix whose kernel is not one
    state raises SteadyStateError.
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

    # rates[i, j] moves population from level j to level i, at kappa = 1
    rates = np.zeros((4, 4))
    rates[0, 3] = w41 * (1.0 + n41)
    rates[3, 0] = w41 * n41
    rates[1, 2] = w32 * (1.0 + n32)
    rates[2, 1] = w32 * n32
    rates[0, 1] = wr * (1.0 + nr)
    rates[1, 0] = wr * nr
    rates[2, 3] = wr * (1.0 + nr)
    rates[3, 2] = wr * nr

    generator = rates - np.diag(rates.sum(axis=0))
    system = np.vstack([generator, np.ones(4)])
    target = np.zeros(5)
    target[4] = 1.0
    populations, _, rank, _ = np.linalg.lstsq(system, target, rcond=None)
    if rank != 4:
        raise SteadyStateError(f"rate-equation system is singular: rank {rank} of 4")

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


def current_from_cycle(delta: float, cycle_gamma: float) -> float:
    """Net current carried by the population cycle: -2 * delta * gamma.

    One full cycle absorbs h+delta on one left-bath link and releases
    h-delta on the other, so 2*delta crosses the system per cycle.
    """
    return -2.0 * delta * cycle_gamma


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
