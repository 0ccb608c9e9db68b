"""Baths, rates, transitions and the dense generator of thermally driven spin chains.

Two dissipator styles are provided.  The "global" style builds jump
operators between eigenstates of the full chain Hamiltonian, so each bath
sees the true transition frequencies of the interacting system.  The
"local" style damps a single spin with its bare raising/lowering operators
at a fixed frequency, ignoring the inter-spin coupling.  The styles differ
only in which transitions, (frequency, lowering operator) pairs, each bath
sees, and `bath_transitions` is the one place that decides them for the
dense generator below and for the rate matrix of the `rates` module.
Every route takes its rates from one ohmic rate law, `thermal_rates`,
which gives the emission rate of a bath at a frequency (carried by the
lowering operator) and its absorption rate (carried by the adjoint).

`assemble_liouvillian` builds the full d^2 x d^2 superoperator with
Kronecker products, one `bath_dissipator` per bath.  It is the oracle the
tests and the acceptance checks compare the two transport routes against,
the four-level rate matrix (`rates`) and the Majorana covariance
(`gaussian`); nothing on the transport path calls it.

Superoperators use column-stacking vectorization: vec(rho) stacks the
columns of rho (numpy order='F'), so vec(A rho B) = (B^T kron A) vec(rho)
and the coherent part reads -i(I kron H - H^T kron I).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .spinops import (
    ChainModel,
    HermitianOperator,
    LOWERING,
    PAULI_X,
    SpectralDecomposition,
    SpinChainSpec,
    embed_matrix,
    spectral_decompose,
)

# Relative tolerance for grouping Bohr frequencies into one jump operator.
DEGENERACY_TOL = 1e-9

# exp(x) overflows double precision near x ~ 709; beyond this the thermal
# occupation is far below what a double can resolve anyway.
_OVERFLOW_EXPONENT = 700.0

# Jump matrices whose entries all stay below this are dropped entirely.
_NEGLIGIBLE_ENTRY = 1e-12


class DissipatorStyle(enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class BathSpec:
    """One thermal reservoir attached to one spin.

    The bath spectrum is ohmic, J(omega) = kappa * omega.  For the local
    style, `local_frequency` is the frequency at which the spectrum and the
    thermal occupation are evaluated; zero selects the continuous
    omega -> 0 limit where both flip rates equal kappa * temperature.
    """

    site: int
    temperature: float
    kappa: float
    style: DissipatorStyle
    local_frequency: float | None = None

    def __post_init__(self):
        if self.site < 0:
            raise ValueError("site must be a nonnegative index")
        _check_rate_parameters([self.kappa], [self.temperature])
        if self.style is DissipatorStyle.LOCAL:
            nu = self.local_frequency
            if nu is None or not (math.isfinite(nu) and nu >= 0):
                raise ValueError("local style requires a finite local_frequency >= 0")


@dataclass(frozen=True)
class JumpOperator:
    """A positive Bohr frequency and the transition matrix attached to it."""

    frequency: float
    matrix: np.ndarray

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("jump operators carry strictly positive frequencies")


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


def bose_einstein(frequency: float, temperature: float) -> float:
    """Mean thermal occupation 1 / (exp(frequency/temperature) - 1).

    Exact zero at zero temperature; evaluated through expm1 so it stays
    accurate for frequency/temperature ratios from 1e-12 up to 700, above
    which the occupation is treated as zero.
    """
    if frequency <= 0:
        raise ValueError("bose_einstein requires frequency > 0")
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    if temperature == 0:
        return 0.0
    x = frequency / temperature
    if x > _OVERFLOW_EXPONENT:
        return 0.0
    return 1.0 / math.expm1(x)


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


def _degeneracy_tolerance(energies: np.ndarray) -> float:
    """Absolute spacing below which two energies or two gaps count as equal."""
    scale = float(np.max(np.abs(energies))) if len(energies) else 0.0
    return DEGENERACY_TOL * max(scale, 1e-300)


def _group_starts(values: np.ndarray, tol: float) -> list[int]:
    """Indices at which the groups of equal ascending values start.

    A new group starts once a value exceeds the first one of the current
    group by more than `tol`.  The many-body Bohr frequencies
    (`global_jump_operators`) and the mode energies |eps_k| of the
    Gaussian route are grouped by this one rule.
    """
    starts = [0]
    for k in range(1, len(values)):
        if values[k] - values[starts[-1]] > tol:
            starts.append(k)
    return starts


def global_jump_operators(
    decomp: SpectralDecomposition, coupling_op: HermitianOperator
) -> list[JumpOperator]:
    """Eigenbasis jump operators of a coupling operator, one per gap.

    Every ordered eigenstate pair with a positive energy gap contributes
    its matrix element of `coupling_op`; pairs whose gaps agree within
    `DEGENERACY_TOL * max(|energy|)` are summed into a single operator, so
    degenerate transitions share one jump matrix.  Operators whose entries
    are all negligible (below 1e-12) are dropped.  Matrices are returned in
    the original basis, sorted by ascending frequency.

    Keeping one operator per gap is the full secular approximation: cross
    terms between different gaps are dropped, however close the gaps are.
    Where that matters:

    - Two-spin Ising chain: it changes nothing.  The two left-bath
      transitions, uu->du at h+delta and ud->dd at h-delta, share no
      level, so the dropped cross terms never connect populations to
      coherences and the steady state stays diagonal.
    - Two-spin XY chain: it decides the result.  The one-excitation
      doublet (|ud> +- |du>)/sqrt(2) is split by 2*delta; once 2*delta
      exceeds the grouping tolerance the h-delta and h+delta transitions
      go to separate operators and the doublet coherence is lost.  As
      delta -> 0+ the current therefore tends to 0.184*kappa at T_L = h,
      T_R = 0, while at delta = 0 the operators merge and the decoupled
      spins carry no current.  Resolving splittings far below the
      relaxation rates needs a partial-secular grouping with its own
      coupling scale.
    """
    energies = decomp.energies
    vectors = decomp.eigenvectors
    d = decomp.dim
    if coupling_op.dim != d:
        raise ValueError("coupling operator dimension does not match decomposition")

    tol = _degeneracy_tolerance(energies)

    coupling_eig = vectors.conj().T @ coupling_op.matrix @ vectors
    gaps = energies[None, :] - energies[:, None]  # gaps[i, j] = E_j - E_i

    # pairs with a positive gap, ordered by (gap, i, j): nonzero yields them
    # by (i, j) and the stable sort keeps that order among equal gaps
    rows, cols = np.nonzero(gaps > tol)
    order = np.argsort(gaps[rows, cols], kind="stable")
    rows, cols = rows[order], cols[order]
    pair_gaps = gaps[rows, cols]
    starts = _group_starts(pair_gaps, tol)

    jumps: list[JumpOperator] = []
    for lo, hi in zip(starts, starts[1:] + [len(pair_gaps)]):
        a_eig = np.zeros((d, d), dtype=complex)
        a_eig[rows[lo:hi], cols[lo:hi]] = coupling_eig[rows[lo:hi], cols[lo:hi]]
        if np.max(np.abs(a_eig)) <= _NEGLIGIBLE_ENTRY:
            continue
        matrix = vectors @ a_eig @ vectors.conj().T
        freq = float(np.mean(pair_gaps[lo:hi]))
        jumps.append(JumpOperator(frequency=freq, matrix=matrix))
    return jumps


def thermal_rates(kappa: float, temperature: float, frequency: float) -> tuple[float, float]:
    """The ohmic rate law: (emission, absorption) rates of a bath at one frequency.

    At frequency w > 0 the bath emits at rate kappa*w*(1+n_w) and absorbs
    at rate kappa*w*n_w.  Frequency zero is the continuous w -> 0 limit of
    the local style, where both rates equal kappa*temperature (and vanish
    at zero temperature).  A bath's site and style do not enter.
    """
    if frequency > 0:
        spectrum = kappa * frequency
        occupation = bose_einstein(frequency, temperature)
        return spectrum * (1.0 + occupation), spectrum * occupation
    rate = kappa * temperature
    return rate, rate


def _check_rate_parameters(kappas: Iterable[float], temperatures: Iterable[float]) -> None:
    """Refuse the values the rate law is not defined for."""
    if not all(math.isfinite(t) and t >= 0 for t in temperatures):
        raise ValueError("temperature must be finite and nonnegative")
    if not all(math.isfinite(k) and k > 0 for k in kappas):
        raise ValueError("kappa must be finite and positive")


def _rate_tables(
    kappa: Sequence[float], temperatures: np.ndarray, frequencies: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """The (emission, absorption) rates of P points, one (P, T_k, 2) table per bath:
    `kappa[p]` is point p's kappa, `temperatures[p, k]` bath k's temperature
    there and `frequencies[k]` bath k's T_k transition frequencies.  The
    rate law is looked up at call time and called with Python floats."""
    kappa, temperatures = np.asarray(kappa, dtype=float), np.asarray(temperatures, dtype=float)
    if kappa.ndim != 1 or temperatures.shape != (len(kappa), len(frequencies)):
        raise ValueError(
            f"temperatures of shape {temperatures.shape} for kappa of shape {kappa.shape}: "
            f"expected (P, {len(frequencies)}) for P points of {len(frequencies)} baths"
        )
    # a NaN reaches both extremes and an infinity one of them
    _check_rate_parameters((kappa.min(), kappa.max()), (temperatures.min(), temperatures.max()))
    kappas = kappa.tolist()
    tables = []
    for bath_frequencies, column in zip(frequencies, temperatures.T.tolist()):
        ws = np.asarray(bath_frequencies, dtype=float).tolist()
        rates = [[thermal_rates(k, t, w) for w in ws] for k, t in zip(kappas, column)]
        tables.append(np.array(rates).reshape(len(kappas), len(ws), 2))
    return tables


def bath_transitions(
    decomp: SpectralDecomposition, bath: BathSpec
) -> list[tuple[float, np.ndarray]]:
    """The (frequency, lowering operator) pairs one bath drives.

    Global style: the eigenbasis jump operators of sigma^x on the bath's
    site (`global_jump_operators`).  Local style: sigma^- on that site at
    the bath's local frequency.  The chain length is read off `decomp`.
    """
    n_spins = decomp.dim.bit_length() - 1
    if bath.style is DissipatorStyle.GLOBAL:
        coupling = HermitianOperator(embed_matrix(PAULI_X, bath.site, n_spins))
        return [(jump.frequency, jump.matrix) for jump in global_jump_operators(decomp, coupling)]
    return [(bath.local_frequency, embed_matrix(LOWERING, bath.site, n_spins))]


def bath_dissipator(decomp: SpectralDecomposition, bath: BathSpec) -> np.ndarray:
    """The dense dissipator of one bath: emission through each lowering
    operator of `bath_transitions`, absorption through its adjoint, at the
    rates of `thermal_rates`.  A bath that drives no transition gives the
    zero superoperator."""
    dim = decomp.dim
    part = np.zeros((dim * dim, dim * dim), dtype=complex)
    for frequency, lowering in bath_transitions(decomp, bath):
        emission, absorption = thermal_rates(bath.kappa, bath.temperature, frequency)
        part += emission * dissipation_superoperator(lowering)
        part += absorption * dissipation_superoperator(lowering.conj().T)
    return part


def standard_baths(
    spec: SpinChainSpec,
    kappa: float,
    t_left: float,
    t_right: float,
    style: DissipatorStyle,
) -> list[BathSpec]:
    """Left and right reservoirs in the canonical transport arrangement.

    The left bath sits on site 0 and the right bath on the last site.  For
    the local style the left bath is evaluated at the bare splitting h; the
    right bath uses h as well on the XY chain but frequency zero on the
    Ising chain, whose right spin carries no field of its own.
    """
    if style is DissipatorStyle.GLOBAL:
        nu_left = nu_right = None
    elif spec.model is ChainModel.ISING_ZZ:
        nu_left, nu_right = spec.field_h, 0.0
    else:
        nu_left = nu_right = spec.field_h
    return [
        BathSpec(0, t_left, kappa, style, nu_left),
        BathSpec(spec.n_spins - 1, t_right, kappa, style, nu_right),
    ]


def _check_bath_sites(H: HermitianOperator, baths: list[BathSpec]) -> None:
    """Refuse no baths, an H not on spins, and a bath site beyond the chain."""
    if not baths:
        raise ValueError("at least one bath is required")
    n_spins = H.dim.bit_length() - 1
    if 2 ** n_spins != H.dim:
        raise ValueError("Hamiltonian dimension must be a power of two")
    for bath in baths:
        if bath.site >= n_spins:
            raise ValueError(f"bath site {bath.site} out of range for {n_spins} spins")


def assemble_liouvillian(H: HermitianOperator, baths: list[BathSpec]) -> Liouvillian:
    """Coherent part plus one dissipator per bath, kept separately.

    The per-bath pieces are retained in `bath_parts` (same order as
    `baths`) because the heat current through each reservoir is computed
    from its own dissipator alone.  This dense route is the oracle for
    the `rates` and `gaussian` transport routes.
    """
    _check_bath_sites(H, baths)
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
