"""Dissipators and generators for thermally driven spin chains.

Two dissipator styles are provided.  The "global" style builds jump
operators between eigenstates of the full chain Hamiltonian, so each bath
sees the true transition frequencies of the interacting system.  The
"local" style damps a single spin with its bare raising/lowering operators
at a fixed frequency, ignoring the inter-spin coupling.  Both styles take
their rates from one rate law, `thermal_channels`, which turns each bath
transition into an emission and an absorption channel (bath, rate,
operator).

The generator is built in two ways from those channels:

- `assemble_block_generator` is the route the transport functions use.  It
  never forms a d^2 x d^2 matrix.  Each style has a conserved charge q
  per basis state: in the global style the secular generator commutes
  with [H, .], so the charge is the energy (eigenstates grouped with the
  `DEGENERACY_TOL` rule of `global_jump_operators`); in the local style H
  conserves total S_z and the edge sigma-minus/sigma-plus operators change
  it by one on both sides of rho, a weak U(1) symmetry, so the charge is
  the number of up spins.  Either way the generator maps the span of
  |i><j| with q_i = q_j into itself, and that span holds the identity, so
  the steady state and the maximally mixed state that a degenerate kernel
  is projected from both lie in it.  The block generator is assembled
  entry by entry from d x d matrices in the charge basis:

      L[(i,j),(k,l)] = -i (H_ik d_jl - d_ik H_lj)
                       + sum_c g_c (A_ik A*_jl - M_ik d_jl / 2 - d_ik M_lj / 2)

  with M = A^dag A.  The block has b = sum_q n_q^2 rows, where n_q basis
  states carry charge q: 80 (global) or 252 (local) for the 5-spin XY
  chain, against d^2 = 1024.
- `assemble_liouvillian` builds the full d^2 x d^2 superoperator with
  Kronecker products.  It is the oracle the tests and the acceptance
  checks compare the block route against; nothing on the transport path
  calls it.

Superoperators use column-stacking vectorization: vec(rho) stacks the
columns of rho (numpy order='F'), so vec(A rho B) = (B^T kron A) vec(rho)
and the coherent part reads -i(I kron H - H^T kron I).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be finite and nonnegative")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be finite and positive")
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


class Channel(NamedTuple):
    """One GKSL channel, rate * D[operator], through which `bath` acts."""

    bath: BathSpec
    rate: float
    operator: np.ndarray


@dataclass(frozen=True)
class Liouvillian:
    """Full generator plus the per-bath pieces needed for heat currents.

    `matrix` is the d^2 x d^2 generator; `h_part` the coherent part and
    `bath_parts[k]` the dissipator of `baths[k]`, all in the same
    column-stacking convention.  `hamiltonian` keeps the d x d system
    Hamiltonian so downstream code can compute energies and populations.
    """

    dim: int
    matrix: np.ndarray
    h_part: np.ndarray
    bath_parts: tuple[np.ndarray, ...]
    baths: tuple[BathSpec, ...]
    hamiltonian: np.ndarray


@dataclass(frozen=True)
class BlockGenerator:
    """The generator on the operators that commute with a conserved charge.

    `basis` holds the charge basis as columns: the energy eigenvectors for
    the global style, the computational basis for the local style.  Entry k
    of the block is the matrix element (rows[k], cols[k]) of an operator in
    that basis, and `matrix` is the b x b generator acting on those entries.
    `hamiltonian` and the operators in `channels` are kept in the original
    basis; `decomp` is the spectral decomposition of the Hamiltonian.
    """

    dim: int
    basis: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    matrix: np.ndarray
    hamiltonian: np.ndarray
    channels: tuple[Channel, ...]
    baths: tuple[BathSpec, ...]
    decomp: SpectralDecomposition


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


def _degeneracy_tolerance(energies: np.ndarray, degeneracy_tol: float) -> float:
    """Absolute spacing below which two energies or two gaps count as equal."""
    scale = float(np.max(np.abs(energies))) if len(energies) else 0.0
    return degeneracy_tol * max(scale, 1e-300)


def energy_charges(energies: np.ndarray) -> np.ndarray:
    """Label ascending energies with a group index, degenerate ones alike.

    Uses the grouping rule of `global_jump_operators`: a new group starts
    once an energy exceeds the first one of the current group by more than
    `DEGENERACY_TOL * max(|energy|)`.
    """
    tol = _degeneracy_tolerance(energies, DEGENERACY_TOL)
    charges = np.zeros(len(energies), dtype=int)
    group = start = 0
    for k in range(1, len(energies)):
        if energies[k] - energies[start] > tol:
            group, start = group + 1, k
        charges[k] = group
    return charges


def global_jump_operators(
    decomp: SpectralDecomposition,
    coupling_op: HermitianOperator,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> list[JumpOperator]:
    """Eigenbasis jump operators of a coupling operator, one per gap.

    Every ordered eigenstate pair with a positive energy gap contributes
    its matrix element of `coupling_op`; pairs whose gaps agree within
    `degeneracy_tol * max(|energy|)` are summed into a single operator, so
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

    tol = _degeneracy_tolerance(energies, degeneracy_tol)

    coupling_eig = vectors.conj().T @ coupling_op.matrix @ vectors
    gaps = energies[None, :] - energies[:, None]  # gaps[i, j] = E_j - E_i

    positive = sorted({(i, j) for i in range(d) for j in range(d) if gaps[i, j] > tol},
                      key=lambda ij: (gaps[ij], ij))
    jumps: list[JumpOperator] = []
    group: list[tuple[int, int]] = []

    def flush(pairs: list[tuple[int, int]]):
        if not pairs:
            return
        mask = np.zeros((d, d), dtype=bool)
        for i, j in pairs:
            mask[i, j] = True
        a_eig = np.where(mask, coupling_eig, 0.0)
        if np.max(np.abs(a_eig)) <= _NEGLIGIBLE_ENTRY:
            return
        matrix = vectors @ a_eig @ vectors.conj().T
        freq = float(np.mean([gaps[p] for p in pairs]))
        jumps.append(JumpOperator(frequency=freq, matrix=matrix))

    for pair in positive:
        if group and gaps[pair] - gaps[group[0]] > tol:
            flush(group)
            group = []
        group.append(pair)
    flush(group)
    return jumps


def thermal_channels(
    bath: BathSpec, transitions: Iterable[tuple[float, np.ndarray]]
) -> list[Channel]:
    """The ohmic rate law: emission and absorption channels of one bath.

    Each transition is a (frequency, lowering operator) pair.  At frequency
    w > 0 the bath emits through the operator at rate kappa*w*(1+n_w) and
    absorbs through its adjoint at rate kappa*w*n_w.  Frequency zero is the
    continuous w -> 0 limit of the local style, where both rates equal
    kappa*temperature (and vanish at zero temperature).
    """
    channels = []
    for frequency, lowering in transitions:
        if frequency > 0:
            spectrum = bath.kappa * frequency
            occupation = bose_einstein(frequency, bath.temperature)
            down = spectrum * (1.0 + occupation)
            up = spectrum * occupation
        else:
            down = up = bath.kappa * bath.temperature
        channels.append(Channel(bath, down, lowering))
        channels.append(Channel(bath, up, lowering.conj().T))
    return channels


def _channel_superoperator(channels: list[Channel], dim: int) -> np.ndarray:
    part = np.zeros((dim * dim, dim * dim), dtype=complex)
    for channel in channels:
        part += channel.rate * dissipation_superoperator(channel.operator)
    return part


def global_dissipator(
    jumps: list[JumpOperator], bath: BathSpec, dim: int | None = None
) -> np.ndarray:
    """Thermal dissipator built from eigenbasis jump operators.

    Each jump at frequency w contributes the emission and absorption
    channels of `thermal_channels`.  An empty jump list yields the zero
    superoperator (the coupling drives no transition at all), in which
    case `dim` must be given.
    """
    if bath.style is not DissipatorStyle.GLOBAL:
        raise ValueError("global_dissipator requires a bath with global style")
    if not jumps:
        if dim is None:
            raise ValueError("dim is required when there are no jump operators")
        return np.zeros((dim * dim, dim * dim), dtype=complex)
    channels = thermal_channels(bath, [(jump.frequency, jump.matrix) for jump in jumps])
    return _channel_superoperator(channels, jumps[0].matrix.shape[0])


def local_dissipator(site: int, n_spins: int, bath: BathSpec) -> np.ndarray:
    """Single-spin thermal dissipator with bare lowering/raising operators.

    The rates are those of `thermal_channels` at the bath's local
    frequency nu, including its nu = 0 limit.
    """
    if bath.style is not DissipatorStyle.LOCAL:
        raise ValueError("local_dissipator requires a bath with local style")
    lowering = embed_matrix(LOWERING, site, n_spins)
    channels = thermal_channels(bath, [(bath.local_frequency, lowering)])
    return _channel_superoperator(channels, 2**n_spins)


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


def _chain_length(H: HermitianOperator, baths: list[BathSpec]) -> int:
    """Number of spins behind H, checked against the bath sites."""
    if not baths:
        raise ValueError("at least one bath is required")
    n_spins = H.dim.bit_length() - 1
    if 2 ** n_spins != H.dim:
        raise ValueError("Hamiltonian dimension must be a power of two")
    for bath in baths:
        if bath.site >= n_spins:
            raise ValueError(f"bath site {bath.site} out of range for {n_spins} spins")
    return n_spins


def assemble_liouvillian(
    H: HermitianOperator,
    baths: list[BathSpec],
    degeneracy_tol: float = DEGENERACY_TOL,
) -> Liouvillian:
    """Coherent part plus one dissipator per bath, kept separately.

    The per-bath pieces are retained in `bath_parts` (same order as
    `baths`) because the heat current through each reservoir is computed
    from its own dissipator alone.  This dense route is the oracle for
    `assemble_block_generator`.
    """
    n_spins = _chain_length(H, baths)
    d = H.dim

    decomp = None
    parts = []
    for bath in baths:
        if bath.style is DissipatorStyle.GLOBAL:
            if decomp is None:
                decomp = spectral_decompose(H)
            coupling = HermitianOperator(embed_matrix(PAULI_X, bath.site, n_spins))
            jumps = global_jump_operators(decomp, coupling, degeneracy_tol)
            parts.append(global_dissipator(jumps, bath, dim=d))
        else:
            parts.append(local_dissipator(bath.site, n_spins, bath))

    h_part = hamiltonian_superoperator(H.matrix)
    matrix = h_part + sum(parts)
    return Liouvillian(
        dim=d,
        matrix=matrix,
        h_part=h_part,
        bath_parts=tuple(parts),
        baths=tuple(baths),
        hamiltonian=H.matrix.copy(),
    )


def assemble_block_generator(H: HermitianOperator, baths: list[BathSpec]) -> BlockGenerator:
    """The generator on the charge block that holds the steady state.

    All baths must share one style, which fixes the charge (see the module
    docstring).  The channels are those of `thermal_channels`, exactly as
    in `assemble_liouvillian`; no Kronecker product is formed.
    """
    n_spins = _chain_length(H, baths)
    d = H.dim
    styles = {bath.style for bath in baths}
    if len(styles) != 1:
        raise ValueError("the block generator needs one dissipator style for all baths")

    decomp = spectral_decompose(H)
    channels: list[Channel] = []
    if styles == {DissipatorStyle.GLOBAL}:
        basis = decomp.eigenvectors
        charges = energy_charges(decomp.energies)
        for bath in baths:
            coupling = HermitianOperator(embed_matrix(PAULI_X, bath.site, n_spins))
            jumps = global_jump_operators(decomp, coupling)
            channels += thermal_channels(bath, [(j.frequency, j.matrix) for j in jumps])
    else:
        basis = np.eye(d, dtype=complex)
        # basis index bit 0 is an up spin (see spinops), so this counts up spins
        charges = np.array([n_spins - bin(i).count("1") for i in range(d)])
        for bath in baths:
            lowering = embed_matrix(LOWERING, bath.site, n_spins)
            channels += thermal_channels(bath, [(bath.local_frequency, lowering)])

    rows, cols = np.nonzero(charges[:, None] == charges[None, :])
    same_row = rows[:, None] == rows[None, :]
    same_col = cols[:, None] == cols[None, :]
    # the coherent part and the anticommutator terms together are
    # -i(K rho - rho K^dag) with K = H - (i/2) sum_c g_c M_c
    effective = basis.conj().T @ H.matrix @ basis
    block = np.zeros((len(rows), len(rows)), dtype=complex)
    for channel in channels:
        a = basis.conj().T @ channel.operator @ basis
        effective -= 0.5j * channel.rate * (a.conj().T @ a)
        block += channel.rate * a[np.ix_(rows, rows)] * a.conj()[np.ix_(cols, cols)]
    block += -1j * effective[np.ix_(rows, rows)] * same_col
    block += 1j * same_row * effective.conj()[np.ix_(cols, cols)]
    return BlockGenerator(
        dim=d,
        basis=basis,
        rows=rows,
        cols=cols,
        matrix=block,
        hamiltonian=H.matrix.copy(),
        channels=tuple(channels),
        baths=tuple(baths),
        decomp=decomp,
    )
