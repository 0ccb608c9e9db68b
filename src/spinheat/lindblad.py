"""Baths, rates and transitions of thermally driven spin chains.

Two dissipator styles are provided.  The "global" style builds jump
operators between eigenstates of the full chain Hamiltonian, so each bath
sees the true transition frequencies of the interacting system.  The
"local" style damps a single spin with its bare raising/lowering operators
at a fixed frequency, ignoring the inter-spin coupling.  The styles differ
only in which transitions, (frequency, lowering operator) pairs, each bath
sees.  This module decides the one bath arrangement of every current: a
left bath on site 0 and a right bath on the last site, of one style, the
local ones at the frequencies of `_local_frequencies`.  `standard_baths`
writes it down as `BathSpec`s for the dense oracle, which takes any bath
list and each bath's transitions from `bath_transitions`; the transport
routes build the two baths in their own terms: the rate route (`rates`)
from the edges of the Ising pair's level cycle in closed form, the
Gaussian route (`gaussian`) from single-particle modes, whose energies it
groups by the rule `global_transitions` applies to the many-body gaps
(`_groups`).  Every route takes its rates from one ohmic rate law,
`thermal_rates`, which gives the emission rate of a bath at a frequency
(carried by the lowering operator) and its absorption rate (carried by
the adjoint).  The law acts elementwise on arrays.  The chain steps lay
the left bath's and the right bath's transitions side by side (`Slots`),
and the point steps call the law once per stack of points on the live
slots alone (`_slot_rates`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .spinops import (
    ChainModel,
    LOWERING,
    PAULI_X,
    SpectralDecomposition,
    SpinChainSpec,
    embed_matrix,
)

# Relative tolerance for grouping Bohr frequencies into one jump operator.
DEGENERACY_TOL = 1e-9

# exp(x) overflows double precision near x ~ 709; beyond this the thermal
# occupation is far below what a double can resolve anyway.
_OVERFLOW_EXPONENT = 700.0

# Eigenstate pairs whose matrix element of a bath's coupling stays below
# this drive no transition.
_NEGLIGIBLE_ENTRY = 1e-12


class DissipatorStyle(enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"


# The members of a stack of chains that differ from a first chain in the
# coupling and the dissipator style alone: each style's couplings, in the
# order the members are numbered, style by style.
Stack = Sequence[tuple[DissipatorStyle, Sequence[float]]]


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


def _degeneracy_tolerance(largest: np.ndarray) -> np.ndarray:
    """Absolute spacing below which two energies or two gaps count as equal,
    for each member of a stack, from the largest |E| of its many-body
    energies."""
    return DEGENERACY_TOL * np.maximum(largest, 1e-300)


def _groups(values: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The groups of equal values in each row of a (C, K) stack of ascending
    values, padded with NaN past each row's end: each value's group (C, K),
    and the mean value of each group (C, G), NaN past a row's last group.

    A new group starts once a value exceeds the first one of the current
    group by more than the row's `tol`.  The many-body Bohr frequencies
    (`global_transitions`) and the mode energies |eps_k| of the Gaussian
    route are grouped by this one rule.  A group's mean is the one
    `np.mean` takes of its values.
    """
    labels = np.zeros(values.shape, dtype=int)
    if values.shape[1]:
        first = values[:, 0]
        for k in range(1, values.shape[1]):
            new = values[:, k] - first > tol
            labels[:, k] = labels[:, k - 1] + new
            first = np.where(new, values[:, k], first)
    rows, cols = np.nonzero(~np.isnan(values))
    n_groups = labels[rows, cols].max() + 1 if len(rows) else 0
    means = np.full((len(values), n_groups), np.nan)
    # each group is a run of one row: sum the runs of each length as one
    # array, whose rows numpy sums as it sums a group alone
    group = rows * n_groups + labels[rows, cols]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    sizes = np.diff(starts, append=len(group))
    flat = values[rows, cols]
    for size in set(sizes.tolist()):
        runs = starts[sizes == size]
        means.reshape(-1)[group[runs]] = flat[runs[:, None] + np.arange(size)].sum(axis=1) / size
    return labels, means


def global_transitions(
    decomp: SpectralDecomposition, coupling: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis jump operators of a coupling matrix: (frequencies (T,),
    lowering (T, d, d)), sorted by ascending frequency.

    Every ordered eigenstate pair with a positive energy gap and a matrix
    element of `coupling` above 1e-12 contributes that element; pairs
    whose gaps agree within `DEGENERACY_TOL * max(|energy|)` (`_groups`)
    are summed into a single operator at their mean gap, so degenerate
    transitions share one jump matrix.  A gap the coupling does not
    connect joins no group.  Matrices are returned in the original basis.

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
    energies, vectors = decomp.energies, decomp.eigenvectors
    d = len(energies)
    if coupling.shape != (d, d):
        raise ValueError("coupling operator dimension does not match decomposition")
    tol = _degeneracy_tolerance(np.max(np.abs(energies), initial=0.0))
    adjoint = vectors.conj().T
    coupling_eig = adjoint @ coupling @ vectors
    gaps = energies[None, :] - energies[:, None]  # gaps[i, j] = E_j - E_i
    # the connected pairs with a positive gap, ordered by (gap, i, j): the
    # stable sort keeps the row-major order among equal gaps
    rows, cols = np.nonzero((gaps > tol) & (np.abs(coupling_eig) > _NEGLIGIBLE_ENTRY))
    order = np.argsort(gaps[rows, cols], kind="stable")
    rows, cols = rows[order], cols[order]
    labels, frequencies = _groups(gaps[rows, cols][None], tol)
    a_eig = np.zeros((frequencies.shape[1], d, d), dtype=complex)
    a_eig[labels[0], rows, cols] = coupling_eig[rows, cols]
    return frequencies[0], vectors @ a_eig @ adjoint


def thermal_rates(
    kappa: float | np.ndarray, temperature: float | np.ndarray, frequency: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ohmic rate law: (emission, absorption) rates of a bath at a frequency.

    At frequency w > 0 the bath emits at rate kappa*w*(1+n_w) and absorbs
    at rate kappa*w*n_w.  Frequency zero is the continuous w -> 0 limit of
    the local style, where both rates equal kappa*temperature (and vanish
    at zero temperature).  A bath's site and style do not enter.

    The law acts elementwise on arrays that broadcast together and gives
    numpy scalars for scalar arguments.  Every element takes the IEEE
    operations of the scalar occupation `bose_einstein`, `math.expm1`
    included (`np.expm1` differs from it in the last bit for a few percent
    of arguments), so an element does not depend on the array it comes in.
    Only the ratios frequency/temperature in (0, 700] reach `math.expm1`,
    through one mask; a zero temperature, a ratio above 700 and frequency
    zero give occupation 0 without a Python call.
    """
    kappa, temperature, frequency = np.broadcast_arrays(
        np.asarray(kappa, dtype=float),
        np.asarray(temperature, dtype=float),
        np.asarray(frequency, dtype=float),
    )
    if not (temperature >= 0).all() or np.isinf(temperature).any():
        raise ValueError("temperature must be finite and nonnegative")
    emitting = frequency > 0
    # the ratio stays infinite, and the occupation zero, at zero temperature
    ratio = np.divide(
        frequency, temperature, out=np.full(frequency.shape, np.inf), where=temperature > 0
    )
    live = (ratio > 0) & (ratio <= _OVERFLOW_EXPONENT)
    occupation = np.zeros(ratio.shape)
    occupation[live] = 1.0 / _expm1(ratio[live])
    spectrum = kappa * frequency
    flip = kappa * temperature
    emission = np.where(emitting, spectrum * (1.0 + occupation), flip)
    absorption = np.where(emitting, spectrum * occupation, flip)
    return emission[()], absorption[()]


def _expm1(x: np.ndarray) -> np.ndarray:
    """The scalar `math.expm1` over a 1-d array, element by element."""
    return np.fromiter(map(math.expm1, x.tolist()), float, len(x))


def _check_rate_parameters(kappas: Iterable[float], temperatures: Iterable[float]) -> None:
    """Refuse the values the rate law is not defined for."""
    if not all(math.isfinite(t) and t >= 0 for t in temperatures):
        raise ValueError("temperature must be finite and nonnegative")
    if not all(math.isfinite(k) and k > 0 for k in kappas):
        raise ValueError("kappa must be finite and positive")


@dataclass(frozen=True)
class Slots:
    """The transitions of a stack of C chains, the left bath's and the
    right bath's side by side.

    Each bath takes a run of slots: a transition each on the rate route,
    padding past each member's (the left bath takes two slots of every
    member, and a local member, which drives one transition there, holds
    padding in its second), and a mode each on the Gaussian route, whose
    modes of one frequency form one transition.  `frequency[c, s]`
    is member c's frequency in slot s, NaN where `live[c, s]` is False,
    and `bath[s]` is 0 on the left bath's slots, 1 on the right bath's.
    A bath may drive no transition (the right global bath of the Ising
    pair at delta = 0).  Every array is read-only.
    """

    frequency: np.ndarray
    live: np.ndarray
    bath: np.ndarray


def _slots(left: np.ndarray, right: np.ndarray) -> Slots:
    """The slots of the left and the right bath's (C, T) frequencies, NaN
    on padding."""
    frequency = np.concatenate([left, right], axis=1)
    bath = np.repeat([0, 1], [left.shape[1], right.shape[1]])
    live = ~np.isnan(frequency)
    for array in (frequency, live, bath):
        array.setflags(write=False)
    return Slots(frequency=frequency, live=live, bath=bath)


def _slot_rates(
    slots: Slots, member: np.ndarray, kappa: float, temperatures: np.ndarray
) -> np.ndarray:
    """The (P, S, 2) (emission, absorption) rates of P points on their
    members' slots, at one kappa.

    Point p is on member `member[p]` (an integer array) of a chain stack,
    and `temperatures[p]` holds the left and the right bath's temperature
    there.  The rates of padding slots stay zero and never reach the rate
    law.  The live slots of every point go to the rate law in one
    elementwise call, which looks the law up at call time.
    """
    temperatures = np.asarray(temperatures, dtype=float)
    if member.ndim != 1 or temperatures.shape != (len(member), 2):
        raise ValueError(
            f"temperatures of shape {temperatures.shape} for member of shape {member.shape}: "
            f"expected (P, 2) and (P,) for P points of a left and a right bath"
        )
    if len(member):
        if not 0 <= member.min() <= member.max() < len(slots.live):
            raise ValueError(f"member indices must lie in [0, {len(slots.live)})")
        # a NaN reaches both extremes and an infinity one of them
        _check_rate_parameters((kappa,), (temperatures.min(), temperatures.max()))
    live = slots.live[member]
    points, slot = np.nonzero(live)
    rates = np.zeros((*live.shape, 2))
    # a law that gives scalars gives every live slot the same rates; kappa
    # comes as an array of the slots' shape, which the law need not broadcast
    rates[points, slot, 0], rates[points, slot, 1] = thermal_rates(
        np.full(len(points), kappa),
        temperatures[points, slots.bath[slot]],
        slots.frequency[member[points], slot],
    )
    return rates


def bath_transitions(
    decomp: SpectralDecomposition, bath: BathSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The (frequency, lowering operator) pairs one bath drives on a chain,
    as (frequencies (T,), lowering (T, d, d)).

    Global style: the eigenbasis jump operators of sigma^x on the bath's
    site (`global_transitions`).  Local style: sigma^- on that site at the
    bath's local frequency.  The chain length is read off `decomp`.
    """
    n_spins = decomp.dim.bit_length() - 1
    if bath.style is DissipatorStyle.GLOBAL:
        return global_transitions(decomp, embed_matrix(PAULI_X, bath.site, n_spins))
    return np.array([float(bath.local_frequency)]), embed_matrix(LOWERING, bath.site, n_spins)[None]


def _local_frequencies(spec: SpinChainSpec) -> tuple[float, float]:
    """The frequencies of the left and the right local bath: the bare
    splitting h on both ends of the XY chain; h and zero on the Ising
    pair, whose right spin carries no field of its own."""
    if spec.model is ChainModel.ISING_ZZ:
        return spec.field_h, 0.0
    return spec.field_h, spec.field_h


def standard_baths(
    spec: SpinChainSpec,
    kappa: float,
    t_left: float,
    t_right: float,
    style: DissipatorStyle,
) -> list[BathSpec]:
    """Left and right reservoirs in the canonical transport arrangement.

    The left bath sits on site 0 and the right bath on the last site; the
    local style evaluates them at `_local_frequencies`.
    """
    nu_left = nu_right = None
    if style is DissipatorStyle.LOCAL:
        nu_left, nu_right = _local_frequencies(spec)
    return [
        BathSpec(0, t_left, kappa, style, nu_left),
        BathSpec(spec.n_spins - 1, t_right, kappa, style, nu_right),
    ]


def _check_bath_sites(dim: int, baths: list[BathSpec]) -> None:
    """Refuse no baths, an H of dimension `dim` not on spins, and a bath site
    beyond the chain."""
    if not baths:
        raise ValueError("at least one bath is required")
    n_spins = dim.bit_length() - 1
    if 2 ** n_spins != dim:
        raise ValueError("Hamiltonian dimension must be a power of two")
    for bath in baths:
        if bath.site >= n_spins:
            raise ValueError(f"bath site {bath.site} out of range for {n_spins} spins")
