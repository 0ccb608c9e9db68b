"""Baths, rates and transitions of thermally driven spin chains.

Two dissipator styles are provided.  The "global" style builds jump
operators between eigenstates of the full chain Hamiltonian, so each bath
sees the true transition frequencies of the interacting system.  The
"local" style damps a single spin with its bare raising/lowering operators
at a fixed frequency, ignoring the inter-spin coupling.  The styles differ
only in which transitions, (frequency, lowering operator) pairs, each bath
sees, and `bath_transitions` is the one place that decides them for every
route.  It takes a stack of C spectral decompositions and returns each
member's transitions in array operations over the stack
(`global_transitions`).  The number of transitions changes with the
coupling: each member's transitions take its first slots, and the slots
past them are padding, marked by frequency NaN alone.  Every route takes
its rates from one ohmic rate law, `thermal_rates`, which gives the
emission rate of a bath at a frequency (carried by the lowering operator)
and its absorption rate (carried by the adjoint).  The law acts
elementwise on arrays, and the point steps call it once per stack of
points (`_rate_tables`).
"""

from __future__ import annotations

import enum
import itertools
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

# The scalar `math.expm1` as a ufunc over an array, element by element.
_EXPM1 = np.frompyfunc(math.expm1, 1, 1)

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
    """Eigenbasis jump operators of one coupling matrix on a stack of C
    decompositions: (frequencies (C, T), lowering (C, T, d, d)).

    Each member's transitions take its first slots, sorted by ascending
    frequency; the slots past them are padding, with frequency NaN and a
    zero matrix.  For each member, every ordered eigenstate pair
    with a positive energy gap contributes its matrix element of
    `coupling`; pairs whose gaps agree within `DEGENERACY_TOL * max(|energy|)`
    (`_groups`) are summed into a single operator at their mean gap, so
    degenerate transitions share one jump matrix.  Operators whose entries
    are all negligible (below 1e-12) are dropped.  Matrices are returned in
    the original basis.  Every step is an array operation over the stack,
    so a member comes out the same in any stack.

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
    members, d = energies.shape
    if coupling.shape != (d, d):
        raise ValueError("coupling operator dimension does not match decomposition")
    tol = _degeneracy_tolerance(np.max(np.abs(energies), axis=-1, initial=0.0))
    adjoints = vectors.conj().swapaxes(-1, -2)
    coupling_eig = adjoints @ coupling @ vectors
    gaps = energies[:, None, :] - energies[:, :, None]  # gaps[c, i, j] = E_j - E_i

    # each member's pairs with a positive gap, ordered by (gap, i, j), then
    # padding: the stable sort keeps the row-major order among equal gaps
    gaps = gaps.reshape(members, d * d)
    gaps = np.where(gaps > tol[:, None], gaps, np.nan)
    order = np.argsort(gaps, axis=1, kind="stable")
    order = order[:, : np.count_nonzero(~np.isnan(gaps), axis=1).max(initial=0)]
    pair_gaps = np.take_along_axis(gaps, order, axis=1)
    labels, frequencies = _groups(pair_gaps, tol)

    a_eig = np.zeros((members, frequencies.shape[1], d, d), dtype=complex)
    member, slot = np.nonzero(~np.isnan(pair_gaps))
    rows, cols = np.divmod(order[member, slot], d)
    a_eig[member, labels[member, slot], rows, cols] = coupling_eig[member, rows, cols]
    kept = np.max(np.abs(a_eig), axis=(2, 3), initial=0.0) > _NEGLIGIBLE_ENTRY

    # the kept operators of each member move to its first slots, in order
    member, group = np.nonzero(kept)
    slot = np.cumsum(kept, axis=1)[member, group] - 1
    lowering = np.zeros((members, slot.max(initial=-1) + 1, d, d), dtype=complex)
    lowering[member, slot] = vectors[member] @ a_eig[member, group] @ adjoints[member]
    padded = np.full(lowering.shape[:2], np.nan)
    padded[member, slot] = frequencies[member, group]
    return padded, lowering


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
    occupation[live] = 1.0 / _EXPM1(ratio[live]).astype(float)
    spectrum = kappa * frequency
    flip = kappa * temperature
    emission = np.where(emitting, spectrum * (1.0 + occupation), flip)
    absorption = np.where(emitting, spectrum * occupation, flip)
    return emission[()], absorption[()]


def _check_rate_parameters(kappas: Iterable[float], temperatures: Iterable[float]) -> None:
    """Refuse the values the rate law is not defined for."""
    if not all(math.isfinite(t) and t >= 0 for t in temperatures):
        raise ValueError("temperature must be finite and nonnegative")
    if not all(math.isfinite(k) and k > 0 for k in kappas):
        raise ValueError("kappa must be finite and positive")


def _rate_tables(
    member: np.ndarray,
    kappa: Sequence[float],
    temperatures: np.ndarray,
    frequencies: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """The (emission, absorption) rates of P points, one (P, T_k, 2) table per bath.

    Point p is on member `member[p]` (an integer array) of a chain stack,
    `kappa[p]` is its kappa and `temperatures[p, k]` bath k's temperature
    there.  Member c drives the transitions `frequencies[k][c]` of bath k
    that are not NaN; the rates of the NaN padding slots stay zero and
    never reach the rate law.  The live slots of every bath and point go
    to the rate law in one elementwise call, which looks the law up at
    call time.
    """
    kappa, temperatures = np.asarray(kappa, dtype=float), np.asarray(temperatures, dtype=float)
    if (
        kappa.ndim != 1
        or member.shape != kappa.shape
        or temperatures.shape != (len(kappa), len(frequencies))
    ):
        raise ValueError(
            f"temperatures of shape {temperatures.shape} for kappa of shape {kappa.shape} "
            f"and member of shape {member.shape}: expected (P, {len(frequencies)}), (P,) "
            f"and (P,) for P points of {len(frequencies)} baths"
        )
    if len(member):
        if not 0 <= member.min() <= member.max() < len(frequencies[0]):
            raise ValueError(f"member indices must lie in [0, {len(frequencies[0])})")
        # a NaN reaches both extremes and an infinity one of them
        extremes = (temperatures.min(), temperatures.max())
        _check_rate_parameters((kappa.min(), kappa.max()), extremes)
    widths = [bath_frequencies.shape[1] for bath_frequencies in frequencies]
    gathered = np.concatenate([f[member] for f in frequencies], axis=1)
    points, slots = np.nonzero(~np.isnan(gathered))
    bath = np.repeat(np.arange(len(widths)), widths)[slots]
    rates = np.zeros((*gathered.shape, 2))
    # a law that gives scalars gives every live slot the same rates
    rates[points, slots, 0], rates[points, slots, 1] = thermal_rates(
        kappa[points], temperatures[points, bath], gathered[points, slots]
    )
    bounds = list(itertools.accumulate(widths, initial=0))
    return [rates[:, start:stop] for start, stop in zip(bounds, bounds[1:])]


def bath_transitions(
    decomp: SpectralDecomposition, bath: BathSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The (frequency, lowering operator) pairs one bath drives on each
    member of a stack of C decompositions, in the layout of
    `global_transitions`: (frequencies (C, T), lowering (C, T, d, d)),
    padding past each member's transitions, with frequency NaN.

    Global style: the eigenbasis jump operators of sigma^x on the bath's
    site (`global_transitions`).  Local style: sigma^- on that site at the
    bath's local frequency, one transition on every member.  The chain
    length is read off `decomp`.
    """
    n_spins = decomp.dim.bit_length() - 1
    if bath.style is DissipatorStyle.GLOBAL:
        return global_transitions(decomp, embed_matrix(PAULI_X, bath.site, n_spins))
    members = len(decomp.energies)
    lowering = embed_matrix(LOWERING, bath.site, n_spins)
    return (
        np.full((members, 1), float(bath.local_frequency)),
        np.broadcast_to(lowering, (members, 1, *lowering.shape)),
    )


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
