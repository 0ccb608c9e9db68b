"""Heat currents and rectification diagnostics.

The current entering the system from a bath is the energy expectation of
that bath's dissipator output, Tr{D_bath[rho] H}.  `heat_currents` reads it
off the dense superoperator of each bath; `channel_heat_currents` writes
it in operator form, sum_c g_c Tr rho (A^dag H A - {A^dag A, H}/2), over
the bath's channels.  The sign convention is
anchored on the left reservoir: `j_net` is the left input rate, so a
positive value means heat flows from the left bath through the system into
the right bath.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import (
    BathSpec,
    Channel,
    DissipatorStyle,
    Liouvillian,
    assemble_block_generator,
    standard_baths,
    unvectorize,
    vectorize,
)
from .spinops import HermitianOperator, SpinChainSpec, build_hamiltonian
from .steady import steady_state_block


@dataclass(frozen=True)
class HeatCurrents:
    """Per-bath input rates.  In steady state they cancel; out of steady
    state their sum is the growth rate of the mean system energy, which is
    reported through `balance_residual` without being asserted."""

    j_in_left: float
    j_in_right: float
    j_net: float
    balance_residual: float


@dataclass(frozen=True)
class RectificationReport:
    """Forward/reverse currents under exchange of the bath temperatures.

    `contrast` is (|forward| - |reverse|) / (|forward| + |reverse|); it is
    defined as 0 when both currents vanish, and reaches 1 exactly when the
    reverse direction insulates while the forward one conducts.
    """

    j_forward: float
    j_reverse: float
    contrast: float


def _bath_current(part: np.ndarray, rho: np.ndarray, H: np.ndarray) -> float:
    dim = H.shape[0]
    drho = unvectorize(part @ vectorize(rho), dim)
    return float(np.real(np.trace(drho @ H)))


def _left_right(baths: tuple[BathSpec, ...]) -> tuple[int, int]:
    if len(baths) != 2:
        raise ValueError("heat currents need exactly two baths")
    left, right = np.argsort([bath.site for bath in baths], kind="stable")
    return int(left), int(right)


def _balance(j_left: float, j_right: float) -> HeatCurrents:
    return HeatCurrents(
        j_in_left=j_left,
        j_in_right=j_right,
        j_net=j_left,
        balance_residual=abs(j_left + j_right),
    )


def heat_currents(L: Liouvillian, rho: np.ndarray, H: HermitianOperator) -> HeatCurrents:
    """Input energy rates from the two reservoirs of a transport setup."""
    if H.dim != L.dim or rho.shape != (L.dim, L.dim):
        raise ValueError("dimension mismatch between Liouvillian, state and Hamiltonian")
    left, right = _left_right(L.baths)
    return _balance(
        _bath_current(L.bath_parts[left], rho, H.matrix),
        _bath_current(L.bath_parts[right], rho, H.matrix),
    )


def channel_heat_currents(
    baths: tuple[BathSpec, ...],
    channels: tuple[Channel, ...],
    rho: np.ndarray,
    H: np.ndarray,
) -> HeatCurrents:
    """Input energy rates in operator form, summed over each bath's channels."""
    left, right = _left_right(baths)
    flows = [0.0, 0.0]
    for channel in channels:
        a = channel.operator
        a_dag = a.conj().T
        m = a_dag @ a
        energy_rate = a_dag @ H @ a - 0.5 * (m @ H + H @ m)
        k = baths.index(channel.bath)
        flows[k] += channel.rate * float(np.real(np.sum(rho * energy_rate.T)))
    return _balance(flows[left], flows[right])


def current_from_cycle(delta: float, cycle_gamma: float) -> float:
    """Net current carried by the population cycle: -2 * delta * gamma.

    One full cycle absorbs h+delta on one left-bath link and releases
    h-delta on the other, so 2*delta crosses the system per cycle.
    """
    return -2.0 * delta * cycle_gamma


def steady_net_current(
    spec: SpinChainSpec,
    kappa: float,
    t_left: float,
    t_right: float,
    style: DissipatorStyle,
) -> float:
    """Steady-state net current for the canonical two-bath arrangement.

    Solved on the charge block of `assemble_block_generator`; the dense
    `assemble_liouvillian` route is its oracle in the tests.
    """
    H = build_hamiltonian(spec)
    baths = standard_baths(spec, kappa, t_left, t_right, style)
    generator = assemble_block_generator(H, baths)
    state = steady_state_block(generator)
    return channel_heat_currents(
        generator.baths, generator.channels, state.rho, generator.hamiltonian
    ).j_net


def rectification(
    spec: SpinChainSpec,
    kappa: float,
    t_hot: float,
    t_cold: float,
    style: DissipatorStyle,
) -> RectificationReport:
    """Compare conduction with the hot bath on the left versus the right."""
    if not t_hot >= t_cold >= 0:
        raise ValueError("requires t_hot >= t_cold >= 0")
    j_forward = steady_net_current(spec, kappa, t_hot, t_cold, style)
    j_reverse = steady_net_current(spec, kappa, t_cold, t_hot, style)
    # Below this floor both currents count as zero and the contrast is 0
    # rather than a ratio of numerical noise.
    floor = 1e-12 * kappa * spec.field_h**2
    magnitude = abs(j_forward) + abs(j_reverse)
    if magnitude < floor:
        contrast = 0.0
    else:
        contrast = (abs(j_forward) - abs(j_reverse)) / magnitude
    return RectificationReport(j_forward=j_forward, j_reverse=j_reverse, contrast=contrast)
