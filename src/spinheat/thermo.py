"""Heat currents and rectification diagnostics.

The current entering the system from a bath is the energy expectation of
that bath's dissipator output, Tr{D_bath[rho] H}.  Every current is
taken in the one bath arrangement `lindblad` decides: a left bath on
site 0 and a right bath on the last site, of one style.  The point
steps of both transport routes report the left bath's and the right
bath's, in that order, as one row of `bath_currents` per point.  The
sign convention is anchored on the left reservoir: the net current is
its input rate, so a positive value means heat flows from the left bath
through the system into the right bath.

A current is evaluated in two steps: a chain step that depends only on
the chains and their dissipator styles, and a point step that takes only
what varies, kappa and a temperature per point and bath, into the rates
of `lindblad.thermal_rates`, in one elementwise call per point step.
The chain step takes a first chain and a `lindblad.Stack`, each style's
couplings of a stack of C chains that differ from it in the coupling and
the style alone, and the point step one kappa and a stack of P points on
its members, each point with the index of its member: `_net_currents`
solves every cell of a dataset group, all its styles, couplings and
(t_left, t_right) pairs on every grid of a command, in one chain step and
one point step, and `steady_net_current` is its 1-stack of one chain.
`_ROUTES` picks their route by the model, and `_stack_key` which curves
share a stack:

- The XY chain is quadratic in Jordan-Wigner fermions and both styles'
  jump operators are linear in annihilation operators of one fermion
  basis, so its steady state is fixed by the n x n one-body correlation
  matrix: `gaussian.gaussian_chain` is the chain step,
  `gaussian.steady_state_gaussian` the point step.  It solves every
  point in closed form, with no eigendecomposition of X: a global member
  on its collective modes, each group of several modes written on span(u, v)
  of its two baths' lowering vectors, elementwise over its baths and modes,
  and O(n^3) checks where a group holds a pair of collective modes; a local member,
  whose K is tridiagonal with a uniform bulk, with O(n^3) checks.
- The Ising zz pair is not quadratic (sz sz is quartic in the fermions),
  but its H is diagonal and its jumps map basis states to basis states, so
  its populations obey a closed Pauli master equation on the cycle of its
  four levels, solved by its tree sums and cycle flux: `rates.pauli_chain`
  is the chain step, which writes each edge's transition in closed form
  and builds no many-body operator, `rates.steady_state_pauli` the point
  step.  The point step reads no style, so one stack lays members of
  both styles on one slot layout.  The Gaussian route's point step has
  one closed form per style, so each of its stacks holds one style.
  Neither route calls the dense oracle's `lindblad.bath_transitions`.

The chain step is kept in a least-recently-used cache keyed by the
stack's first chain and each DissipatorStyle of the stack with its
couplings as a tuple of Python floats, and bounded at `_CHAIN_CACHE_SIZE`
chain stacks: a lookup hashes one chain and, per style, the style and a
tuple of floats, and builds no chain.  Only
read-only arrays that no rate enters are cached, never a rate matrix or a
steady state, so a cached chain gives bit-identical currents.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import GaussianChain, gaussian_chain, steady_state_gaussian
from .lindblad import DissipatorStyle, Stack
from .rates import PauliChain, pauli_chain, steady_state_pauli
from .spinops import ChainModel, SpinChainSpec

# Chain stacks whose chain step stays cached, each keyed by its first
# chain and each style's couplings as Python floats.  The dataset runner
# asks for each group's stack once per grid chunk and solves the whole
# group in one stacked point step, so a dataset hardly reuses an entry;
# from a cold cache (`_chain.cache_info()`, hits/misses) `run_fig2` reads
# 0/1 (a stack of its three global couplings and its local one),
# `run_fig3` 0/1 (the 100 couplings of both panels and the inset's one), a
# run of fig2 and fig3 after one another 0/2, and `run_xy_comparison` at 5
# spins 0/2 (a stack per style).  The acceptance checks, which loop over
# temperatures on one chain at a time, read 104/8, one miss per chain
# they use.  A caller that reruns a dataset hits once per group: a second
# fig2 + fig3 pass reads 2/0.  At 5 spins, global style, a hit saves
# the chain step, 0.25 to 0.54 ms, of a two-point `run_sweep` that takes
# 0.44 to 0.88 ms warm, its points solved in closed form (medians of 1000,
# three runs in each of three processes, one BLAS thread, a 2-vCPU Xeon VM
# shared with other load; the low ends are its quiet runs).  The rate
# route's entries hold each bath's slots, two of the left bath and one of
# the right per member in either style, a (C, 8) cycle index, member
# first like every chain-step array, and the carried energies: 11 kB for
# fig3's 101 couplings, 0.45 kB for fig2's 4 members.  The Gaussian
# route's hold, per member, H's diagonal and coupling, n integers (the
# pairs), and for each bath and mode a coordinate, a frequency and a flag,
# 50 n + 8 bytes, and 16 n bytes of bath labels per entry: 0.26 kB for the
# 5-spin chain, 0.31 kB for the 6-spin chain and 40 kB for an 800-spin
# chain in either style, so a coupling grid's entry grows by that much per
# grid point.
_CHAIN_CACHE_SIZE = 8

# each model's transport route: (chain step, point step)
_ROUTES = {
    ChainModel.XY_TRANSVERSE: (gaussian_chain, steady_state_gaussian),
    ChainModel.ISING_ZZ: (pauli_chain, steady_state_pauli),
}


def _stack_key(spec: SpinChainSpec, style: DissipatorStyle) -> tuple:
    """Which curves share a chain stack, as a key: chains of one model,
    length and field, which differ in the coupling alone, in either style
    on the rate route, whose point step reads no style, and in one style on
    the Gaussian route, whose point step has one closed form per style."""
    shared = None if spec.model is ChainModel.ISING_ZZ else style
    return spec.model, spec.n_spins, spec.field_h, shared


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


@functools.lru_cache(maxsize=_CHAIN_CACHE_SIZE)
def _chain(head: SpinChainSpec, stack: Stack) -> GaussianChain | PauliChain:
    """The chain step of the stack of chains that are `head` at each
    style's couplings in `stack`, on the route of `_ROUTES`."""
    chain_step, _ = _ROUTES[head.model]
    return chain_step(head, stack)


def _net_currents(
    head: SpinChainSpec,
    stack: Stack,
    member: Sequence[int],
    kappa: float,
    temperatures: Sequence[tuple[float, float]],
) -> np.ndarray:
    """Steady-state net currents at P points, from one chain step over
    `head` at each style's couplings in `stack` and one point step over
    all of them: point p is on member `member[p]` of the stack, members
    numbered style by style in the order of `stack`, at the
    (t_left, t_right) pair `temperatures[p]`.

    A SteadyStateError of the point step carries the index of the point
    that failed.
    """
    _, point_step = _ROUTES[head.model]
    chain = _chain(head, stack)
    return point_step(chain, member, kappa, temperatures).bath_currents[:, 0]  # the left bath


def steady_net_current(
    spec: SpinChainSpec,
    kappa: float,
    t_left: float,
    t_right: float,
    style: DissipatorStyle,
) -> float:
    """Steady-state net current: the left bath's input.

    The cached chain step of (spec, style) as a 1-stack of chains, then the
    point step on a 1-stack of points at these temperatures and kappa, on
    the route of `_ROUTES`.
    """
    stack = ((style, (spec.coupling_delta,)),)
    return float(_net_currents(spec, stack, [0], kappa, [(t_left, t_right)])[0])


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
    both_orders = [(t_hot, t_cold), (t_cold, t_hot)]
    stack = ((style, (spec.coupling_delta,)),)
    j_forward, j_reverse = map(float, _net_currents(spec, stack, [0, 0], kappa, both_orders))
    # Below this floor both currents count as zero and the contrast is 0
    # rather than a ratio of numerical noise.
    floor = 1e-12 * kappa * spec.field_h**2
    magnitude = abs(j_forward) + abs(j_reverse)
    if magnitude < floor:
        contrast = 0.0
    else:
        contrast = (abs(j_forward) - abs(j_reverse)) / magnitude
    return RectificationReport(j_forward=j_forward, j_reverse=j_reverse, contrast=contrast)
