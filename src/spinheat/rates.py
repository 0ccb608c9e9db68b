"""The steady state of the Ising zz pair from the cycle of its four levels.

The pair's H is diagonal and every jump of both styles maps a basis state
to at most one basis state, so the populations obey a closed Pauli master
equation dp/dt = G p, the diagonal block of the full generator.  Each
bath flips one spin, so the rates join the levels around one cycle,
uu - du - dd - ud - uu, whose edges 0 and 2 flip the left spin; a point
has 8 rates, r[m] forward along edge m and r[4 + m] back.  The chain step,
`pauli_chain`, puts the left bath on the left spin and the right bath on
the right one, writes each edge's transition in closed form, its
frequency and the direction its bath emits in, and holds the two baths'
frequencies side by side (`lindblad.Slots`), the index that puts their
rates on the cycle (each cycle rate is one rate of the rate law, or
zero), and the energy each bath's edges carry per forward cycle; the
point step, `steady_state_pauli`, takes P points at one kappa and their
rates from one call of the rate law, and its cycle rates from one
gather.  The point step reads no style, so one chain stack holds members
of both styles on one slot layout, two slots of the left bath and one of
the right: a local member's second left slot is padding, which never
reaches the rate law.

The point step lays its arrays out by rate, not by point: the cycle rates
are an (8, P) array, one contiguous row per rate, the populations (4, P),
the tree gathers (3, tree, level, P), and each product, sum and check
runs elementwise on contiguous slabs of points (numpy walks the strided
columns of a (P, 8) array two to three times slower).  Only the returned
fields put P first.

Each point's rates are scaled by a power of two, exactly, so that the
largest lies in [0.5, 1).  By the Markov chain tree theorem (Schnakenberg,
Rev. Mod. Phys. 48, 571 (1976)) p_i is proportional to the sum over the 4
spanning trees of the cycle directed toward i of their rates' products,
with no cancellation: a level whose every tree holds a zero rate is
exactly empty.  Their total Z > 0 means one closed class, and every edge
carries the cycle flux (Pi+ - Pi-) / Z, Pi+- the product of the forward
and of the backward rates, each the left edges' product times the right
edges'.  The difference is taken from the rounded products and their
errors (`_two_product`), so it does not cancel, and a local bath, whose
edges run at one emission and one absorption rate, leaves it exactly 0.
Bath k feeds in the flux times the energy its edges carry.  Z = 0 is a
cut cycle: `kernel_dim` counts its closed classes, arcs no rate leaves
(read off the pattern of its zero rates, `_CLOSED_ARCS`), its currents
are 0, and its state is the dense oracle's projection of the uniform
vector onto their stationary vectors, sum_a pi_a (pi_a . 1) / |pi_a|^2,
pi_a by detailed balance along the arc.  rho = diag(p).

A point is refused, by a SteadyStateError with its index, when its rates
or carried energies are not finite, when they all vanish, when a needed
product without a zero rate (a cycle product, Z, a class's in-tree)
falls below the normal range after the scaling (as at T_L above about
1e154 with the right bath at T = 0), when a population falls below
`steady._MIN_EIGENVALUE`, and when its currents overflow.  The stack
names its first refused point, with the refusal that point meets alone
(`steady._refuse_first`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import (
    DissipatorStyle,
    Slots,
    Stack,
    _degeneracy_tolerance,
    _local_frequencies,
    _slot_rates,
    _slots,
)
from .spinops import ChainModel, SpinChainSpec, _coupling_stack
from .steady import _MIN_EIGENVALUE, SteadyState, _currents_check, _refuse_first

# The cycle uu - du - dd - ud of the levels (uu, ud, du, dd) = (0, 1, 2, 3):
# edge m steps from _CYCLE[m] to _HEADS[m] and flips spin m % 2, which it
# lowers on edges 0 and 1 and raises on edges 2 and 3.
_CYCLE = np.array([0, 2, 3, 1])
_HEADS = np.roll(_CYCLE, -1)
_LOWERS = np.array([True, True, False, False])
_TINY = np.finfo(float).tiny


def _cycle_arcs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 16 arcs of the cycle, one per first level and length, each as
    indices into the cycle rates followed by a one (8) and a zero (9): the
    two rates that leave it, the rates inside it both ways, and its
    in-tree toward each level, the levels before it forward and those after
    it back (three rates, padded with ones; zeros off the arc), laid out
    (rate, arc, level) so that a gather from an (8, P) stack of cycle rates
    takes each tree's rates as contiguous slabs of points.  An arc of four
    levels is the cycle without an edge: its in-trees span the cycle."""
    leaving, inside, trees = [], [], []
    for start, length in np.ndindex(4, 4):  # an arc of length + 1 levels
        edges = [(start + k) % 4 for k in range(length)]
        leaving.append([4 + (start - 1) % 4, (start + length) % 4])
        inside.append(edges + [4 + m for m in edges] + [8] * (6 - 2 * length))
        trees.append(np.full((4, 3), 9))
        for j in range(length + 1):
            tree = edges[:j] + [4 + m for m in edges[j:]] + [8] * (3 - length)
            trees[-1][_CYCLE[(start + j) % 4]] = tree
    return np.array(leaving), np.array(inside), np.moveaxis(np.array(trees), -1, 0).copy()


_ARC_LEAVING, _ARC_INSIDE, _ARC_TREES = _cycle_arcs()


def _closed_arcs() -> np.ndarray:
    """Which arcs are closed classes, no rate leaving them and rates joining
    them both ways inside, for each of the 256 zero patterns of the cycle
    rates: bit e of pattern b is set where rate e is not zero."""
    nonzero = (np.arange(256)[:, None] >> np.arange(8)) & 1
    extended = np.column_stack([nonzero, np.ones(256), np.zeros(256)])
    closed = (extended[:, _ARC_LEAVING] == 0).all(axis=2)
    return closed & (extended[:, _ARC_INSIDE] > 0).all(axis=2)


_CLOSED_ARCS = _closed_arcs()
# the spanning trees toward each level, (rate, tree, level), in which the
# Markov chain tree theorem sums the products of the rates: the in-trees of
# the arcs of four levels
_TREES = _ARC_TREES[:, 3::4].copy()


@dataclass(frozen=True)
class PauliChain:
    """The temperature-independent half of the rate route (the chain step),
    for a stack of C chains that differ in the coupling and the style alone.

    `slots` holds the left and the right bath's transitions side by side,
    two slots of the left bath and one of the right per member,
    and a point's rates on them form its flat (emission, absorption)
    table, entry 2 * slot + s for emission (s = 0) and absorption (s = 1),
    followed by a zero; the point step stacks the tables of its points as
    columns.  `index[c, e]` points cycle rate e of member c into that
    table, at the rate of the transition that drives it or at the zero.
    `carried[c]` is the energy the left and the right bath's edges carry
    per forward cycle.  Every array is read-only.
    """

    slots: Slots
    index: np.ndarray
    carried: np.ndarray


# an overflow leaves an infinite frequency or carried energy, which the
# point step refuses
@np.errstate(over="ignore", invalid="ignore")
def pauli_chain(head: SpinChainSpec, stack: Stack) -> PauliChain:
    """The chain step of the Ising pairs that are `head` at each style's
    couplings in `stack`, members numbered style by style, in closed form
    over the stack, with a bath of the member's style on each spin: the
    left bath on spin 0, the right bath on spin 1.  The head's own coupling
    is not read.

    Edge m climbs -(h + delta), delta, h - delta and delta, so the left
    spin's edges carry -2 delta per forward cycle and the right spin's
    2 delta.  A global bath drives each edge at its own |step|, emitting
    downhill; a step no larger than the grouping tolerance of the largest
    |E|, (h + delta) / 2, drives nothing.  A local bath emits where sigma^-
    lowers its spin, at its frequency of `lindblad._local_frequencies`.
    Every member takes two slots of the left bath and one of the right: a
    global member's left edges one each, a local member's left edges the
    first, its second being padding; the right spin has no field, so its
    two edges share the right bath's slot in either style.
    """
    if head.model is not ChainModel.ISING_ZZ:
        raise ValueError("the rate route needs the Ising zz pair, whose H is diagonal")
    h = head.field_h
    runs = []
    for style, couplings in stack:
        delta = _coupling_stack(couplings)
        steps = np.stack([-(h + delta), delta, h - delta, delta], axis=1)
        # each edge's slot, the left bath's two first: edges 0 and 2 flip
        # the left spin, 1 and 3 the right one
        if style is DissipatorStyle.GLOBAL:
            tol = _degeneracy_tolerance(0.5 * h + 0.5 * delta)[:, None]
            gaps = np.where(np.abs(steps) > tol, np.abs(steps), np.nan)
            frequency, slot, emits = gaps[:, [0, 2, 1]], [0, 2, 1, 2], steps < 0
        else:
            left, right = _local_frequencies(head)
            frequency = np.tile([left, np.nan, right], (len(delta), 1))
            slot, emits = [0, 2, 0, 2], _LOWERS
        runs.append((delta, frequency, *np.broadcast_arrays(slot, emits, steps)[:2]))
    if not runs:
        raise ValueError("a chain stack needs at least one coupling")
    delta, frequency, slot, emits = map(np.concatenate, zip(*runs))
    slots = _slots(frequency[:, :2], frequency[:, 2:])
    driven = np.take_along_axis(slots.live, slot, axis=1)
    forward = 2 * slot + ~emits  # the reverse rate takes the other entry of the slot
    zero = 2 * slots.frequency.shape[1]
    index = np.where(np.tile(driven, 2), np.hstack([forward, forward ^ 1]), zero)
    carried = np.stack([-2.0 * delta, 2.0 * delta], axis=1)
    for array in (index, carried):
        array.setflags(write=False)
    return PauliChain(slots=slots, index=index, carried=carried)


def _cycle_rates(
    chain: PauliChain, member: np.ndarray, kappa: float, temperatures: np.ndarray
) -> np.ndarray:
    """The (8, P) cycle rates of P points, row e cycle rate e, each one rate
    of the rate law or zero: one gather from the points' flat (emission,
    absorption) tables, a column each."""
    rates = _slot_rates(chain.slots, member, kappa, temperatures)
    table = np.zeros((rates.shape[1] * 2 + 1, len(rates)))
    table[:-1] = rates.reshape(len(rates), len(table) - 1).T
    # the gather takes the layout of its index: a transposed view would
    # leave the cycle rates F-ordered
    index = np.ascontiguousarray(chain.index[member].T)
    return np.take_along_axis(table, index, axis=0)


def _tree_sum(rates: np.ndarray, trees: np.ndarray = _TREES) -> np.ndarray:
    """The tree sums of an (8, P) stack of cycle rates, each point's
    unnormalized populations (level, P): one gather of the (rate, tree,
    level) table `trees` into contiguous slabs of points, two whole-stack
    products (the bits of `prod` over the three rates) and a sum over the
    tree axis, one slab at a time.  Every operation runs elementwise along
    the points, so a point's products and sums do not depend on the stack."""
    edges = np.take(rates, trees, axis=0)
    return sum(edges[0] * edges[1] * edges[2])


def _cut_cycles(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed classes of an (8, Q) stack of scaled cycle rates, the arcs
    no rate leaves and rates join both ways inside: each point's number of
    them, the projection of the uniform vector onto their stationary vectors
    (unnormalized, (level, Q)), and whether a class's in-tree, normalized by
    its largest entry, has that entry below the normal range.

    Which arcs are closed depends only on which rates vanish
    (`_CLOSED_ARCS`), and the in-trees are formed, as an (arc, level, Q)
    stack, only for the arcs closed at some point of the stack: an arc
    closed nowhere adds zeros alone."""
    size = rates.shape[1]
    pattern = np.packbits(rates != 0, axis=0, bitorder="little")[0]
    closed = _CLOSED_ARCS[pattern].T
    arcs = np.flatnonzero(closed.any(axis=1))
    closed = closed[arcs]
    extended = np.vstack([rates, np.ones(size), np.zeros(size)])
    trees = _tree_sum(extended, _ARC_TREES[:, None, arcs])  # one tree per arc and level
    largest = np.where(closed, trees.max(axis=1), 1.0)
    trees = np.where(closed[:, None], trees / largest[:, None], 0.0)
    weight = trees.sum(axis=1) / np.where(closed, (trees**2).sum(axis=1), 1.0)
    # the classes share no level, so the sum over the arcs adds zeros only
    lost = (largest < _TINY).any(axis=0)
    return closed.sum(axis=0), (weight[:, None] * trees).sum(axis=0), lost


def _two_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * y and its rounding error (Dekker), for factors below 1: each
    splits into 26 high and 27 low bits, whose products are exact.  The
    cross terms are added first, so swapping x and y gives the same bits."""
    (x_high, x_low), (y_high, y_low) = (_split(v) for v in (x, y))
    product = x * y
    cross = x_high * y_low + x_low * y_high
    return product, ((x_high * y_high - product) + cross) + x_low * y_low


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scaled = 134217729.0 * x  # 2**27 + 1
    high = scaled - (scaled - x)
    return high, x - high


# an overflow is refused by the non-finite checks, under the point's index;
# a point refused early runs through the later stages too, NaN and all
@np.errstate(over="ignore", invalid="ignore")
def steady_state_pauli(
    chain: PauliChain, member: np.ndarray, kappa: float, temperatures: np.ndarray
) -> SteadyState:
    """The point step: the steady populations of P points at one kappa,
    and the left and the right bath's current.

    Point p is on member `member[p]` of the chain stack, and
    `temperatures[p]` holds the left and the right bath's temperature
    there; arrays of other shapes than (P,) and (P, 2) raise ValueError.
    The fields carry a leading axis of length P; a point comes out
    bit-identical in any stack, and on any chain stack that holds its
    chain.  Every check runs on the whole stack, and a SteadyStateError
    names the first point refused, with the refusal it meets in a stack
    of its own.
    """
    member = np.asarray(member, dtype=np.intp)
    rates = _cycle_rates(chain, member, kappa, temperatures)
    size = rates.shape[1]
    carried = chain.carried[member]
    largest = rates.max(axis=0, initial=0.0)
    # each check's failures, in the order a point meets them alone
    refusals = [
        (
            ~np.isfinite(largest) | ~np.isfinite(carried).all(axis=1),
            lambda p: "non-finite rate or carried energy",
        ),
        (largest == 0.0, lambda p: "rates are identically zero"),
    ]
    exponent = np.frexp(largest)[1]
    rates = np.ldexp(rates, -exponent)

    populations = _tree_sum(rates)
    total = sum(populations)
    # Pi+ and Pi-: the left edges' product times the right edges', rounded
    # and with its error
    edges = rates.reshape(2, 2, 2, size)  # (direction, edge m // 2, spin m % 2, point)
    sides, side_errors = _two_product(edges[:, 0], edges[:, 1])
    cycles, errors = _two_product(sides[:, 0], sides[:, 1])
    errors += sides[:, 0] * side_errors[:, 1] + side_errors[:, 0] * sides[:, 1]
    difference = (cycles[0] - cycles[1]) + (errors[0] - errors[1])
    flux = np.divide(difference, total, out=np.zeros(size), where=total >= _TINY)
    # a needed product with no zero rate in it must stay in the normal range;
    # a Z below it is a cut cycle, which needs no cycle product, or lost
    positive = edges > 0
    lost = (cycles < _TINY) & positive[:, 0, 0] & positive[:, 0, 1]
    lost = (lost & positive[:, 1, 0] & positive[:, 1, 1]).any(axis=0)
    kernel_dim = np.ones(size, dtype=int)
    small = np.flatnonzero(total < _TINY)
    if len(small):
        kernel_dim[small], populations[:, small], class_lost = _cut_cycles(rates[:, small])
        lost[small] = np.where(kernel_dim[small] > 1, class_lost, True)
        total[small] = sum(populations[:, small])
    refusals.append((lost, lambda p: "rates span more than the double range"))
    p = populations / total
    smallest = p.min(axis=0)
    refusals.append(
        (
            smallest < _MIN_EIGENVALUE,
            lambda i: f"steady state not positive: min eigenvalue {smallest[i]:.3e}",
        )
    )
    # adding zero turns the -0 of a zero flux times a negative energy into 0
    currents = np.ldexp(flux, exponent)[:, None] * carried + 0.0
    refusals.append(_currents_check(currents))
    _refuse_first(refusals)
    flows = rates[:4] * p[_CYCLE] - rates[4:] * p[_HEADS]
    residual = np.linalg.norm(flows[[-1, 0, 1, 2]] - flows, axis=0)  # in minus out
    return SteadyState(
        rho=p.T[:, :, None] * np.eye(4),
        residual=np.ldexp(residual, exponent),
        kernel_dim=kernel_dim,
        bath_currents=currents,
    )
