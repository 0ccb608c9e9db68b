"""The stacked steps: a member of a stack is its own 1-stack call, bit for bit.

Both transport routes take a stack of chains that differ in the coupling
in one chain step, and P points on its members in one point step.
Stacking must never change a member: not its chain, its state, its
diagnostics or its currents, and not which solver a member takes.  A
member that fails is named by its index, and the dataset runner names its
curve and x.
"""

import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinheat.lindblad as lindblad
from spinheat import experiments, gaussian, oracle, rates, thermo
from spinheat.cli import main
from spinheat.lindblad import DissipatorStyle
from spinheat.spinops import ChainModel, SpinChainSpec, build_hamiltonian, spectral_decompose
from spinheat.steady import SteadyStateError

from test_chain_cache import (
    PROPERTY,
    ROUTE_SPECS,
    bath_frequencies,
    chains,
    kappas,
    live_counts,
    temperatures,
)
from test_steady import CYCLE_EDGES, _rate_matrices

# a degenerate kernel on the rate route: the right local bath of the Ising
# pair has frequency zero, so at T_R = 0 it drives nothing
ISING = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
DEGENERATE_POINT = (1.0, 0.0)
# an exceptional point of X on the Gaussian route at kappa = 1 (see `gaussian`)
EXCEPTIONAL = SpinChainSpec(2, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
EXCEPTIONAL_POINT = (1.0 / math.log(2.0), 0.0)


def _step(spec, style, kappa=1.0, chain=None):
    """The route's point step at `kappa` on (t_left, t_right) points of
    `chain`, by default the cached chain."""
    _, point_step = thermo._ROUTES[spec.model]
    if chain is None:
        chain = thermo._chain(spec, ((style, (spec.coupling_delta,)),))

    def step(points):
        return point_step(chain, [0] * len(points), kappa, points)

    return step


def _fields(state):
    return {name: np.asarray(value) for name, value in vars(state).items()}


def _assert_members_are_their_own_calls(spec, style, points, kappa=1.0, chain=None):
    step = _step(spec, style, kappa, chain)
    stacked = _fields(step(points))
    for p, point in enumerate(points):
        alone = _fields(step([point]))
        for name, value in stacked.items():
            assert value.shape[0] == len(points)
            assert value[p].tobytes() == alone[name][0].tobytes(), (name, p)
    return stacked


points = st.tuples(temperatures, temperatures)


@PROPERTY
@given(chains(), kappas, st.lists(points, min_size=1, max_size=6), st.integers(0, 6))
def test_members_are_bit_identical_to_one_stacks(chain, kappa, drawn, position):
    spec, style = chain
    # every Ising stack holds a degenerate kernel, every XY stack the
    # exceptional point's temperatures
    extra = DEGENERATE_POINT if spec.model is ChainModel.ISING_ZZ else EXCEPTIONAL_POINT
    drawn.insert(min(position, len(drawn)), extra)
    _assert_members_are_their_own_calls(spec, style, drawn, kappa)


def test_degenerate_kernel_inside_a_stack():
    style = DissipatorStyle.LOCAL
    stack = [(2.0, 0.5), DEGENERATE_POINT, (0.3, 1.5), (0.0, 0.0)]
    state = _assert_members_are_their_own_calls(ISING, style, stack)
    assert list(state["kernel_dim"]) == [1, 2, 1, 2]


def test_fig2_local_column_projects_each_member_as_its_own_stack():
    # fig2's phenomenological column, T_R = 0: every point is a cut cycle
    # of two closed classes, and its state is the projection of the
    # uniform vector the oracle's kernel rule makes onto their kernel
    grid = np.concatenate([[0.0], np.logspace(-2, 2, 200)])
    spec = replace(ISING, coupling_delta=0.01)
    points = [(t_left, 0.0) for t_left in grid]
    state = _assert_members_are_their_own_calls(spec, DissipatorStyle.LOCAL, points)
    assert (state["kernel_dim"] == 2).all()
    assert not state["bath_currents"].any()
    chain = thermo._chain(spec, ((DissipatorStyle.LOCAL, (spec.coupling_delta,)),))
    member = np.zeros(len(grid), dtype=np.intp)
    cycle = rates._cycle_rates(chain, member, 1.0, np.array(points))
    vectors, kernel_dim = oracle._kernel_vector(_rate_matrices(cycle)[1], np.full(4, 0.25))
    assert (kernel_dim == 2).all()
    populations = np.diagonal(state["rho"], axis1=1, axis2=2)
    assert np.abs(populations - vectors / vectors.sum(axis=1)[:, None]).max() <= 1e-15


def _failing_at(monkeypatch, t_left):
    """A rate law whose negative absorption breaks a bath at `t_left` only;
    the right bath must stay at another temperature."""
    original = lindblad.thermal_rates

    def rate_law(kappa, temperature, frequency):
        emission, absorption = original(kappa, temperature, frequency)
        failing = np.asarray(temperature) == t_left
        return np.where(failing, 1.0, emission), np.where(failing, -0.5, absorption)

    monkeypatch.setattr(lindblad, "thermal_rates", rate_law)


@pytest.mark.parametrize(
    "spec, message",
    [
        (ISING, "steady state not positive"),
        (SpinChainSpec(3, 1.0, 0.5, ChainModel.XY_TRANSVERSE), "covariance not physical"),
    ],
    ids=["pauli", "gaussian"],
)
@pytest.mark.parametrize("style", DissipatorStyle)
def test_failing_member_is_named_by_its_index(monkeypatch, spec, message, style):
    _failing_at(monkeypatch, 0.75)
    stack = [(0.5, 0.2), (1.0, 0.2), (0.75, 0.2), (2.0, 0.2)]
    with pytest.raises(SteadyStateError, match=message) as excinfo:
        _step(spec, style)(stack)
    assert excinfo.value.member == 2


def test_failing_point_of_the_kernel_rule_is_named_by_its_index(monkeypatch):
    # a degenerate point first, then a point whose rates all vanish, which
    # is refused under its index in the whole stack
    original = lindblad.thermal_rates

    def rate_law(kappa, temperature, frequency):
        emission, absorption = original(kappa, temperature, frequency)
        dead = np.asarray(temperature) == 0.75
        return np.where(dead, 0.0, emission), np.where(dead, 0.0, absorption)

    monkeypatch.setattr(lindblad, "thermal_rates", rate_law)
    stack = [(2.0, 0.5), DEGENERATE_POINT, (0.75, 0.75), (0.3, 0.2)]
    with pytest.raises(SteadyStateError, match="identically zero") as excinfo:
        _step(ISING, DissipatorStyle.LOCAL)(stack)
    assert excinfo.value.member == 2


@pytest.mark.parametrize("spec", [ISING, EXCEPTIONAL], ids=["pauli", "gaussian"])
def test_failing_point_on_a_chain_stack_is_named_by_its_index(monkeypatch, spec):
    # the failing point sits on the second chain of the stack, after points
    # of both chains
    _failing_at(monkeypatch, 0.75)
    chain_step, point_step = thermo._ROUTES[spec.model]
    chain = chain_step(spec, ((DissipatorStyle.GLOBAL, (spec.coupling_delta, 0.3)),))
    temperatures = [[0.5, 0.2], [1.0, 0.2], [2.0, 0.2], [0.75, 0.2]]
    with pytest.raises(SteadyStateError) as excinfo:
        point_step(chain, [1, 0, 1, 1], 1.0, temperatures)
    assert excinfo.value.member == 3


def test_first_refused_point_is_named_on_the_rate_route():
    # T_L = 5e307 spans more than the double range, and the later 1e308
    # overflows the rates, a refusal that comes first in a point's checks
    grid = [(0.0, 0.0), (5e307, 0.0), (1e308, 0.0)]
    messages = ["rates span more than the double range", "non-finite rate"]
    for p, message in enumerate(messages, start=1):
        with pytest.raises(SteadyStateError, match=message):
            thermo.steady_net_current(ISING, 1.0, *grid[p], DissipatorStyle.GLOBAL)
    stack = ((DissipatorStyle.GLOBAL, (ISING.coupling_delta,)),)
    with pytest.raises(SteadyStateError, match=messages[0]) as excinfo:
        thermo._net_currents(ISING, stack, [0, 0, 0], 1.0, grid)
    assert excinfo.value.member == 1


def test_first_refused_point_is_named_on_the_gaussian_route(monkeypatch):
    # the covariance at T_L = 0.75 is not physical, the last check, and
    # X at T_L = 1e308 has a non-finite entry, the first, on the chain
    # first in the stack
    _failing_at(monkeypatch, 0.75)
    spec = SpinChainSpec(3, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
    grid = [(2.0, 0.2), (0.75, 0.2), (1e308, 0.2)]
    messages = ["covariance not physical", "non-finite entry"]
    for p, message in enumerate(messages, start=1):
        with pytest.raises(SteadyStateError, match=message):
            thermo.steady_net_current(spec, 1.0, *grid[p], DissipatorStyle.GLOBAL)
    stack = ((DissipatorStyle.GLOBAL, (spec.coupling_delta, 0.3)),)
    with pytest.raises(SteadyStateError, match=messages[0]) as excinfo:
        thermo._net_currents(spec, stack, [0, 1, 0], 1.0, grid)
    assert excinfo.value.member == 1


# stacks of each style's members: local chains at delta = 0, weak and strong
# coupling; global chains at delta = 0 (every mode at h), a collision whose
# lowering vectors are parallel (sqrt(2) h on three spins, 2 h on five), one
# whose are neither parallel nor orthogonal (2 h / sqrt(3) on five), and
# members whose every group holds one mode
SOLVED_STACKS = {
    "local-2": (EXCEPTIONAL, (0.0, 0.5, 1.3, 1e-6, 1e9), DissipatorStyle.LOCAL),
    "local-6": (
        SpinChainSpec(6, 1.0, 0.5, ChainModel.XY_TRANSVERSE),
        (0.0, 0.5, 1.3, 1e-6, 1e9),
        DissipatorStyle.LOCAL,
    ),
    "global-3": (
        SpinChainSpec(3, 1.0, 0.5, ChainModel.XY_TRANSVERSE),
        (0.0, math.sqrt(2.0), 0.5, 1.3),
        DissipatorStyle.GLOBAL,
    ),
    "global-5": (
        SpinChainSpec(5, 1.0, 0.5, ChainModel.XY_TRANSVERSE),
        (2.0 / math.sqrt(3.0), 0.0, 2.0, 0.5),
        DissipatorStyle.GLOBAL,
    ),
}


@pytest.mark.parametrize("spec, couplings, style", SOLVED_STACKS.values(), ids=SOLVED_STACKS)
def test_mixed_stack_points_are_their_own_one_stacks(monkeypatch, spec, couplings, style):
    # every member takes its style's closed form: no point calls a general
    # eigensolver, an inverse or least squares, and each point, the
    # exceptional point of a local chain included, is its own 1-stack on the
    # chain of its coupling alone
    def never(*args, **kwargs):
        raise AssertionError("a point reached a general solver")

    for name in ("eig", "inv", "lstsq", "solve"):
        monkeypatch.setattr(np.linalg, name, never)
    chain = gaussian.gaussian_chain(spec, ((style, couplings),))
    member = [2, 0, 3, 1, 2, 1, 0, 3, 0]
    temperatures = [[2.0, 0.0], [1.0, 0.5], [0.3, 0.0], [2.0, 1.0], [0.0, 0.0], [0.5, 3.0],
                    [1.5, 1.5], [4.0, 0.2], list(EXCEPTIONAL_POINT)]
    stacked = _fields(gaussian.steady_state_gaussian(chain, member, 0.7, temperatures))
    for p, (m, temps) in enumerate(zip(member, temperatures)):
        alone = gaussian.gaussian_chain(spec, ((style, couplings[m : m + 1]),))
        own = _fields(gaussian.steady_state_gaussian(alone, [0], 0.7, [temps]))
        for name, value in stacked.items():
            assert value[p].tobytes() == own[name][0].tobytes(), (name, p)
    if style is DissipatorStyle.GLOBAL:
        # only 2 h / sqrt(3) holds a pair of collective modes
        paired = [bool((row != np.arange(spec.n_spins)).any()) for row in chain.partner]
        assert paired == [c == 2.0 / math.sqrt(3.0) for c in couplings]


@pytest.mark.parametrize("model", ["ising", "xy"])
def test_failure_in_the_middle_of_a_stack_names_its_curve_and_x(
    tmp_path, capsys, monkeypatch, model
):
    # the middle point of a five-point T_L grid fails, in both curves
    _failing_at(monkeypatch, 0.75)
    config = tmp_path / "sweep.cfg"
    config.write_text(
        f"model = {model}\ndelta = 0.5\nstyle = both\nsweep = temperature\n"
        "start = 0.25\nstop = 1.25\npoints = 5\nt_right = 0.0\n"
    )
    out = tmp_path / "out.csv"
    status = main(["sweep", "--config", str(config), "--out", str(out), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("solver error: J_global at T_L = 0.75: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_refused_inset_cell_names_the_inset_grid(tmp_path, monkeypatch):
    # fig3's panels and inset are one point step; a bath at 5.5 sits only
    # in the inset, at mean temperature 5, and the left one there, at
    # delta_T = 1, is refused: the refusal names the inset's curve, x name
    # and x
    _failing_at(monkeypatch, 5.5)
    with pytest.raises(SteadyStateError, match="steady state not positive") as excinfo:
        experiments.run_fig3(1.0, tmp_path)
    assert str(excinfo.value).startswith("J_tbar_5 at delta_T = 1: ")
    assert not list(tmp_path.iterdir())


def test_refused_local_fig2_cell_names_the_local_curve(tmp_path, monkeypatch):
    # fig2's global and local curves are one point step on the T_L grid; a
    # rate law that fails at the local bath's frequency h = 1 alone, which
    # no global transition of fig2's couplings has, refuses a local cell
    grid = np.concatenate([[0.0], np.logspace(-2, 2, 200)])
    t_left = grid[150]
    original = lindblad.thermal_rates

    def rate_law(kappa, temperature, frequency):
        emission, absorption = original(kappa, temperature, frequency)
        failing = (np.asarray(frequency) == 1.0) & (np.asarray(temperature) == t_left)
        return np.where(failing, 1.0, emission), np.where(failing, -0.5, absorption)

    monkeypatch.setattr(lindblad, "thermal_rates", rate_law)
    with pytest.raises(SteadyStateError) as excinfo:
        experiments.run_fig2(1.0, tmp_path)
    assert str(excinfo.value).startswith(f"J_ph_delta_0.01 at T_L = {t_left:.15g}: ")
    assert not list(tmp_path.iterdir())


# points whose rates or flows overflow, global style, T_R = 0: the currents
# of the XY chain and of the Ising pair (inf), the Ising pair's rates or the
# energy its edges carry, and the XY chain's X.  The XY chain's currents
# overflow on four spins, whose modes at h +- 1.618 delta share one group
# with parallel lowering vectors; on three spins the middle mode is a zero
# mode and the two outer ones share a group with orthogonal ones, so every
# current is an exact zero
OVERFLOWS = {
    "xy-delta": (SpinChainSpec(4, 1.0, 1e200, ChainModel.XY_TRANSVERSE), 1e200, "not finite"),
    "ising-delta": (SpinChainSpec(2, 1.0, 1e200, ChainModel.ISING_ZZ), 1e200, "not finite"),
    "ising-max-delta": (SpinChainSpec(2, 1.0, 1e308, ChainModel.ISING_ZZ), 1.0, "non-finite"),
    "ising-max-t-left": (ISING, 1e308, "non-finite"),
    "xy-max-t-left": (SpinChainSpec(3, 1.0, 0.5, ChainModel.XY_TRANSVERSE), 1e308, "non-finite"),
    # the mode energies overflow in the chain step, which must not drop the transitions
    "xy-max-delta": (SpinChainSpec(3, 1.0, 1.7e308, ChainModel.XY_TRANSVERSE), 1.0, "non-finite"),
}


@pytest.mark.parametrize("spec, t_left, message", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_point_that_overflows_is_refused(spec, t_left, message):
    with pytest.raises(SteadyStateError, match=message) as excinfo:
        thermo.steady_net_current(spec, 1.0, t_left, 0.0, DissipatorStyle.GLOBAL)
    assert excinfo.value.member == 0


@pytest.mark.parametrize("spec, t_left, message", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_point_that_overflows_is_named_by_its_index_in_a_stack(spec, t_left, message):
    chain_step, point_step = thermo._ROUTES[spec.model]
    chain = chain_step(spec, ((DissipatorStyle.GLOBAL, (0.5, spec.coupling_delta)),))
    temperatures = [[1.0, 0.0], [1.0, 0.0], [t_left, 0.0], [2.0, 0.0]]
    with pytest.raises(SteadyStateError, match=message) as excinfo:
        point_step(chain, [0, 0, 1, 0], 1.0, temperatures)
    assert excinfo.value.member == 2


@pytest.mark.parametrize(
    "config, named",
    [
        (
            "model = xy\nspins = 4\nsweep = coupling\nstart = 0\nstop = 1e300\n"
            "t_left = 1e300\nt_right = 0.0\n",
            "J_global at delta = 5e+299: ",
        ),
        (
            "model = ising\ndelta = 0.5\nsweep = temperature\nstart = 0\nstop = 1e308\n"
            "t_right = 0.0\n",
            # 5e307 is refused on its own, before 1e308 (non-finite rates)
            "J_global at T_L = 5e+307: ",
        ),
        (
            "model = xy\nspins = 3\ndelta = 1.7e308\nstyle = local\nsweep = temperature\n"
            "start = 1\nstop = 1e308\nt_right = 0.0\n",
            "J_local at T_L = 1e+308: ",
        ),
    ],
    ids=["xy-coupling", "ising-temperature", "xy-local-delta"],
)
def test_sweep_that_overflows_names_its_point(tmp_path, capfd, config, named):
    path = tmp_path / "sweep.cfg"
    path.write_text(config + "points = 3\n")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["sweep", "--config", str(path), "--out", str(out), "--jobs", "1"])
    # capfd also holds what LAPACK prints to the file descriptors
    printed, err = capfd.readouterr()
    assert status == 1
    assert err.startswith("solver error: " + named)
    assert "illegal value" not in printed + err
    # numpy's overflow warnings stay silent: the message alone names the point
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err
    assert not out.exists()


# the couplings, as fractions of h, where the number of transitions of the
# Ising pair changes: at 0 the right bath drives none and the left bath one
# group; at 1/2 the left bath's h - delta group also holds the two delta
# gaps; at 1 the h - delta transition vanishes; past 1 the levels reorder
EDGES = (0.0, 0.5, 1.0, 1.5, 2.0)


@st.composite
def coupling_stacks(draw):
    """A first chain, the distinct couplings of a stack of chains that
    differ from it in the coupling alone, edges included, and a dissipator
    style."""
    model, n_spins = draw(
        st.sampled_from(
            [(ChainModel.ISING_ZZ, 2), (ChainModel.XY_TRANSVERSE, 2), (ChainModel.XY_TRANSVERSE, 3)]
        )
    )
    h = draw(st.floats(0.5, 2.0))
    ratio = st.one_of(st.sampled_from(EDGES), st.floats(0.01, 2.5))
    couplings = tuple(r * h for r in draw(st.lists(ratio, min_size=1, max_size=5, unique=True)))
    head = SpinChainSpec(n_spins, h, couplings[0], model)
    return head, couplings, draw(st.sampled_from(DissipatorStyle))


def _member_arrays(chain, c):
    """Member c of a chain stack, each array cut to its live slots, and the
    padding past them.  The rate route's cycle index points into a point's
    flat rate table, at entry 2 * slot + s or at the zero past it, and is
    read as the rank of that slot among the member's live slots (-1 for
    the zero)."""
    slots = chain.slots
    live = slots.live[c]
    arrays = {
        "frequency": slots.frequency[c, live],
        "bath": slots.bath[live],
    }
    padding = [("frequency", slots.frequency[c, ~live]), ("live", slots.live[c, ~live])]
    for field in fields(chain):
        value = getattr(chain, field.name)
        if field.name == "lowering":  # one entry per slot, bath by bath
            arrays[field.name] = value[c].reshape(live.shape)[live]
            padding.append((field.name, value[c].reshape(live.shape)[~live]))
        elif field.name == "index":
            slot, s = np.divmod(value[c], 2)
            rank = np.append(np.cumsum(live) - 1, -1)
            assert np.append(live, True)[slot].all()  # never a padding slot
            arrays[field.name] = np.where(slot == len(live), -1, 2 * rank[slot] + s)
        elif field.name not in ("slots", "style"):
            arrays[field.name] = value[c]
    return arrays, padding


@PROPERTY
@given(coupling_stacks(), st.data())
def test_chain_stack_members_are_their_own_chains(stack, data):
    head, couplings, style = stack
    chain_step, point_step = thermo._ROUTES[head.model]
    chain = chain_step(head, ((style, couplings),))
    alone = [chain_step(head, ((style, (coupling,)),)) for coupling in couplings]
    for c, single in enumerate(alone):
        assert [live_counts(f)[c] for f in bath_frequencies(chain.slots)] == [
            live_counts(f)[0] for f in bath_frequencies(single.slots)
        ]
        arrays, padding = _member_arrays(chain, c)
        for name, value in _member_arrays(single, 0)[0].items():
            assert arrays[name].tobytes() == value.tobytes(), (name, c)
        for name, value in padding:
            if name == "frequency":
                assert np.isnan(value).all()
            else:
                assert not value.any(), name

    # points on drawn members, and a degenerate kernel on one of them: the
    # Ising pair's right local bath at frequency zero and T_R = 0
    point = st.tuples(st.integers(0, len(couplings) - 1), temperatures, temperatures)
    drawn = data.draw(st.lists(point, min_size=1, max_size=8))
    drawn.append((data.draw(st.integers(0, len(couplings) - 1)), *DEGENERATE_POINT))
    kappa = data.draw(kappas)
    member = [p[0] for p in drawn]
    temps = [p[1:] for p in drawn]
    seen = []
    rate_law = lindblad.thermal_rates

    def recorded(kappa, temperature, frequency):
        seen.extend(np.ravel(frequency).tolist())
        return rate_law(kappa, temperature, frequency)

    with mock.patch.object(lindblad, "thermal_rates", recorded):
        stacked = _fields(point_step(chain, member, kappa, temps))
    # no padding slot reaches the rate law
    assert len(seen) == sum(
        live_counts(f)[m] for f in bath_frequencies(chain.slots) for m in member
    )
    assert not np.isnan(seen).any()
    for p, (m, *rest) in enumerate(drawn):
        own = _fields(point_step(alone[m], [0], kappa, [rest]))
        for name, value in stacked.items():
            assert value[p].tobytes() == own[name][0].tobytes(), (name, p)


@st.composite
def mixed_pauli_stacks(draw):
    """An Ising pair and a stack of both styles' couplings, in either
    order, delta = 0 and the edges of the transitions included."""
    h = draw(st.floats(0.5, 2.0))
    ratio = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 2.5))
    stack = tuple(
        (style, tuple(r * h for r in draw(st.lists(ratio, min_size=1, max_size=4, unique=True))))
        for style in draw(st.permutations(list(DissipatorStyle)))
    )
    return SpinChainSpec(2, h, stack[0][1][0], ChainModel.ISING_ZZ), stack


# temperatures up to 1e300 and kappas down to 1e-300, where points are
# refused for rates that span more than the double range or overflow
wide_temperatures = st.one_of(temperatures, st.sampled_from([1e10, 1e154, 1e300]))
wide_kappas = st.one_of(kappas, st.sampled_from([1e-300, 1e-150, 1e-10, 10.0]))


def _outcome(chain, member, kappa, temperatures):
    """A point step's fields, or the SteadyStateError it raises."""
    try:
        return _fields(rates.steady_state_pauli(chain, member, kappa, temperatures))
    except SteadyStateError as err:
        return err


@PROPERTY
@given(mixed_pauli_stacks(), st.data())
def test_mixed_style_pauli_points_are_their_own_one_stacks(stack, data):
    # every point of a stack of both styles has the fields of its own
    # 1-stack of one style, and the stack the refusal of its first point
    # refused, by member and message; cut cycles (the local style at
    # T_R = 0), and stacks of no point, included
    head, stack = stack
    members = [(style, coupling) for style, couplings in stack for coupling in couplings]
    chain = rates.pauli_chain(head, stack)
    point = st.tuples(st.integers(0, len(members) - 1), wide_temperatures, wide_temperatures)
    drawn = data.draw(st.lists(point, max_size=8))
    if drawn and data.draw(st.booleans()):
        drawn.append((data.draw(st.integers(0, len(members) - 1)), *DEGENERATE_POINT))
    kappa = data.draw(wide_kappas)
    member = [m for m, *_ in drawn]
    temps = np.array([t for _, *t in drawn], dtype=float).reshape(-1, 2)
    stacked = _outcome(chain, member, kappa, temps)
    own = [
        _outcome(rates.pauli_chain(head, ((members[m][0], members[m][1:]),)), [0], kappa, [t])
        for m, t in zip(member, temps)
    ]
    refused = [p for p, outcome in enumerate(own) if isinstance(outcome, SteadyStateError)]
    if refused:
        assert isinstance(stacked, SteadyStateError)
        assert (stacked.member, str(stacked)) == (refused[0], str(own[refused[0]]))
        return
    assert not isinstance(stacked, SteadyStateError), stacked
    for name, value in stacked.items():
        assert value.shape[0] == len(drawn)
        for p, alone in enumerate(own):
            assert value[p].tobytes() == alone[name][0].tobytes(), (name, p)


def _dense_drives(spec, baths):
    """What drives each of the 8 cycle rates of one Ising pair in the dense
    oracle's jumps, `lindblad.bath_transitions` on its
    `spectral_decompose(build_hamiltonian(spec))`: (bath, s, frequency), s
    = 0 where the rate is an emission (|A_ij|^2 = 1 of a lowering operator)
    and 1 where it is an absorption (of its adjoint), or None."""
    decomp = spectral_decompose(build_hamiltonian(spec))
    drives = [None] * 8
    for k, bath in enumerate(baths):
        frequencies, lowering = lindblad.bath_transitions(decomp, bath)
        emission = (np.abs(lowering) ** 2).reshape(-1, 16)[:, CYCLE_EDGES]
        # absorption runs each edge the other way
        for s, weights in enumerate([emission, np.roll(emission, 4, axis=1)]):
            for t, e in zip(*np.nonzero(weights)):
                # weights of 0 or 1, and one transition at most drives a rate
                assert weights[t, e] == 1.0 and drives[e] is None
                drives[e] = (k, s, float(frequencies[t]))
    return drives


@PROPERTY
@given(coupling_stacks())
def test_cycle_index_is_the_dense_jump_pattern(stack):
    head, couplings, style = stack
    head = replace(head, model=ChainModel.ISING_ZZ, n_spins=2)
    # delta = 0 on one member: its right global bath drives no transition
    couplings += (0.0,)
    baths = lindblad.standard_baths(head, 1.0, 0.0, 0.0, style)
    chain = rates.pauli_chain(head, ((style, couplings),))
    slots = chain.slots
    for c, coupling in enumerate(couplings):
        slot, s = np.divmod(chain.index[c], 2)
        for e, drive in enumerate(_dense_drives(replace(head, coupling_delta=coupling), baths)):
            if drive is None:
                assert slot[e] == len(slots.bath)  # the zero past the table
                continue
            bath, emits, frequency = drive
            assert (slots.bath[slot[e]], s[e]) == (bath, emits)
            # the oracle's levels carry a rounding of order eps h, which its
            # gaps keep: at most 2.2e-14 relative at delta = 0.01 h
            assert slots.frequency[c, slot[e]] == pytest.approx(frequency, rel=1e-13, abs=0)


def _collective(u, v, modes):
    """One group of several modes of one member written on its collective
    modes, in a Python loop over the group: the two baths' lowering vectors
    (n-vectors, zero off the group) on e1 = +-u / |u|, at the group's lowest
    mode index, and e2, at its next, and whether e1 and e2 form a pair."""
    first, second = sorted(modes)[:2]
    length = np.sqrt(np.square(u).sum())
    e1 = u / length if length > 0 else np.zeros(len(u))
    along = (v * e1).sum()
    across = np.sqrt(np.square(v - along * e1).sum())
    left, right = np.zeros(len(u)), np.zeros(len(u))
    left[first] = -length if along < 0 else length
    right[first], right[second] = (
        c if c > lindblad._NEGLIGIBLE_ENTRY else 0.0 for c in (abs(along), across)
    )
    return left, right, bool(right[first] > 0 and right[second] > 0)


def _member_by_member(head, couplings, style):
    """The XY chain step built member by member, as a reference: each
    member's H, as its diagonal and its coupling on the first off-diagonals,
    and both baths of `standard_baths` alone, each bath's
    coordinate on each mode (the sites 0 and n - 1 in the local style, the
    modes xi_k in the global one, each group's modes placed in a Python loop
    and each group of several modes written on its collective modes,
    `_collective`), a slot per bath and mode at the bath's frequency there,
    live where the coordinate is nonzero, and each member's pairs of
    collective modes."""
    n = head.n_spins
    baths = lindblad.standard_baths(head, 1.0, 0.0, 0.0, style)
    members = []
    for coupling in couplings:
        off = np.full(n - 1, coupling)
        hop = head.field_h * np.eye(n) + np.diag(off, 1) + np.diag(off, -1)
        partner = np.arange(n)
        if style is DissipatorStyle.LOCAL:
            lowering = np.array([np.eye(n)[bath.site] for bath in baths])
            energies = [np.full(n, bath.local_frequency) for bath in baths]
            members.append(((np.diag(hop).copy(), hop[0, 1]), energies, lowering, partner))
            continue
        eps, phi = np.linalg.eigh(hop)
        energy = np.abs(eps)
        coefficients = [
            np.where(eps > 0, phi[bath.site], (1.0 if bath.site == 0 else -1.0) * phi[bath.site])
            for bath in baths
        ]
        tol = lindblad._degeneracy_tolerance(np.array([0.5 * energy.sum()]))
        if np.isfinite(tol[0]):
            order = np.argsort(energy, kind="stable")
            order = order[energy[order] > tol]
            labels, means = lindblad._groups(energy[order][None], tol)
            groups = [order[labels[0] == row] for row in range(means.shape[1])]
            means = means[0]
        else:
            groups, means = [np.arange(n)], np.array([np.inf])  # every mode in one group
        diagonal = energy.copy()
        lowering = np.zeros((2, n))
        for row, modes in enumerate(groups):
            diagonal[modes] = means[row]
            vectors = np.zeros((2, n))
            vectors[:, modes] = [coefficient[modes] for coefficient in coefficients]
            if len(modes) > 1:
                left, right, paired = _collective(*vectors, modes)
                vectors = np.array([left, right])
                if paired:
                    first, second = sorted(modes)[:2]
                    partner[first], partner[second] = second, first
            lowering[:, modes] = vectors[:, modes]
        members.append(((diagonal, 0.0), [diagonal, diagonal], lowering, partner))
    frequencies = [
        np.array([np.where(member[2][k] != 0, member[1][k], np.nan) for member in members])
        for k in range(len(baths))
    ]
    slots = lindblad._slots(*frequencies)
    return {
        "diagonal": np.stack([member[0][0] for member in members]),
        "coupling": np.array([member[0][1] for member in members]),
        "frequency": slots.frequency,
        "live": slots.live,
        "bath": slots.bath,
        "lowering": np.stack([member[2] for member in members]),
        "partner": np.stack([member[3] for member in members]),
    }


# delta = 0 (every mode at h), sqrt(2) h on 3 spins and 2 h on 5 (modes at
# +h and -h share one |eps|), 1e-9 h (mode splittings at the grouping
# tolerance), 1e300 and 1.7e308 (the mode-energy sum overflows)
XY_EDGES = (0.0, math.sqrt(2.0), 2.0, 1e-9)
XY_HUGE = (1e300, 1.7e308)


@st.composite
def xy_coupling_stacks(draw):
    """An XY chain of 2 to 6 or 9 spins, the couplings of a stack of chains
    that differ from it in the coupling alone, the edges of the mode
    grouping included, and a dissipator style."""
    n_spins = draw(st.sampled_from([2, 3, 4, 5, 6, 9]))
    h = draw(st.floats(0.5, 2.0))
    ratio = st.one_of(st.floats(0.0, 2.5), st.floats(1e-10, 1e-8))
    deltas = [r * h for r in XY_EDGES + tuple(draw(st.lists(ratio, max_size=8)))] + list(XY_HUGE)
    couplings = tuple(deltas[i] for i in draw(st.permutations(range(len(deltas)))))
    head = SpinChainSpec(n_spins, h, couplings[0], ChainModel.XY_TRANSVERSE)
    return head, couplings, draw(st.sampled_from(DissipatorStyle))


@PROPERTY
@given(xy_coupling_stacks())
def test_stacked_gaussian_chain_is_the_member_by_member_build(stack):
    with np.errstate(over="ignore", invalid="ignore"):
        reference = _member_by_member(*stack)
    head, couplings, style = stack
    chain = gaussian.gaussian_chain(head, ((style, couplings),))
    arrays = {
        "diagonal": chain.diagonal,
        "coupling": chain.coupling,
        "frequency": chain.slots.frequency,
        "live": chain.slots.live,
        "bath": chain.slots.bath,
        "lowering": chain.lowering,
        "partner": chain.partner,
    }
    assert chain.style is stack[2]
    for name, value in reference.items():
        assert arrays[name].shape == value.shape, name
        assert arrays[name].tobytes() == value.tobytes(), name


# 200 spins, global style: delta = h has a zero mode, which neither bath
# reaches, so two of its 400 slots are not live, and none of delta = 0.7 h's
_LONG_CHAIN_STACK = """
from spinheat import gaussian
from spinheat.lindblad import DissipatorStyle
from spinheat.spinops import ChainModel, SpinChainSpec
head = SpinChainSpec(200, 1.0, 0.7, ChainModel.XY_TRANSVERSE)
stack = gaussian.gaussian_chain(head, ((DissipatorStyle.GLOBAL, (0.7, 1.0)),))
assert stack.slots.live.sum(axis=1).tolist() == [400, 398]
assert (stack.partner == range(200)).all()
state = gaussian.steady_state_gaussian(stack, [0, 1], 1.0, [[2.5, 0.0], [2.5, 0.0]])
alone = gaussian.gaussian_chain(head, ((DissipatorStyle.GLOBAL, (1.0,)),))
single = gaussian.steady_state_gaussian(alone, [0], 1.0, [[2.5, 0.0]])
print([name for name, value in vars(single).items()
       if getattr(state, name)[1].tobytes() != value[0].tobytes()])
"""


def test_long_chain_points_are_their_own_one_stacks():
    # one BLAS thread, as the benchmark pins it, splits a product over that
    # many modes in blocks that depend on its length, so a point keeps its
    # bytes only where no such product is taken: the closed form takes each
    # bath's rates on each mode elementwise, as both members hold one mode
    # per group
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    src = Path(gaussian.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _LONG_CHAIN_STACK],
        cwd=src, env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_one_eigh_builds_a_stack_of_xy_chains(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    spec = SpinChainSpec(4, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
    for style, expected in ((DissipatorStyle.GLOBAL, [(4, 4, 4)]), (DissipatorStyle.LOCAL, [])):
        calls.clear()
        gaussian.gaussian_chain(spec, ((style, (0.0, 0.5, 1.3, 2.0)),))
        assert calls == expected, style


@pytest.mark.parametrize("route", ROUTE_SPECS)
@pytest.mark.parametrize("style", DissipatorStyle)
@pytest.mark.parametrize(
    "couplings, message",
    [
        ((), "at least one coupling"),
        ((0.5, np.nan), "finite and nonnegative"),
        ((np.inf,), "finite and nonnegative"),
        ((0.5, -0.1), "finite and nonnegative"),
    ],
    ids=["empty", "nan", "inf", "negative"],
)
def test_chain_step_refuses_a_bad_stack_of_couplings(route, style, couplings, message):
    spec = ROUTE_SPECS[route]
    chain_step, _ = thermo._ROUTES[spec.model]
    with pytest.raises(ValueError, match=message):
        chain_step(spec, ((style, couplings),))


@pytest.mark.parametrize("route", ROUTE_SPECS)
def test_chain_step_refuses_a_stack_of_no_style(route):
    spec = ROUTE_SPECS[route]
    chain_step, _ = thermo._ROUTES[spec.model]
    with pytest.raises(ValueError):
        chain_step(spec, ())


def test_gaussian_chain_step_refuses_two_styles():
    # the Gaussian point step has one closed form per style
    spec = ROUTE_SPECS["gaussian"]
    stack = ((DissipatorStyle.GLOBAL, (0.5,)), (DissipatorStyle.LOCAL, (0.5,)))
    with pytest.raises(ValueError, match="one style"):
        gaussian.gaussian_chain(spec, stack)


@pytest.mark.parametrize("route", ROUTE_SPECS)
@pytest.mark.parametrize("style", DissipatorStyle)
def test_empty_stack_gives_empty_fields(route, style):
    spec = ROUTE_SPECS[route]
    chain_step, point_step = thermo._ROUTES[spec.model]
    chain = chain_step(spec, ((style, (spec.coupling_delta,)),))
    state = _fields(point_step(chain, [], 1.0, np.empty((0, 2))))
    for name, value in state.items():
        assert value.shape[0] == 0, name
    assert state["bath_currents"].shape == (0, 2)
    one = _fields(point_step(chain, [0], 1.0, [[1.0, 0.5]]))
    assert {name: value.shape[1:] for name, value in state.items()} == {
        name: value.shape[1:] for name, value in one.items()
    }


@st.composite
def datasets(draw):
    """A command of one or two grids of different kinds, their x values and
    curves, all on one chain length and field: couplings and styles drawn
    per curve, so curves of both styles and of both grids often share a
    chain stack, and delta_T grids that take a bath below zero for some
    cells."""
    model, n_spins = draw(
        st.sampled_from(
            [(ChainModel.ISING_ZZ, 2), (ChainModel.XY_TRANSVERSE, 2), (ChainModel.XY_TRANSVERSE, 3)]
        )
    )
    h = draw(st.floats(0.5, 2.0))
    kinds = st.sampled_from(["T_L", "delta", "delta_T"])
    kinds = draw(st.lists(kinds, min_size=1, max_size=2, unique=True))
    # delta_T values and means on a lattice as well, so that a bath sits
    # exactly at zero, the edge of the empty cells
    lattice = st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    means = st.sampled_from([0.5, 1.0, 1.5])
    x = {
        "T_L": temperatures,
        "delta": st.floats(0.0, 2.0),
        "delta_T": st.one_of(lattice, st.floats(-4.0, 4.0)),
    }
    grids = []
    for x_name in kinds:
        # repeated x values included: a delta grid keys each distinct coupling once
        xs = np.array(draw(st.lists(x[x_name], min_size=1, max_size=6)))
        curves = []
        for k in range(draw(st.integers(1, 4))):
            coupling = draw(st.one_of(st.sampled_from(EDGES), st.floats(0.01, 2.5))) * h
            fixed = {
                "T_L": {"t_right": draw(temperatures)},
                "delta": {"t_left": draw(temperatures), "t_right": draw(temperatures)},
                "delta_T": {"t_mean": draw(st.one_of(means, st.floats(0.05, 3.0)))},
            }[x_name]
            spec = SpinChainSpec(n_spins, h, coupling, model)
            style = draw(st.sampled_from(DissipatorStyle))
            curves.append(experiments._Curve(f"J_{x_name}_{k}", spec, style, **fixed))
        grids.append(experiments._Grid(x_name, xs, curves))
    return grids


@PROPERTY
@given(datasets(), kappas)
def test_dataset_cells_are_their_own_one_stacks(grids, kappa):
    tables = experiments._columns(kappa, grids)
    assert len(tables) == len(grids)
    for grid, table in zip(grids, tables):
        x_name, xs, curves = grid.x_name, grid.xs, grid.curves
        assert table.shape == (len(xs), len(curves))
        empty = np.isnan(table)
        for (r, x), (c, curve) in itertools.product(enumerate(xs), enumerate(curves)):
            spec = replace(curve.spec, coupling_delta=x) if x_name == "delta" else curve.spec
            if x_name == "T_L":
                t_left, t_right = x, curve.t_right
            elif x_name == "delta":
                t_left, t_right = curve.t_left, curve.t_right
            else:
                t_left, t_right = curve.t_mean + 0.5 * x, curve.t_mean - 0.5 * x
            assert empty[r, c] == (t_left < 0 or t_right < 0)
            if not empty[r, c]:
                alone = thermo.steady_net_current(spec, kappa, t_left, t_right, curve.style)
                assert table[r, c].hex() == alone.hex(), (x_name, r, c)
