"""The stacked steps: a member of a stack is its own 1-stack call, bit for bit.

Both transport routes take a stack of chains that differ in the coupling
in one chain step, and P points on its members in one point step.
Stacking must never change a member: not its chain, its state, its
diagnostics or its currents, and not which solver a member takes.  A
member that fails is named by its index, and the dataset runner names its
curve and x.
"""

import math
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinheat.lindblad as lindblad
from spinheat import gaussian, rates, thermo
from spinheat.cli import main
from spinheat.lindblad import DissipatorStyle
from spinheat.spinops import ChainModel, SpinChainSpec
from spinheat.steady import SteadyStateError

from test_chain_cache import PROPERTY, ROUTE_SPECS, chains, kappas, live_counts, temperatures
from test_steady import assert_kernel_projection

# a degenerate kernel on the rate route: the right local bath of the Ising
# pair has frequency zero, so at T_R = 0 it drives nothing
ISING = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
DEGENERATE_POINT = (1.0, 1.0, 0.0)
# an exceptional point of X on the Gaussian route (see `gaussian`)
EXCEPTIONAL = SpinChainSpec(2, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
EXCEPTIONAL_POINT = (1.0, 1.0 / math.log(2.0), 0.0)


def _step(spec, style):
    """The route's point step on (kappa, t_left, t_right) points of the cached chain."""
    _, point_step = thermo._ROUTES[spec.model]
    chain = thermo._chain((spec,), style)

    def step(points):
        points = np.array(points, dtype=float)
        return point_step(chain, [0] * len(points), points[:, 0], points[:, 1:])

    return step


def _fields(state):
    return {name: np.asarray(value) for name, value in vars(state).items()}


def _assert_members_are_their_own_calls(spec, style, points):
    step = _step(spec, style)
    stacked = _fields(step(points))
    for p, point in enumerate(points):
        alone = _fields(step([point]))
        for name, value in stacked.items():
            assert value.shape[0] == len(points)
            assert value[p].tobytes() == alone[name][0].tobytes(), (name, p)
    return stacked


points = st.tuples(kappas, temperatures, temperatures)


@PROPERTY
@given(chains(), st.lists(points, min_size=1, max_size=6), st.integers(0, 6))
def test_members_are_bit_identical_to_one_stacks(chain, drawn, position):
    spec, style = chain
    # every Ising stack holds a degenerate kernel, every XY stack the
    # exceptional point's temperatures
    extra = DEGENERATE_POINT if spec.model is ChainModel.ISING_ZZ else EXCEPTIONAL_POINT
    drawn.insert(min(position, len(drawn)), extra)
    _assert_members_are_their_own_calls(spec, style, drawn)


def test_degenerate_kernel_inside_a_stack():
    style = DissipatorStyle.LOCAL
    stack = [(1.0, 2.0, 0.5), DEGENERATE_POINT, (0.7, 0.3, 1.5), (1.0, 0.0, 0.0)]
    state = _assert_members_are_their_own_calls(ISING, style, stack)
    assert list(state["kernel_dim"]) == [1, 2, 1, 2]


def test_fig2_local_column_projects_each_member_as_its_own_stack(monkeypatch):
    # fig2's phenomenological column, T_R = 0: the kernel rule receives
    # every point, each with a two-dimensional kernel
    calls = []
    kernel_vector = rates._kernel_vector

    def recorded(matrices, mixed):
        calls.append((matrices, mixed))
        return kernel_vector(matrices, mixed)

    monkeypatch.setattr(rates, "_kernel_vector", recorded)
    grid = np.concatenate([[0.0], np.logspace(-2, 2, 200)])
    step = _step(replace(ISING, coupling_delta=0.01), DissipatorStyle.LOCAL)
    step([(1.0, t_left, 0.0) for t_left in grid])
    [(matrices, mixed)] = calls
    assert len(matrices) == len(grid)
    assert (assert_kernel_projection(matrices, mixed) == 2).all()


def test_exceptional_point_alone_takes_the_kronecker_solve(monkeypatch):
    calls = []
    kronecker = gaussian._lyapunov_kronecker

    def counted(x, source):
        calls.append(x.copy())
        return kronecker(x, source)

    monkeypatch.setattr(gaussian, "_lyapunov_kronecker", counted)
    style = DissipatorStyle.LOCAL
    stack = [(1.0, 0.5, 0.0), EXCEPTIONAL_POINT, (1.0, 2.0, 0.0)]
    state = _assert_members_are_their_own_calls(EXCEPTIONAL, style, stack)
    # once in the stack and once in its own 1-stack; the neighbours never
    assert len(calls) == 2
    assert np.array_equal(calls[0], calls[1])
    assert state["bath_currents"][1, 0] == pytest.approx(0.0625, abs=1e-9)


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
    stack = [(1.0, 0.5, 0.2), (1.0, 1.0, 0.2), (1.0, 0.75, 0.2), (1.0, 2.0, 0.2)]
    with pytest.raises(SteadyStateError, match=message) as excinfo:
        _step(spec, style)(stack)
    assert excinfo.value.member == 2


def test_failing_point_of_the_kernel_rule_is_named_by_its_index(monkeypatch):
    # the points the tree sum does not answer go to the kernel rule as one
    # sub-stack: the degenerate point first, then a point whose rates all
    # vanish, which the rule refuses under its index in the whole stack
    original = lindblad.thermal_rates

    def rate_law(kappa, temperature, frequency):
        emission, absorption = original(kappa, temperature, frequency)
        dead = np.asarray(temperature) == 0.75
        return np.where(dead, 0.0, emission), np.where(dead, 0.0, absorption)

    monkeypatch.setattr(lindblad, "thermal_rates", rate_law)
    stack = [(1.0, 2.0, 0.5), DEGENERATE_POINT, (1.0, 0.75, 0.75), (1.0, 0.3, 0.2)]
    with pytest.raises(SteadyStateError, match="identically zero") as excinfo:
        _step(ISING, DissipatorStyle.LOCAL)(stack)
    assert excinfo.value.member == 2


@pytest.mark.parametrize("spec", [ISING, EXCEPTIONAL], ids=["pauli", "gaussian"])
def test_failing_point_on_a_chain_stack_is_named_by_its_index(monkeypatch, spec):
    # the failing point sits on the second chain of the stack, after points
    # of both chains; the Gaussian route solves each chain's points apart
    _failing_at(monkeypatch, 0.75)
    chain_step, point_step = thermo._ROUTES[spec.model]
    specs = [spec, SpinChainSpec(spec.n_spins, 1.0, 0.3, spec.model)]
    chain = chain_step(specs, lindblad.standard_baths(spec, 1.0, 0.0, 0.0, DissipatorStyle.GLOBAL))
    temperatures = [[0.5, 0.2], [1.0, 0.2], [2.0, 0.2], [0.75, 0.2]]
    with pytest.raises(SteadyStateError) as excinfo:
        point_step(chain, [1, 0, 1, 1], [1.0] * 4, temperatures)
    assert excinfo.value.member == 3


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


# points whose rates or flows overflow, global style, T_R = 0: the currents
# of the XY chain (inf) and of the Ising pair (NaN), the Ising pair's
# generator, on which the SVD does not converge, and the XY chain's X, which
# the eigendecomposition refuses
OVERFLOWS = {
    "xy-delta": (SpinChainSpec(3, 1.0, 1e200, ChainModel.XY_TRANSVERSE), 1.0, "not finite"),
    "ising-delta": (SpinChainSpec(2, 1.0, 1e200, ChainModel.ISING_ZZ), 1.0, "not finite"),
    "ising-max-delta": (SpinChainSpec(2, 1.0, 1e308, ChainModel.ISING_ZZ), 1.0, "non-finite"),
    "ising-max-t-left": (ISING, 1e308, "non-finite"),
    "xy-max-t-left": (SpinChainSpec(3, 1.0, 0.5, ChainModel.XY_TRANSVERSE), 1e308, "non-finite"),
}


@pytest.mark.parametrize("spec, t_left, message", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_point_that_overflows_is_refused(spec, t_left, message):
    with pytest.raises(SteadyStateError, match=message) as excinfo:
        thermo.steady_net_current(spec, 1.0, t_left, 0.0, DissipatorStyle.GLOBAL)
    assert excinfo.value.member == 0


@pytest.mark.parametrize("spec, t_left, message", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_point_that_overflows_is_named_by_its_index_in_a_stack(spec, t_left, message):
    chain_step, point_step = thermo._ROUTES[spec.model]
    specs = [replace(spec, coupling_delta=0.5), spec]
    chain = chain_step(specs, lindblad.standard_baths(spec, 1.0, 0.0, 0.0, DissipatorStyle.GLOBAL))
    temperatures = [[1.0, 0.0], [1.0, 0.0], [t_left, 0.0], [2.0, 0.0]]
    with pytest.raises(SteadyStateError, match=message) as excinfo:
        point_step(chain, [0, 0, 1, 0], [1.0] * 4, temperatures)
    assert excinfo.value.member == 2


@pytest.mark.parametrize(
    "config, named",
    [
        (
            "model = xy\nspins = 3\nsweep = coupling\nstart = 0\nstop = 1e300\n"
            "t_left = 1.0\nt_right = 0.0\n",
            "J_global at delta = 5e+299: ",
        ),
        (
            "model = ising\ndelta = 0.5\nsweep = temperature\nstart = 0\nstop = 1e308\n"
            "t_right = 0.0\n",
            "J_global at T_L = 1e+308: ",
        ),
    ],
    ids=["xy-coupling", "ising-temperature"],
)
def test_sweep_that_overflows_names_its_point(tmp_path, capsys, config, named):
    path = tmp_path / "sweep.cfg"
    path.write_text(config + "points = 3\n")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["sweep", "--config", str(path), "--out", str(out), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("solver error: " + named)
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
    """A stack of distinct chains that differ in the coupling alone, edges
    included, and a dissipator style."""
    model, n_spins = draw(
        st.sampled_from(
            [(ChainModel.ISING_ZZ, 2), (ChainModel.XY_TRANSVERSE, 2), (ChainModel.XY_TRANSVERSE, 3)]
        )
    )
    h = draw(st.floats(0.5, 2.0))
    ratio = st.one_of(st.sampled_from(EDGES), st.floats(0.01, 2.5))
    ratios = draw(st.lists(ratio, min_size=1, max_size=5, unique=True))
    specs = tuple(SpinChainSpec(n_spins, h, r * h, model) for r in ratios)
    return specs, draw(st.sampled_from(DissipatorStyle))


def _member_arrays(chain, c):
    """Member c of a chain stack, each bath's arrays cut to its transitions,
    and the padding past them."""
    arrays, padding = {}, []
    counts = [live_counts(freqs) for freqs in chain.frequencies]
    for field in fields(chain):
        value = getattr(chain, field.name)
        if isinstance(value, tuple):  # one array per bath
            for k, (bath, n) in enumerate(zip(value, counts)):
                arrays[field.name, k] = bath[c, : n[c]]
                padding.append((field.name, bath[c, n[c] :]))
        else:
            arrays[field.name] = value[c]
    return arrays, padding


@PROPERTY
@given(coupling_stacks(), st.data())
def test_chain_stack_members_are_their_own_chains(stack, data):
    specs, style = stack
    chain_step, point_step = thermo._ROUTES[specs[0].model]
    baths = lindblad.standard_baths(specs[0], 1.0, 0.0, 0.0, style)
    chain = chain_step(specs, baths)
    alone = [chain_step([spec], baths) for spec in specs]
    for c, single in enumerate(alone):
        assert [live_counts(f)[c] for f in chain.frequencies] == [
            live_counts(f)[0] for f in single.frequencies
        ]
        arrays, padding = _member_arrays(chain, c)
        for name, value in _member_arrays(single, 0)[0].items():
            assert arrays[name].tobytes() == value.tobytes(), (name, c)
        for name, value in padding:
            if name == "frequencies":
                assert np.isnan(value).all()
            else:
                assert not value.any(), name

    # points on drawn members, and a degenerate kernel on one of them: the
    # Ising pair's right local bath at frequency zero and T_R = 0
    point = st.tuples(st.integers(0, len(specs) - 1), kappas, temperatures, temperatures)
    drawn = data.draw(st.lists(point, min_size=1, max_size=8))
    drawn.append((data.draw(st.integers(0, len(specs) - 1)), *DEGENERATE_POINT))
    member = [p[0] for p in drawn]
    kappa = [p[1] for p in drawn]
    temps = [p[2:] for p in drawn]
    seen = []
    rate_law = lindblad.thermal_rates

    def recorded(kappa, temperature, frequency):
        seen.extend(np.ravel(frequency).tolist())
        return rate_law(kappa, temperature, frequency)

    with mock.patch.object(lindblad, "thermal_rates", recorded):
        stacked = _fields(point_step(chain, member, kappa, temps))
    # no padding slot reaches the rate law
    assert len(seen) == sum(live_counts(f)[m] for f in chain.frequencies for m in member)
    assert not np.isnan(seen).any()
    for p, (m, *rest) in enumerate(drawn):
        own = _fields(point_step(alone[m], [0], [rest[0]], [rest[1:]]))
        for name, value in stacked.items():
            assert value[p].tobytes() == own[name][0].tobytes(), (name, p)


@pytest.mark.parametrize("route", ROUTE_SPECS)
@pytest.mark.parametrize("style", DissipatorStyle)
def test_empty_stack_gives_empty_fields(route, style):
    spec = ROUTE_SPECS[route]
    chain_step, point_step = thermo._ROUTES[spec.model]
    chain = chain_step([spec], lindblad.standard_baths(spec, 1.0, 0.0, 0.0, style))
    state = _fields(point_step(chain, [], np.empty(0), np.empty((0, 2))))
    for name, value in state.items():
        assert value.shape[0] == 0, name
    assert state["bath_currents"].shape == (0, 2)
    one = _fields(point_step(chain, [0], [1.0], [[1.0, 0.5]]))
    assert {name: value.shape[1:] for name, value in state.items()} == {
        name: value.shape[1:] for name, value in one.items()
    }
