"""The stacked point steps: a member of a stack is its own 1-stack call, bit for bit.

Both transport routes solve P points of one chain in one call.  Stacking
must never change a member: not its state, its diagnostics or its
currents, and not which solver a member takes.  A member that fails is
named by its index, and the dataset runner names its curve and x.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinheat.lindblad as lindblad
from spinheat import gaussian, thermo
from spinheat.cli import main
from spinheat.lindblad import DissipatorStyle
from spinheat.spinops import ChainModel, SpinChainSpec
from spinheat.steady import SteadyStateError

from test_chain_cache import PROPERTY, chains, kappas, temperatures

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
    chain = thermo._chain(spec, style)

    def step(points):
        points = np.array(points, dtype=float)
        return point_step(chain, points[:, 0], points[:, 1:])

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
        if temperature == t_left:
            return 1.0, -0.5
        return original(kappa, temperature, frequency)

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
