"""The cached chain step of `steady_net_current`: agreement, bit-identity, hygiene."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinheat.lindblad as lindblad
from spinheat import experiments, thermo
from spinheat.experiments import run_fig2, run_fig3
from spinheat.lindblad import DissipatorStyle, standard_baths
from spinheat.oracle import assemble_liouvillian, steady_state_nullspace
from spinheat.spinops import ChainModel, SpinChainSpec, build_hamiltonian
from spinheat.thermo import steady_net_current

from test_steady import dense_ising_state

TOL = 1e-10

# derandomized so that every run draws the same examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def chains(draw):
    model, n_spins = draw(
        st.sampled_from(
            [(ChainModel.ISING_ZZ, 2)] + [(ChainModel.XY_TRANSVERSE, n) for n in (2, 3, 4)]
        )
    )
    h = draw(st.floats(0.5, 2.0))
    delta = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
    return SpinChainSpec(n_spins, h, delta, model), draw(st.sampled_from(DissipatorStyle))


kappas = st.floats(0.1, 2.0)
temperatures = st.one_of(st.just(0.0), st.floats(0.05, 5.0))


def _dense_current(spec, kappa, t_left, t_right, style):
    # on the Ising pair, the exact tree-sum state where the oracle's kernel
    # rule is at fault (`dense_ising_state`)
    H = build_hamiltonian(spec)
    L = assemble_liouvillian(H, standard_baths(spec, kappa, t_left, t_right, style))
    solve = dense_ising_state if spec.model is ChainModel.ISING_ZZ else steady_state_nullspace
    return solve(L).bath_currents[0]  # the left bath


def _cold(spec, kappa, t_left, t_right, style):
    thermo._chain.cache_clear()
    return steady_net_current(spec, kappa, t_left, t_right, style)


@PROPERTY
@given(chains(), kappas, temperatures, temperatures)
def test_cached_route_matches_dense_oracle(chain, kappa, t_left, t_right):
    spec, style = chain
    j = steady_net_current(spec, kappa, t_left, t_right, style)
    assert abs(j - _dense_current(spec, kappa, t_left, t_right, style)) <= TOL


@PROPERTY
@given(st.data())
def test_warm_cache_is_bit_identical_to_cold(data):
    # a few chains, several points on each, evaluated in a drawn order
    pool = data.draw(st.lists(chains(), min_size=1, max_size=3))
    point = st.tuples(st.sampled_from(pool), kappas, temperatures, temperatures)
    points = data.draw(st.lists(point, min_size=2, max_size=8))
    cold = [_cold(spec, kappa, tl, tr, style).hex() for (spec, style), kappa, tl, tr in points]
    order = data.draw(st.permutations(range(len(points))))
    thermo._chain.cache_clear()
    for _ in range(2):  # the first pass fills the cache, the second runs warm only
        for i in order:
            (spec, style), kappa, t_left, t_right = points[i]
            assert steady_net_current(spec, kappa, t_left, t_right, style).hex() == cold[i]


def live_counts(frequencies):
    """Each member's transitions in one bath's (C, T) frequencies: the
    slots that are not NaN padding."""
    return np.count_nonzero(~np.isnan(frequencies), axis=1)


def bath_frequencies(slots):
    """The left and the right bath's (C, T) frequencies, each its run of a
    chain step's slots."""
    return [slots.frequency[:, slots.bath == k] for k in (0, 1)]


def _assert_read_only(arrays):
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


@pytest.mark.parametrize("style", DissipatorStyle)
def test_cached_arrays_are_read_only(style):
    # the rate route's chain step, which the cache serves to the Ising pair:
    # each bath's frequencies, two slots of the left bath and one of the
    # right in either style, one live slot per transition (the left bath
    # drives two globally, h + delta and h - delta, every other bath one; a
    # local member's second left slot is padding), each cycle rate's entry
    # in a point's flat rate table, and the energy each bath's edges carry
    spec = SpinChainSpec(2, 1.0, 0.7, ChainModel.ISING_ZZ)
    steady_net_current(spec, 1.0, 2.0, 0.0, style)
    chain = thermo._chain(spec, ((style, (spec.coupling_delta,)),))
    transitions = {DissipatorStyle.GLOBAL: [2, 1], DissipatorStyle.LOCAL: [1, 1]}[style]
    slots = chain.slots
    assert chain.index.shape == (1, 8)
    # every entry is a live slot's (emission, absorption) pair or the zero past them
    slot = chain.index // 2
    assert ((0 <= chain.index) & (chain.index <= 6)).all()
    assert np.append(slots.live[0], True)[slot].all()
    assert [freqs.shape for freqs in bath_frequencies(slots)] == [(1, 2), (1, 1)]
    assert [live_counts(freqs).tolist() for freqs in bath_frequencies(slots)] == [
        [t] for t in transitions
    ]
    _assert_read_only([chain.carried, chain.index, slots.frequency, slots.live, slots.bath])


@pytest.mark.parametrize("style", DissipatorStyle)
def test_cached_gaussian_arrays_are_read_only(style):
    spec = SpinChainSpec(3, 1.0, 0.7, ChainModel.XY_TRANSVERSE)
    steady_net_current(spec, 1.0, 2.0, 0.0, style)
    chain = thermo._chain(spec, ((style, (spec.coupling_delta,)),))
    slots = chain.slots
    arrays = [
        chain.diagonal,
        chain.coupling,
        chain.lowering,
        chain.partner,
        slots.frequency,
        slots.live,
        slots.bath,
    ]
    # H as its diagonal and its coupling on the first off-diagonals, each
    # bath's coordinate on each mode, and one slot per bath and mode
    assert chain.diagonal.shape == (1, 3) and chain.coupling.shape == (1,)
    assert chain.lowering.shape == (1, 2, 3)
    assert slots.frequency.shape == slots.live.shape == (1, 6)
    # |eps| = 1 + 0.7 sqrt(2), 1 and 0.7 sqrt(2) - 1 stand apart: no pair
    assert chain.partner.tolist() == [[0, 1, 2]]
    assert chain.style is style
    _assert_read_only(arrays)


@pytest.mark.parametrize("style", DissipatorStyle)
def test_long_gaussian_chain_step_holds_no_dense_matrix(style):
    # 800 spins: H as its diagonal and coupling, not a dense n x n matrix
    # of 5.12 MB, and O(n) bytes for everything else
    spec = SpinChainSpec(800, 1.0, 0.7, ChainModel.XY_TRANSVERSE)
    chain = thermo._chain(spec, ((style, (spec.coupling_delta,)),))
    slots = chain.slots
    arrays = [chain.diagonal, chain.coupling, chain.lowering, chain.partner]
    arrays += [slots.frequency, slots.live, slots.bath]
    assert sum(array.nbytes for array in arrays) < 64 * 1024


def test_other_coupling_and_other_style_miss_the_cache():
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
    thermo._chain.cache_clear()
    steady_net_current(spec, 1.0, 2.0, 0.0, DissipatorStyle.GLOBAL)
    steady_net_current(spec, 1.0, 3.0, 0.5, DissipatorStyle.GLOBAL)
    assert (thermo._chain.cache_info().hits, thermo._chain.cache_info().misses) == (1, 1)
    steady_net_current(replace(spec, coupling_delta=0.6), 1.0, 2.0, 0.0, DissipatorStyle.GLOBAL)
    steady_net_current(spec, 1.0, 2.0, 0.0, DissipatorStyle.LOCAL)
    assert (thermo._chain.cache_info().hits, thermo._chain.cache_info().misses) == (1, 3)


@pytest.mark.parametrize("style", DissipatorStyle)
def test_kappa_and_temperatures_are_never_cached(style):
    spec = SpinChainSpec(3, 1.0, 0.7, ChainModel.XY_TRANSVERSE)
    points = [(0.5, 2.0, 0.0), (2.0, 2.0, 0.0), (2.0, 0.3, 1.5), (0.5, 0.0, 0.0)]
    cold = [_cold(spec, kappa, t_left, t_right, style) for kappa, t_left, t_right in points]
    thermo._chain.cache_clear()
    warm = [steady_net_current(spec, *point, style) for point in points]
    assert thermo._chain.cache_info().misses == 1
    assert warm == cold
    assert len(set(warm)) == len(warm)


def test_bound_holds_the_chains_fig2_interleaves():
    # fig2's four curves: three couplings in the global style, the weakest locally
    curves = [
        (SpinChainSpec(2, 1.0, delta, ChainModel.ISING_ZZ), DissipatorStyle.GLOBAL)
        for delta in (0.01, 0.1, 0.5)
    ]
    curves.append((curves[0][0], DissipatorStyle.LOCAL))
    thermo._chain.cache_clear()
    for t_left in (0.5, 1.0, 2.0):
        for spec, style in curves:
            steady_net_current(spec, 1.0, t_left, 0.0, style)
    assert thermo._chain.cache_info().misses == len(curves)


def _counted_steps(monkeypatch, model):
    """The stack of every chain step, each style's couplings, and the point
    counts of every point step the route of `model` takes from now on."""
    chain_step, point_step = thermo._ROUTES[model]
    stacks, points = [], []

    def counted_chain_step(head, stack):
        stacks.append(stack)
        return chain_step(head, stack)

    def counted_point_step(chain, member, kappa, temperatures):
        points.append(len(member))
        return point_step(chain, member, kappa, temperatures)

    monkeypatch.setitem(thermo._ROUTES, model, (counted_chain_step, counted_point_step))
    thermo._chain.cache_clear()
    return stacks, points


def test_fig3_builds_each_coupling_once(tmp_path, monkeypatch):
    # both panels and the inset share one pass: one chain step over the
    # panels' 100 couplings and the inset's one, and one point step over
    # the panels' 600 cells and the inset's 152 cells with both baths at or
    # above zero
    stacks, points = _counted_steps(monkeypatch, ChainModel.ISING_ZZ)
    run_fig3(1.0, tmp_path, jobs=1)
    thermo._chain.cache_clear()
    assert [[style for style, _ in stack] for stack in stacks] == [[DissipatorStyle.GLOBAL]]
    ((_, couplings),) = stacks[0]
    assert len(couplings) == len(set(couplings)) == 101
    assert points == [752]


def test_fig2_takes_one_chain_step_for_both_styles(tmp_path, monkeypatch):
    # the rate route lays both styles on one slot layout: the three
    # couplings in the global style and the weakest in the local style are
    # one chain stack of 4 members, and all 804 cells one point step
    stacks, points = _counted_steps(monkeypatch, ChainModel.ISING_ZZ)
    run_fig2(1.0, tmp_path, jobs=1)
    thermo._chain.cache_clear()
    assert stacks == [
        ((DissipatorStyle.GLOBAL, (0.01, 0.1, 0.5)), (DissipatorStyle.LOCAL, (0.01,)))
    ]
    assert points == [4 * 201]


def test_warm_figures_pass_takes_one_step_per_group_and_builds_no_member_chain(
    tmp_path, monkeypatch
):
    # a warm fig2 + fig3 pass: one group each, each one call of
    # `_net_currents` and one cache hit keyed by coupling values; the only
    # chains built are the three fig2 and the one fig3 writes down
    thermo._chain.cache_clear()
    run_fig2(1.0, tmp_path, jobs=1)
    run_fig3(1.0, tmp_path, jobs=1)
    calls, built = [], []
    net_currents = experiments._net_currents
    post_init = SpinChainSpec.__post_init__

    def counted_net_currents(*args):
        calls.append(args)
        return net_currents(*args)

    def counted_post_init(spec):
        built.append(spec)
        post_init(spec)

    monkeypatch.setattr(experiments, "_net_currents", counted_net_currents)
    monkeypatch.setattr(SpinChainSpec, "__post_init__", counted_post_init)
    misses = thermo._chain.cache_info().misses
    run_fig2(1.0, tmp_path, jobs=1)
    run_fig3(1.0, tmp_path, jobs=1)
    monkeypatch.undo()
    assert len(calls) == 2
    assert thermo._chain.cache_info().misses == misses
    assert len(built) == 4


def test_dense_oracle_bypasses_the_cache():
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
    thermo._chain.cache_clear()
    _dense_current(spec, 1.0, 2.0, 0.0, DissipatorStyle.GLOBAL)
    assert thermo._chain.cache_info().currsize == 0


def test_warm_chain_takes_replaced_rate_law(monkeypatch):
    # the point step looks `thermal_rates` up at call time
    spec = SpinChainSpec(3, 1.0, 0.7, ChainModel.XY_TRANSVERSE)
    style = DissipatorStyle.GLOBAL
    steady_net_current(spec, 1.0, 2.0, 0.3, style)  # warm the chain
    original = lindblad.thermal_rates

    def extra_absorption(kappa, temperature, frequency):
        emission, absorption = original(kappa, temperature, frequency)
        return emission, absorption + 0.2 * frequency

    monkeypatch.setattr(lindblad, "thermal_rates", extra_absorption)
    j_warm = steady_net_current(spec, 1.0, 2.0, 0.3, style)
    j_dense = _dense_current(spec, 1.0, 2.0, 0.3, style)
    monkeypatch.undo()
    assert abs(j_warm - j_dense) <= TOL
    assert abs(j_warm - steady_net_current(spec, 1.0, 2.0, 0.3, style)) > 1e-3


# a chain per route; each takes two baths
ROUTE_SPECS = {
    "pauli": SpinChainSpec(2, 1.0, 0.7, ChainModel.ISING_ZZ),
    "gaussian": SpinChainSpec(3, 1.0, 0.7, ChainModel.XY_TRANSVERSE),
}


def _point_step(route):
    """The route's point step on the cached chain of its `ROUTE_SPECS` entry,
    after a check that it takes an admissible point."""
    spec = ROUTE_SPECS[route]
    _, point_step = thermo._ROUTES[spec.model]
    chain = thermo._chain(spec, ((DissipatorStyle.LOCAL, (spec.coupling_delta,)),))
    point_step(chain, [0], 1.0, [[2.0, 0.0]])
    return lambda kappa, temperatures: point_step(
        chain, np.zeros(len(temperatures), dtype=int), kappa, temperatures
    )


@pytest.mark.parametrize("route", ROUTE_SPECS)
def test_point_step_refuses_temperatures_of_another_shape(route):
    # the one mismatch a point step can still be handed: its temperatures
    # must be (P, 2), a left and a right bath's for each of the P points
    step = _point_step(route)
    for temperatures in [
        [[2.0, 0.0, 1.0]],  # three baths where the chain has two
        [[2.0]],
        [2.0, 0.0],  # no point axis
    ]:
        with pytest.raises(ValueError, match="shape"):
            step(1.0, temperatures)


@pytest.mark.parametrize("route", ROUTE_SPECS)
@pytest.mark.parametrize(
    "kappa, temperatures, message",
    [
        (0.0, [[2.0, 0.0], [2.0, 0.0]], "kappa must be finite and positive"),
        (np.nan, [[2.0, 0.0], [2.0, 0.0]], "kappa must be finite and positive"),
        (1.0, [[2.0, 0.0], [2.0, -0.5]], "temperature must be finite and nonnegative"),
        (1.0, [[2.0, 0.0], [np.inf, 0.0]], "temperature must be finite and nonnegative"),
    ],
    ids=["zero-kappa", "nan-kappa", "negative-temperature", "inf-temperature"],
)
def test_point_step_refuses_what_the_rate_law_is_not_defined_for(
    route, kappa, temperatures, message
):
    with pytest.raises(ValueError, match=message):
        _point_step(route)(kappa, temperatures)


@pytest.mark.parametrize("route", ROUTE_SPECS)
def test_point_step_refuses_members_off_the_chain_stack(route):
    # a point names its chain by its index in the stack: one index per
    # point, and only indices of the stack's chains
    spec = ROUTE_SPECS[route]
    _, point_step = thermo._ROUTES[spec.model]
    chain = thermo._chain(spec, ((DissipatorStyle.LOCAL, (spec.coupling_delta,)),))
    for member, message in [([0, 0], "shape"), ([1], "member indices"), ([-1], "member indices")]:
        with pytest.raises(ValueError, match=message):
            point_step(chain, member, 1.0, [[2.0, 0.0]])
