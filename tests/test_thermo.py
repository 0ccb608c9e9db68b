import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinheat import rates, thermo
from spinheat.lindblad import DissipatorStyle, standard_baths
from spinheat.oracle import (
    assemble_liouvillian,
    current_from_cycle,
    steady_state_nullspace,
    steady_state_rate_equations,
    unvectorize,
    vectorize,
)
from spinheat.spinops import ChainModel, SpinChainSpec, build_hamiltonian
from spinheat.steady import SteadyStateError
from spinheat.thermo import rectification, steady_net_current

from test_chain_cache import PROPERTY, kappas, temperatures

# both baths above zero temperature, where -J_k / T_k is finite
warm = st.floats(0.05, 5.0)
# zero, and log-uniform over 1e-3..1e300
wide = st.one_of(st.just(0.0), st.floats(-3.0, 300.0).map(lambda x: 10.0**x))

ISING = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
XY2 = SpinChainSpec(2, 1.0, 0.5, ChainModel.XY_TRANSVERSE)


ISING_PAIR = [(ChainModel.ISING_ZZ, 2)]
XY_CHAINS = [(ChainModel.XY_TRANSVERSE, n) for n in range(2, 7)]


@st.composite
def transport_specs(draw, chains):
    """A chain of `chains`: the Ising pair (rate route) or XY chains (Gaussian route)."""
    model, n_spins = draw(st.sampled_from(chains))
    h = draw(st.floats(0.5, 2.0))
    delta = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
    return SpinChainSpec(n_spins, h, delta, model)


@st.composite
def pair_gradients(draw, right=temperatures):
    """The Ising pair where it carries current: global style, 0 < delta < h,
    T_L > 0 and T_R != T_L, with T_R drawn from `right`."""
    h = draw(st.floats(0.5, 2.0))
    delta = draw(st.floats(0.05, 0.95)) * h
    t_left = draw(st.floats(0.2, 5.0))
    t_right = draw(right.filter(lambda t: abs(t - t_left) >= 0.05))
    return SpinChainSpec(2, h, delta, ChainModel.ISING_ZZ), t_left, t_right


def assert_entropy_production_is_nonnegative(spec, style, kappa, points):
    """Spohn's inequality at each point of one stacked point step: the baths'
    entropy grows at -sum_k J_k / T_k >= 0, up to rounding of the currents.
    `points` holds (t_left, t_right) with both temperatures positive."""
    _, point_step = thermo._ROUTES[spec.model]
    temperatures = np.array(points)
    chain = thermo._chain(spec, ((style, (spec.coupling_delta,)),))
    state = point_step(chain, [0] * len(points), kappa, temperatures)
    for temps, flows in zip(temperatures, state.bath_currents):
        production = -sum(flows / temps)
        floor = 1e-12 * kappa * spec.field_h**2
        assert production >= -floor / min(temps)


def steady_currents(spec, t_left, t_right, style, kappa=1.0):
    """The dense oracle's (left, right) bath currents, in `standard_baths` order."""
    H = build_hamiltonian(spec)
    L = assemble_liouvillian(H, standard_baths(spec, kappa, t_left, t_right, style))
    return steady_state_nullspace(L).bath_currents


class TestHeatCurrents:
    def test_equilibrium_current_vanishes(self):
        j_left, _ = steady_currents(ISING, 1.0, 1.0, DissipatorStyle.GLOBAL)
        assert abs(j_left) < 1e-10

    def test_saturation_current_value(self):
        j_left, _ = steady_currents(ISING, 1e4, 0.0, DissipatorStyle.GLOBAL)
        assert j_left == pytest.approx(0.125, abs=1e-4)

    def test_cold_left_bath_insulates(self):
        j_left, _ = steady_currents(ISING, 0.0, 10.0, DissipatorStyle.GLOBAL)
        assert abs(j_left) < 1e-10

    @pytest.mark.parametrize(
        "spec,style",
        [
            (ISING, DissipatorStyle.GLOBAL),
            (ISING, DissipatorStyle.LOCAL),
            (XY2, DissipatorStyle.GLOBAL),
            (XY2, DissipatorStyle.LOCAL),
            (SpinChainSpec(3, 1.0, 1.0, ChainModel.XY_TRANSVERSE), DissipatorStyle.GLOBAL),
        ],
    )
    def test_steady_state_balance(self, spec, style):
        j_left, j_right = steady_currents(spec, 2.0, 0.7, style)
        assert abs(j_left + j_right) < 1e-9

    def test_out_of_equilibrium_balance_is_energy_growth(self):
        # away from the steady state the two input rates add up to the rate
        # of change of the mean energy instead of cancelling
        rng = np.random.default_rng(13)
        H = build_hamiltonian(ISING)
        L = assemble_liouvillian(
            H, standard_baths(ISING, 1.0, 2.0, 0.5, DissipatorStyle.GLOBAL)
        )
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        drho = unvectorize(L.matrix @ vectorize(rho), 4)
        energy_rate = np.real(np.trace(drho @ H.matrix))
        assert sum(L.bath_currents(rho)) == pytest.approx(energy_rate, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        H = build_hamiltonian(ISING)
        L = assemble_liouvillian(
            H, standard_baths(ISING, 1.0, 1.0, 0.5, DissipatorStyle.GLOBAL)
        )
        with pytest.raises(ValueError):
            L.bath_currents(np.eye(3, dtype=complex) / 3)

    def test_clausius_sign(self):
        temperatures = (0.0, 0.5, 1.0, 2.0, 5.0)
        for t_left in temperatures:
            for t_right in temperatures:
                if t_left <= t_right:
                    continue
                j = steady_net_current(ISING, 1.0, t_left, t_right, DissipatorStyle.GLOBAL)
                assert j >= -1e-12

    @pytest.mark.parametrize("chains", [ISING_PAIR, XY_CHAINS], ids=["pauli", "gaussian"])
    @PROPERTY
    @given(
        data=st.data(),
        style=st.sampled_from(DissipatorStyle),
        kappa=kappas,
        t_left=temperatures,
        t_right=temperatures,
    )
    def test_clausius_sign_over_random_specs(self, chains, data, style, kappa, t_left, t_right):
        # heat never flows from the colder into the hotter bath
        spec = data.draw(transport_specs(chains))
        j = steady_net_current(spec, kappa, t_left, t_right, style)
        assert j * (t_left - t_right) >= -1e-12 * kappa * spec.field_h**2

    @pytest.mark.parametrize("chains", [ISING_PAIR, XY_CHAINS], ids=["pauli", "gaussian"])
    @PROPERTY
    @given(
        data=st.data(),
        style=st.sampled_from(DissipatorStyle),
        kappa=kappas,
        t_left=temperatures,
        t_right=temperatures,
    )
    def test_transport_routes_balance_energy(self, chains, data, style, kappa, t_left, t_right):
        # in the steady state the baths' inputs cancel on both transport routes
        spec = data.draw(transport_specs(chains))
        _, point_step = thermo._ROUTES[spec.model]
        chain = thermo._chain(spec, ((style, (spec.coupling_delta,)),))
        currents = point_step(chain, [0], kappa, [[t_left, t_right]]).bath_currents[0]
        assert len(currents) == 2
        assert abs(sum(currents)) <= 1e-10 * kappa * spec.field_h**2

    @PROPERTY
    @given(pair_gradients(), kappas)
    def test_clausius_sign_in_the_pair_gradient_regime(self, point, kappa):
        spec, t_left, t_right = point
        j = steady_net_current(spec, kappa, t_left, t_right, DissipatorStyle.GLOBAL)
        assert j * (t_left - t_right) >= -1e-12 * kappa * spec.field_h**2

    @PROPERTY
    @given(
        style=st.sampled_from(DissipatorStyle),
        h=st.floats(0.5, 2.0),
        log_delta=st.floats(-8.0, 10.0),
        kappa=kappas,
        points=st.lists(st.tuples(wide, wide), min_size=1, max_size=6),
    )
    @example(style=DissipatorStyle.LOCAL, h=1.0, log_delta=-0.5, kappa=1.0, points=[(1e300, 0.0)])
    def test_pair_over_the_double_range_is_exact_or_refused(
        self, style, h, log_delta, kappa, points
    ):
        # every point of a stack is either refused under its index, as it is
        # alone, or keeps the Clausius sign and balances its baths to 4 eps
        spec = SpinChainSpec(2, h, 10.0**log_delta, ChainModel.ISING_ZZ)
        chain = thermo._chain(spec, ((style, (spec.coupling_delta,)),))

        def step(stack):
            return rates.steady_state_pauli(chain, [0] * len(stack), kappa, stack)

        currents = np.empty((0, 2))
        while points:
            try:
                currents = step(points).bath_currents
                break
            except SteadyStateError as err:
                with pytest.raises(SteadyStateError):
                    step([points[err.member]])
                del points[err.member]
        for (t_left, t_right), (j_left, j_right) in zip(points, currents):
            assert j_left * (t_left - t_right) >= 0
            assert abs(j_left + j_right) <= 4 * np.finfo(float).eps * abs(j_left)

    @pytest.mark.parametrize("chains", [ISING_PAIR, XY_CHAINS], ids=["pauli", "gaussian"])
    @PROPERTY
    @given(
        data=st.data(),
        style=st.sampled_from(DissipatorStyle),
        kappa=kappas,
        points=st.lists(st.tuples(warm, warm), min_size=1, max_size=4),
    )
    def test_entropy_production_is_nonnegative(self, chains, data, style, kappa, points):
        spec = data.draw(transport_specs(chains))
        assert_entropy_production_is_nonnegative(spec, style, kappa, points)

    @PROPERTY
    @given(pair_gradients(right=warm), kappas)
    def test_entropy_production_in_the_pair_gradient_regime(self, point, kappa):
        spec, t_left, t_right = point
        assert_entropy_production_is_nonnegative(
            spec, DissipatorStyle.GLOBAL, kappa, [(t_left, t_right)]
        )

    def test_saturation_bound(self):
        bound = 0.5 * 0.5**2  # kappa * delta^2 / 2
        for t_left in (0.5, 1.0, 5.0, 50.0, 1e4):
            j = steady_net_current(ISING, 1.0, t_left, 0.0, DissipatorStyle.GLOBAL)
            assert j <= bound + 1e-9


class TestCurrentFromCycle:
    def test_asymptotic_pair(self):
        assert current_from_cycle(0.5, -0.125) == pytest.approx(0.125)

    def test_zero_cycle(self):
        assert current_from_cycle(0.7, 0.0) == 0.0

    def test_matches_liouvillian_route(self):
        j_direct = steady_net_current(ISING, 1.0, 2.0, 1.0, DissipatorStyle.GLOBAL)
        _, rates = steady_state_rate_equations(1.0, 0.5, 1.0, 2.0, 1.0)
        assert abs(j_direct - current_from_cycle(0.5, rates.cycle_gamma)) < 1e-9

    def test_route_equivalence_on_grid(self):
        for t_left in (0.0, 1.0, 3.0):
            for t_right in (0.0, 0.5, 2.0):
                j_direct = steady_net_current(
                    ISING, 1.0, t_left, t_right, DissipatorStyle.GLOBAL
                )
                _, rates = steady_state_rate_equations(1.0, 0.5, 1.0, t_left, t_right)
                assert abs(j_direct - current_from_cycle(0.5, rates.cycle_gamma)) < 1e-9

    @PROPERTY
    @given(st.floats(0.5, 2.0), st.floats(0.01, 0.99), kappas, temperatures, temperatures)
    def test_route_equivalence_over_random_specs(self, h, ratio, kappa, t_left, t_right):
        # the rate route against the hand-written four-level cycle
        delta = ratio * h
        spec = SpinChainSpec(2, h, delta, ChainModel.ISING_ZZ)
        j_direct = steady_net_current(spec, kappa, t_left, t_right, DissipatorStyle.GLOBAL)
        _, rates = steady_state_rate_equations(h, delta, kappa, t_left, t_right)
        assert abs(j_direct - current_from_cycle(delta, rates.cycle_gamma)) <= 1e-9

    @PROPERTY
    @given(pair_gradients(), kappas)
    def test_route_equivalence_in_the_gradient_regime(self, point, kappa):
        spec, t_left, t_right = point
        delta = spec.coupling_delta
        j_direct = steady_net_current(spec, kappa, t_left, t_right, DissipatorStyle.GLOBAL)
        _, rates = steady_state_rate_equations(spec.field_h, delta, kappa, t_left, t_right)
        assert abs(j_direct - current_from_cycle(delta, rates.cycle_gamma)) <= 1e-9


class TestPhenomenologicalNullCurrent:
    def test_current_vanishes_on_grid(self):
        for t_left in (0.0, 1.0, 5.0):
            for t_right in (0.0, 0.5, 2.0):
                for delta in (0.1, 0.9):
                    spec = SpinChainSpec(2, 1.0, delta, ChainModel.ISING_ZZ)
                    j = steady_net_current(spec, 1.0, t_left, t_right, DissipatorStyle.LOCAL)
                    assert abs(j) < 1e-10


class TestRectification:
    def test_optimal_for_zero_cold_bath(self):
        report = rectification(ISING, 1.0, 10.0, 0.0, DissipatorStyle.GLOBAL)
        assert abs(report.j_reverse) < 1e-12
        assert report.j_forward > 1e-3
        assert report.contrast == pytest.approx(1.0, abs=1e-9)

    def test_cold_left_bath_gives_exactly_zero_reverse_current(self):
        # at T_L = 0 nothing lifts the left spin, so the levels with it up
        # stay empty and the left bath exchanges no energy at all
        nonzero = []
        for ratio in [k / 20 for k in range(1, 20)]:
            spec = SpinChainSpec(2, 1.0, ratio, ChainModel.ISING_ZZ)
            for kappa in (0.1, 0.5, 1.0, 2.0):
                for t_hot in (0.5, 1.0, 3.0, 10.0, 50.0):
                    report = rectification(spec, kappa, t_hot, 0.0, DissipatorStyle.GLOBAL)
                    if report.j_reverse != 0.0:
                        nonzero.append((ratio, kappa, t_hot, report.j_reverse))
        assert nonzero == []

    def test_local_treatment_shows_no_transport(self):
        report = rectification(ISING, 1.0, 10.0, 0.0, DissipatorStyle.LOCAL)
        assert report.j_forward == pytest.approx(0.0, abs=1e-10)
        assert report.j_reverse == pytest.approx(0.0, abs=1e-10)
        assert report.contrast == 0.0

    def test_symmetric_chain_without_gradient(self):
        report = rectification(XY2, 1.0, 1.0, 1.0, DissipatorStyle.GLOBAL)
        assert report.j_forward == pytest.approx(0.0, abs=1e-10)
        assert report.j_reverse == pytest.approx(0.0, abs=1e-10)
        assert report.contrast == 0.0

    def test_contrast_bounds(self):
        report = rectification(ISING, 1.0, 2.0, 0.5, DissipatorStyle.GLOBAL)
        assert -1.0 <= report.contrast <= 1.0

    def test_rejects_inverted_gradient(self):
        with pytest.raises(ValueError):
            rectification(ISING, 1.0, 0.5, 2.0, DissipatorStyle.GLOBAL)


# (kappa, t_left, t_right) points the rate law is not defined for, by id
BAD_INPUTS = {
    "nan-TL": ((1.0, np.nan, 0.0), "temperature must be finite and nonnegative"),
    "inf-TL": ((1.0, np.inf, 0.0), "temperature must be finite and nonnegative"),
    "negative-TR": ((1.0, 2.0, -0.5), "temperature must be finite and nonnegative"),
    "nan-TR": ((1.0, 2.0, np.nan), "temperature must be finite and nonnegative"),
    "zero-kappa": ((0.0, 2.0, 0.5), "kappa must be finite and positive"),
    "negative-kappa": ((-1.0, 2.0, 0.5), "kappa must be finite and positive"),
    "nan-kappa": ((np.nan, 2.0, 0.5), "kappa must be finite and positive"),
    "inf-kappa": ((np.inf, 2.0, 0.5), "kappa must be finite and positive"),
}
# a NaN or negative temperature already fails rectification's t_hot >= t_cold >= 0
RECTIFICATION_INPUTS = {
    name: case for name, case in BAD_INPUTS.items() if case[0][1] >= case[0][2] >= 0
}


@pytest.mark.parametrize("spec", [ISING, XY2], ids=["pauli", "gaussian"])
@pytest.mark.parametrize("style", DissipatorStyle)
class TestInadmissibleInput:
    """The transport routes refuse a kappa or a temperature the rate law is
    not defined for, with the messages of `BathSpec`."""

    @pytest.mark.parametrize("case", BAD_INPUTS.values(), ids=BAD_INPUTS)
    def test_steady_net_current_refuses(self, spec, style, case):
        (kappa, t_left, t_right), message = case
        with pytest.raises(ValueError, match=message):
            steady_net_current(spec, kappa, t_left, t_right, style)

    @pytest.mark.parametrize("case", RECTIFICATION_INPUTS.values(), ids=RECTIFICATION_INPUTS)
    def test_rectification_refuses(self, spec, style, case):
        (kappa, t_hot, t_cold), message = case
        with pytest.raises(ValueError, match=message):
            rectification(spec, kappa, t_hot, t_cold, style)
