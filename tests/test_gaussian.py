"""The Gaussian (one-body correlation matrix) route of the XY chain against the
dense oracle, closed forms and the Majorana covariance equation."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import spinheat.lindblad as lindblad
from spinheat import thermo
from spinheat.gaussian import GaussianChain, gaussian_chain, steady_state_gaussian
from spinheat.lindblad import (
    DEGENERACY_TOL,
    DissipatorStyle,
    bose_einstein,
    global_transitions,
    standard_baths,
)
from spinheat.oracle import assemble_liouvillian, steady_state_nullspace
from spinheat.rates import PauliChain
from spinheat.spinops import (
    PAULI_X,
    ChainModel,
    SpinChainSpec,
    build_hamiltonian,
    embed_matrix,
    spectral_decompose,
)
from spinheat.steady import KERNEL_RTOL, SteadyStateError

import test_transport_routes as transport_routes
from test_chain_cache import PROPERTY, _dense_current, bath_frequencies, kappas, temperatures
from test_thermo import wide

GLOBAL, LOCAL = DissipatorStyle.GLOBAL, DissipatorStyle.LOCAL
ROOT2 = math.sqrt(2.0)

# (n_spins, delta / h, style, t_left, t_right), with h = 1.3 and kappa = 0.7
CASES = (
    # delta = 0: the middle sites are undamped, so X is singular
    [(n, 0.0, style, tl, tr) for n in (3, 4) for style in (GLOBAL, LOCAL)
     for tl, tr in ((2.0, 0.0), (0.5, 1.5))]
    # delta = h: an eps = 0 mode with no jump operator (n = 5)
    + [(n, 1.0, style, tl, tr) for n in (2, 5) for style in (GLOBAL, LOCAL)
       for tl, tr in ((2.0, 0.0), (0.3, 3.0))]
    # |eps| collisions of opposite sign: one jump operator mixes eta_k and
    # eta_k'^dag, and the right bath's eta^dag part carries a minus sign
    + [(n, ratio, style, tl, tr) for n, ratio in ((3, ROOT2), (4, 2.0), (5, 2.0))
       for style in (GLOBAL, LOCAL) for tl, tr in ((2.0, 0.0), (1.0, 0.4), (0.0, 2.5))]
    # a collision whose two lowering vectors are neither parallel nor
    # orthogonal (cos = 0.6): a pair of collective modes
    + [(5, 2.0 / math.sqrt(3.0), GLOBAL, 2.0, 0.0)]
    # generic couplings, a split far below every rate, and equal temperatures
    + [(n, ratio, style, 1.5, 0.2) for n in (2, 3, 4, 5) for ratio in (1e-6, 0.3, 0.7)
       for style in (GLOBAL, LOCAL)]
    + [(n, 0.7, style, 1.0, 1.0) for n in (2, 5) for style in (GLOBAL, LOCAL)]
    # a collision missed by 2.5e-9 h (see the grouping test below)
    + [(3, ROOT2 + 2.5e-9 / ROOT2, GLOBAL, 2.0, 0.0)]
    # six spins, past the dense oracle's reach
    + [(6, ratio, GLOBAL, tl, tr) for ratio in (0.0, 1.0, 2.0)
       for tl, tr in ((2.0, 0.0), (0.4, 3.0))]
    + [(6, 1.0, LOCAL, 2.0, 0.0), (6, 2.0, LOCAL, 1.0, 0.4), (6, 0.0, LOCAL, 0.5, 1.5)]
)
H_FIELD, KAPPA = 1.3, 0.7

# Below this coupling, as a fraction of h, the middle modes of a local chain
# of three or more spins are damped, at order delta^2 / kappa, below
# KERNEL_RTOL of the largest rate.  A reference that solves with that
# relative cut (the dense kernel rule, least squares) drops them and reads
# the wrong sign: -8.04e-13 against the exact +8.23e-13 at delta = 1e-6 h.
# The local current does not depend on the length of the chain, so such a
# case takes its reference from the 2-spin chain, which has no middle modes.
WEAK_LOCAL = 1e-3


def _case_id(case):
    n, ratio, style, t_left, t_right = case
    return f"xy{n}-{style.value}-d{ratio:.10g}h-TL{t_left}-TR{t_right}"


def _weak_local(case):
    n, ratio, style = case[:3]
    return style is LOCAL and n >= 3 and 0.0 < ratio < WEAK_LOCAL


def _spec(n, ratio):
    return SpinChainSpec(n, H_FIELD, ratio * H_FIELD, ChainModel.XY_TRANSVERSE)


def _hopping(n, ratio, h=H_FIELD):
    return h * np.eye(n) + ratio * h * (np.eye(n, k=1) + np.eye(n, k=-1))


def _distinct_modes(n, ratio):
    """Whether the nonzero |eps_k| of the hopping matrix are pairwise distinct."""
    energies = np.sort(np.abs(np.linalg.eigvalsh(_hopping(n, ratio))))
    energies = energies[energies > 1e-8 * H_FIELD]
    return bool(np.all(np.diff(energies) > 1e-8 * H_FIELD))


@functools.lru_cache(maxsize=None)
def _dense_currents(case):
    n, ratio, style, t_left, t_right = case
    spec = _spec(n, ratio)
    baths = standard_baths(spec, KAPPA, t_left, t_right, style)
    dense = assemble_liouvillian(build_hamiltonian(spec), baths)
    return steady_state_nullspace(dense).bath_currents


def _mode_sum_currents(case, h=H_FIELD, kappa=KAPPA):
    """The global style's currents where the nonzero |eps_k| are pairwise
    distinct: each mode is a two-level system between the two baths, with
    a_k = phi_k(0) and b_k = phi_k(n-1) its couplings, and the left bath
    feeds in sum_k kappa eps_k^2 a_k^2 [n_L - p_k (1 + 2 n_L)] at the
    occupation p_k = (a_k^2 n_L + b_k^2 n_R) / (a_k^2 (1 + 2 n_L) + b_k^2 (1 + 2 n_R)).
    A zero mode has no jump operator and carries nothing."""
    n, ratio, _, t_left, t_right = case
    eps, phi = np.linalg.eigh(_hopping(n, ratio, h))
    j = 0.0
    for energy, a, b in zip(np.abs(eps), phi[0], phi[-1]):
        if energy <= 1e-8 * h:
            continue
        n_left, n_right = bose_einstein(energy, t_left), bose_einstein(energy, t_right)
        p = (a * a * n_left + b * b * n_right) / (
            a * a * (1.0 + 2.0 * n_left) + b * b * (1.0 + 2.0 * n_right)
        )
        j += kappa * energy**2 * a * a * (n_left - p * (1.0 + 2.0 * n_left))
    return j, -j


def _closed_form_currents(case):
    """Each case's bath currents by a closed form, or None where none applies."""
    n, ratio, style, t_left, t_right = case
    if ratio == 0.0:
        return 0.0, 0.0  # decoupled spins
    if style is LOCAL and ratio >= 1e-3:
        # the local current does not depend on the length of the chain;
        # far below that coupling the middle modes' damping, of order
        # delta^2 / kappa, falls under KERNEL_RTOL of the largest rate and
        # the kernel rule, not the model, sets the current
        return _dense_currents((2, ratio, style, t_left, t_right))
    if style is GLOBAL and _distinct_modes(n, ratio):
        return _mode_sum_currents(case)
    return None


def _oracle_currents(case):
    """Each case's bath currents from a route that shares no code with the
    Gaussian one: the dense generator up to four spins, a closed form past
    that, and the dense generator at five spins where no closed form
    applies.  A six-spin dense point would need a 4096 x 4096 SVD.  A weak
    local coupling takes the 2-spin dense generator (`WEAK_LOCAL`)."""
    if _weak_local(case):
        return _dense_currents((2, *case[1:]))
    closed = _closed_form_currents(case)
    if case[0] <= 4 or closed is None:
        return _dense_currents(case)
    return closed


def _assert_matches_oracle(case):
    """The route's state of one case, checked against the oracle."""
    n, ratio, style, t_left, t_right = case
    spec = _spec(n, ratio)
    chain = gaussian_chain(spec, ((style, (spec.coupling_delta,)),))
    state = steady_state_gaussian(chain, [0], KAPPA, [[t_left, t_right]])
    exact = _oracle_currents(case)
    assert state.bath_currents.shape == (1, len(exact)) == (1, 2)
    for got, want in zip(state.bath_currents[0], exact):
        assert abs(got - want) <= max(1e-10 * abs(want), 1e-12 * KAPPA)
    assert np.max(np.abs(np.linalg.eigvalsh(2.0 * state.covariance[0]))) <= 1.0 + 1e-10
    assert state.residual[0] <= 1e-10
    return chain, state


def _jumps(chain):
    """The jumps of a 1-stack chain step as (bath, frequency, lowering
    vector l): one per bath and group of modes, L = sum_k l_k a_k over the
    modes of one frequency that the bath reaches, so that a pair of
    collective modes keeps its off-diagonal g_R b c."""
    jumps = []
    for bath, frequency in enumerate(bath_frequencies(chain.slots)):
        for nu in np.unique(frequency[0][~np.isnan(frequency[0])]):
            jumps.append((bath, nu, np.where(frequency[0] == nu, chain.lowering[0, bath], 0.0)))
    return jumps


def _lyapunov_equation(chain, temperatures, kappa=KAPPA):
    """X = i H - Q / 2 and S of one point on a 1-stack chain, from each
    jump's rates and outer product l l^T written out one by one."""
    q = s = 0.0
    for bath, frequency, lowering in _jumps(chain):
        emission, absorption = lindblad.thermal_rates(kappa, temperatures[bath], frequency)
        outer = np.outer(lowering, lowering)
        q = q + (emission + absorption) * outer
        s = s + 0.5 * (emission - absorption) * outer
    off = np.full(chain.diagonal.shape[1] - 1, chain.coupling[0])
    hamiltonian = np.diag(chain.diagonal[0]) + np.diag(off, 1) + np.diag(off, -1)
    return 1j * hamiltonian - 0.5 * q, s


def _kronecker_solve(x, source):
    """K as the minimum-norm least-squares solution of
    (X kron I + I kron X^*) vec K = vec S, with no code of the route."""
    eye = np.eye(len(x))
    operator = np.kron(x, eye) + np.kron(eye, x.conj())
    k = np.linalg.lstsq(operator, source.reshape(-1).astype(complex), rcond=KERNEL_RTOL)[0]
    k = k.reshape(x.shape)
    return 0.5 * (k + k.conj().T)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_gaussian_route_matches_oracle(case):
    _assert_matches_oracle(case)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_kronecker_solve_matches_oracle(case):
    # the route's K, in its own closed form, is the Kronecker least-squares
    # solution of its own equation X K + K X^dag = S, undamped modes
    # included, except where least squares cuts a weak local chain's middle
    # modes (WEAK_LOCAL), which the oracle comparison covers alone
    chain, state = _assert_matches_oracle(case)
    if not _weak_local(case):
        x, source = _lyapunov_equation(chain, case[3:])
        assert np.max(np.abs(state.covariance[0] - _kronecker_solve(x, source))) <= 1e-12


@pytest.mark.parametrize(
    "case", transport_routes._grid(ChainModel.XY_TRANSVERSE), ids=transport_routes._case_id
)
def test_gaussian_route_matches_dense_oracle_on_the_seeded_grid(case):
    # the XY share of the seeded grid of tests/test_transport_routes.py
    dense_state, state = transport_routes._both_routes(*case)
    transport_routes._assert_same_currents(state, dense_state)
    assert abs(sum(state.bath_currents)) <= transport_routes.TOL


@pytest.mark.parametrize("n_spins", [*range(2, 7), 50, 200])
def test_local_xy_current_is_length_independent(n_spins):
    spec = SpinChainSpec(n_spins, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
    j = thermo.steady_net_current(spec, 1.0, 2.0, 0.0, LOCAL)
    assert round(j, 6) == 0.150076


@pytest.mark.parametrize("ratio", [1e7, 1e8, 3e8, 7e8])
def test_strong_coupling_global_current_is_the_mode_sum(ratio):
    # three spins at h = kappa = 1, T_L = 2, T_R = 0: only the |eps| = h mode,
    # phi = (1, 0, -1) / sqrt(2), is warm enough to carry, so the mode sum
    # reads n_L / (4 (1 + n_L)) = exp(-1/2) / 4 at every delta.  Every group
    # holds one mode, and the closed form gives each cold mode an exact zero.
    # Only the grouping stops it: from delta = 7.07e8 on the |eps| = h mode
    # falls under the tolerance DEGENERACY_TOL * sum|eps_k| / 2 and counts as
    # a zero mode
    spec = SpinChainSpec(3, 1.0, ratio, ChainModel.XY_TRANSVERSE)
    exact = _mode_sum_currents((3, ratio, GLOBAL, 2.0, 0.0), h=1.0, kappa=1.0)
    assert exact[0] == pytest.approx(math.exp(-0.5) / 4.0, rel=1e-7)
    chain = gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))
    currents = steady_state_gaussian(chain, [0], 1.0, [[2.0, 0.0]]).bath_currents[0]
    for got, want in zip(currents, exact):
        assert abs(got - want) <= 1e-7 * abs(want)
    assert thermo.steady_net_current(spec, 1.0, 2.0, 0.0, GLOBAL) == currents[0]


def _one_mode_groups(spec):
    """Whether every nonzero |eps_k| of a chain stands alone: each differs
    from the next by more than the grouping tolerance."""
    hop = _hopping(spec.n_spins, spec.coupling_delta / spec.field_h, spec.field_h)
    energy = np.sort(np.abs(np.linalg.eigvalsh(hop)))
    tol = DEGENERACY_TOL * 0.5 * energy.sum()
    return bool(np.all(np.diff(energy[energy > tol]) > tol))


@PROPERTY
@given(
    n=st.integers(2, 8),
    h=st.floats(0.5, 2.0),
    delta=st.floats(-3.0, 8.0).map(lambda exponent: 10.0**exponent),
    kappa=kappas,
    points=st.lists(st.tuples(temperatures, temperatures), min_size=1, max_size=6),
)
@example(n=3, h=1.0, delta=3e8, kappa=1.0, points=[(2.0, 0.0)])
def test_one_mode_groups_keep_the_clausius_sign_over_the_coupling_range(
    n, h, delta, kappa, points
):
    # every point of a global chain whose groups hold one mode each keeps
    # the Clausius sign and balances its two baths to 4 eps, from delta =
    # 1e-3 to 1e8.  The example is where a cold mode's K = -1/2, solved with
    # a rounding of 1e-16, would carry about kappa delta^2 1e-16 = 4 into
    # one bath alone
    spec = SpinChainSpec(n, h, delta, ChainModel.XY_TRANSVERSE)
    if not _one_mode_groups(spec):
        return
    chain = gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))
    stack = steady_state_gaussian(chain, [0] * len(points), kappa, points)
    for (t_left, t_right), (j_left, j_right) in zip(points, stack.bath_currents):
        assert j_left * (t_left - t_right) >= 0
        assert abs(j_left + j_right) <= 4 * np.finfo(float).eps * abs(j_left)
    assert chain.partner.tolist() == [list(range(n))]


@pytest.mark.parametrize("style", DissipatorStyle)
def test_current_per_kappa_holds_down_to_the_bottom_of_the_double_range(style):
    # n = 3, h = 1, delta = 0.5, T_L = 2, T_R = 0.  Global J is linear in
    # kappa: the mode sum.  Local J / kappa is e^(-1/2) / 2 times
    # 1 / (1 + g_L g_R / 4 delta^2), with g of order kappa, which stays
    # within 1e-13 of 1 from kappa = 1e-7 down.  Without the power-of-two
    # scaling the one-mode form's products of two rates underflowed and J
    # read 0 from kappa of about 1e-162 on; the local eigenvector route cut
    # damped mode pairs as undamped and read -0.098 at kappa = 1e-9 and -0.5
    # from 1e-10 on
    spec = SpinChainSpec(3, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
    if style is GLOBAL:
        exact = _mode_sum_currents((3, 0.5, GLOBAL, 2.0, 0.0), h=1.0, kappa=1.0)[0]
        exponents = range(0, -301, -10)
    else:
        exact = math.exp(-0.5) / 2.0
        exponents = [-7, -8, -9, -10, *range(-20, -301, -10)]
    chain = gaussian_chain(spec, ((style, (spec.coupling_delta,)),))
    for exponent in exponents:
        kappa = 10.0**exponent
        currents = steady_state_gaussian(chain, [0], kappa, [[2.0, 0.0]]).bath_currents[0]
        assert currents[0] / kappa == pytest.approx(exact, rel=1e-12, abs=0), exponent
        assert currents[1] == -currents[0]


def _exact_or_refused(step, points):
    """The (P, 2) bath currents of a stack of points, NaN on each point the
    stack refuses, which must be refused alone as well."""
    currents = np.full((len(points), 2), np.nan)
    live = list(range(len(points)))
    while live:
        try:
            currents[live] = step([points[p] for p in live])
            break
        except SteadyStateError as err:
            refused = live.pop(err.member)
            with pytest.raises(SteadyStateError):
                step([points[refused]])
    return currents


@PROPERTY
@given(
    h=st.floats(0.5, 2.0),
    delta=st.floats(-8.0, 10.0).map(lambda exponent: 10.0**exponent),
    kappa=st.floats(-12.0, 2.0).map(lambda exponent: 10.0**exponent),
    points=st.lists(st.tuples(wide, wide), min_size=1, max_size=6),
)
# the local cases of F3: weak coupling, where the eigenvector route read
# -1.1997e-11 at n = 3 and 4; weak kappa, where it read -0.5 kappa; strong
# coupling, where it read 0.765 at n = 3 against the 2-spin chain's
# 0.3032653; and delta far below kappa h, where the 2-spin chain's
# absolute error of 1e-16 kappa moved J / delta^2 by a factor 5.8
@example(h=1.0, delta=1e-5, kappa=1.0, points=[(2.0, 0.5)])
@example(h=1.0, delta=0.5, kappa=1e-10, points=[(2.0, 0.0)])
@example(h=1.0, delta=1e8, kappa=1.0, points=[(2.0, 0.0)])
@example(h=1.0, delta=1e-8, kappa=1.0, points=[(2.0, 0.5), (0.0, 1.0)])
def test_local_chain_over_the_double_range_is_exact_or_refused(h, delta, kappa, points):
    # every point on the local chain of 2 to 8 spins is either refused, as
    # it is alone, or keeps the Clausius sign, balances its baths exactly
    # and reads the same bits at every length.  Where delta <= 1e-7 kappa h,
    # g_L g_R / 4 delta^2 >= 2.5e13 (g >= kappa h), J is kappa-weak: J /
    # delta^2 at delta and at delta / 1024 agree to 1e-12
    weak = delta / 1024.0
    lengths = []
    for n in range(2, 9):
        spec = SpinChainSpec(n, h, delta, ChainModel.XY_TRANSVERSE)
        chain = gaussian_chain(spec, ((LOCAL, (delta, weak)),))

        def step(stack, member):
            return steady_state_gaussian(chain, [member] * len(stack), kappa, stack).bath_currents

        lengths.append([_exact_or_refused(lambda stack: step(stack, m), points) for m in (0, 1)])
    for currents in lengths[1:]:
        assert [c.tobytes() for c in currents] == [c.tobytes() for c in lengths[0]]
    at_delta, at_weak = lengths[0]
    for (t_left, t_right), (j_left, j_right) in zip(points, at_delta):
        if np.isnan(j_left):
            continue
        assert j_left * (t_left - t_right) >= 0
        assert j_right == -j_left
    if delta <= 1e-7 * kappa * h:
        for j, j_weak in zip(at_delta[:, 0], at_weak[:, 0]):
            if not np.isnan(j):
                assert abs(j / delta**2 - j_weak / weak**2) <= 1e-12 * abs(j / delta**2)


def _collisions(max_spins=8):
    """Every |eps| collision of the uniform chain of 2 to `max_spins` spins,
    as (n, delta / h): the mode at theta_k = pi k / (n + 1) above zero meets
    the mode at theta_j below zero where delta = -h / (cos theta_k + cos theta_j).
    Mirror parity makes the two baths' lowering vectors on the group
    parallel where k + j is odd, and independent where it is even."""
    cases = []
    for n in range(2, max_spins + 1):
        cosines = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        for k, j in itertools.combinations(range(n), 2):
            if cosines[k] + cosines[j] < -1e-12:
                cases.append((n, float(-1.0 / (cosines[k] + cosines[j]))))
    return cases


COLLISIONS = _collisions()
# the members of the F3 table: J / kappa (left, right) at h = 1, T_L = 2, T_R
# = 0, kappa <= 1e-10, where the eigenvector solve read (-1.5, -1.5),
# (-2.5, -2.5), (-1.1667, -1.1667), (-1.5, -1.5) and (-0.5, -0.5), both
# baths negative
WEAK_KAPPA_MEMBERS = [
    (3, ROOT2, 1e-10), (5, 2.0, 1e-10), (5, 2.0 / math.sqrt(3.0), 1e-10), (7, ROOT2, 1e-10),
    (4, 0.0, 1e-12),
]


@PROPERTY
@given(
    member=st.one_of(
        st.tuples(st.integers(2, 8), st.floats(-8.0, 8.0).map(lambda exponent: 10.0**exponent)),
        st.sampled_from([(n, 0.0) for n in range(2, 9)] + COLLISIONS),
    ),
    h=st.floats(0.5, 2.0),
    kappa=st.floats(-12.0, 2.0).map(lambda exponent: 10.0**exponent),
    points=st.lists(st.tuples(wide, wide), min_size=1, max_size=6),
)
@example(member=(3, ROOT2), h=1.0, kappa=1e-10, points=[(2.0, 0.0)])
@example(member=(5, 2.0), h=1.0, kappa=1e-10, points=[(2.0, 0.0)])
@example(member=(5, 2.0 / math.sqrt(3.0)), h=1.0, kappa=1e-10, points=[(2.0, 0.0)])
@example(member=(7, ROOT2), h=1.0, kappa=1e-10, points=[(2.0, 0.0)])
@example(member=(4, 0.0), h=1.0, kappa=1e-12, points=[(2.0, 0.0)])
def test_global_chain_over_the_double_range_is_exact_or_refused(member, h, kappa, points):
    # every point on a global chain of 2 to 8 spins, one-mode members,
    # collisions and delta = 0 included, is either refused, as it is alone,
    # or keeps the Clausius sign and balances its baths.  Drawn delta is a
    # multiple of h; a collision or zero is the ratio delta / h.  The
    # examples are the members of the F3 table (WEAK_KAPPA_MEMBERS)
    n, delta = member
    if (n, delta) in COLLISIONS or delta == 0.0:
        delta *= h
    spec = SpinChainSpec(n, h, delta, ChainModel.XY_TRANSVERSE)
    chain = gaussian_chain(spec, ((GLOBAL, (delta,)),))

    def step(stack):
        return steady_state_gaussian(chain, [0] * len(stack), kappa, stack).bath_currents

    for (t_left, t_right), (j_left, j_right) in zip(points, _exact_or_refused(step, points)):
        if np.isnan(j_left):
            continue
        # signs, as J times a temperature of 1e300 can overflow
        assert np.sign(j_left) * np.sign(t_left - t_right) >= 0
        assert abs(j_left + j_right) <= 4 * np.finfo(float).eps * abs(j_left)


@pytest.mark.parametrize("n, ratio, kappa", WEAK_KAPPA_MEMBERS)
def test_weak_kappa_members_keep_their_current_per_kappa(n, ratio, kappa):
    # J / kappa of each F3 member is its value at kappa = 1 (0.47847,
    # 0.59082, 0.32954, 0.36269 and 0) down to kappa = 1e-300
    spec = SpinChainSpec(n, 1.0, ratio, ChainModel.XY_TRANSVERSE)
    chain = gaussian_chain(spec, ((GLOBAL, (ratio,)),))
    want = steady_state_gaussian(chain, [0], 1.0, [[2.0, 0.0]]).bath_currents[0]
    for weak in (1e-8, kappa, 1e-300):
        currents = steady_state_gaussian(chain, [0], weak, [[2.0, 0.0]]).bath_currents[0]
        assert currents[1] == -currents[0]
        np.testing.assert_allclose(currents / weak, want, rtol=1e-12, atol=0)


def test_near_collision_balances_its_baths():
    # three spins at delta = sqrt(2) h + 1e-11 h: the modes at -h - 1.4e-11 h
    # and h share one group, which drops their splitting, far below the
    # grouping tolerance, and is one collective mode.  The eigenvector
    # solve kept the splitting and read J / kappa = (0.47847035, -0.47847045)
    # at kappa = 1e-8, missing the energy balance by 1e-7
    spec = SpinChainSpec(3, 1.0, ROOT2 + 1e-11, ChainModel.XY_TRANSVERSE)
    chain = gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))
    currents = steady_state_gaussian(chain, [0], 1e-8, [[2.0, 0.0]]).bath_currents[0]
    assert currents[1] == -currents[0]
    assert currents[0] / 1e-8 == pytest.approx(0.4784704, abs=1e-7)


def _mode_groups(n, ratio):
    """The global style's modes, written out with no code of the route:
    (eps, phi) of `eigh`, the groups of modes of one |eps|, each anchored
    on its first, and each mode's energy, its group's mean |eps| (|eps| on
    a zero mode)."""
    eps, phi = np.linalg.eigh(_hopping(n, ratio))
    tol = DEGENERACY_TOL * 0.5 * np.abs(eps).sum()
    groups = []
    for k in np.argsort(np.abs(eps), kind="stable"):
        if abs(eps[k]) <= tol:
            continue
        if groups and abs(eps[k]) - abs(eps[groups[-1][0]]) <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    energy = np.abs(eps)
    for group in groups:
        energy[group] = np.mean(energy[group])
    return eps, phi, groups, energy


def _mode_covariance(n, ratio, t_left, t_right, kappa):
    """The global style's lowering vectors (one row per slot, the left
    bath's groups and then the right bath's) and K in the modes xi_k of
    `_mode_groups`, by minimum-norm Kronecker least squares of
    X K + K X^dag = S, with no code of the route."""
    eps, phi, groups, energy = _mode_groups(n, ratio)
    rows, q, s = [], 0.0, 0.0
    for site, sign, temperature in ((0, 1.0, t_left), (n - 1, -1.0, t_right)):
        for group in groups:
            l = np.zeros(n)
            for k in group:
                l[k] = phi[site, k] * (1.0 if eps[k] > 0 else sign)
            emission, absorption = lindblad.thermal_rates(kappa, temperature, energy[group[0]])
            q = q + (emission + absorption) * np.outer(l, l)
            s = s + 0.5 * (emission - absorption) * np.outer(l, l)
            rows.append(l)
    x = 1j * np.diag(energy) - 0.5 * q
    eye = np.eye(n)
    operator = np.kron(x, eye) + np.kron(eye, x.conj())
    k = np.linalg.lstsq(operator, s.reshape(-1).astype(complex), rcond=1e-9)[0].reshape(n, n)
    return np.array(rows), 0.5 * (k + k.conj().T)


@pytest.mark.parametrize(
    "n, ratio",
    COLLISIONS + [(n, 0.0) for n in range(2, 9)],
    ids=lambda value: f"{value:.6g}",
)
def test_collective_modes_match_the_kronecker_references(n, ratio):
    # the route's K is written on each group's collective modes, an
    # orthogonal change of basis within the group, so it is checked by what
    # does not depend on it: its spectrum, and L K L^T over the jumps'
    # lowering vectors; the currents against the Majorana covariance.  Least
    # squares loses about eps h / kappa
    spec = _spec(n, ratio)
    chain = gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))
    lowering = np.array([jump[2] for jump in _jumps(chain)])
    points = zip((1e-6, 1e-3, 1.0, 10.0), itertools.cycle([(2.0, 0.0), (0.5, 1.5)]))
    for kappa, (t_left, t_right) in points:
        bound = 1e-14 * max(1.0, H_FIELD / kappa)
        state = steady_state_gaussian(chain, [0], kappa, [[t_left, t_right]])
        k = state.covariance[0]
        rows, reference = _mode_covariance(n, ratio, t_left, t_right, kappa)
        seen = lowering @ k @ lowering.T
        assert np.abs(seen - rows @ reference @ rows.T).max() <= bound
        spectra = [np.linalg.eigvalsh(m) for m in (k, reference)]
        assert np.abs(spectra[0] - spectra[1]).max() <= bound
        want = _majorana_currents(n, ratio, GLOBAL, t_left, t_right, kappa)
        for got, expected in zip(state.bath_currents[0], want):
            assert abs(got - expected) <= 10.0 * bound * kappa * H_FIELD


def test_two_hundred_spin_global_currents_are_the_mode_sum():
    # a chain far past the dense oracle, kept out of CASES
    case = (200, 1.0, GLOBAL, 2.5, 0.0)
    spec = SpinChainSpec(200, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
    chain = gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))
    state = steady_state_gaussian(chain, [0], 1.0, [[2.5, 0.0]])
    for got, want in zip(state.bath_currents[0], _mode_sum_currents(case, h=1.0, kappa=1.0)):
        assert abs(got - want) <= 1e-12


def _majorana_currents(n, ratio, style, t_left, t_right, kappa=KAPPA):
    """The bath currents from the 2n x 2n Majorana covariance, written out
    with no code of the route.

    With w_2i = c_i + c_i^dag and w_2i+1 = i (c_i^dag - c_i), H is
    (i/4) sum_ab A_ab w_a w_b with A[2i, 2j+1] = h_ij = -A[2j+1, 2i], h the
    hopping matrix, whose modes the global style puts at their groups'
    energies (`_mode_groups`), and a jump operator sum_a l_a w_a is its
    2n-vector l.  Bath k's
    M_k = sum_t (e_t l_t^* l_t^T + a_t l_t l_t^dag) fixes
    <w_a w_b> = delta_ab + i Gamma_ab through X Gamma + Gamma X^T = -4 Im M,
    X = A - 2 Re M, solved here by Kronecker least squares, and bath k
    feeds in sum_ab A_ab ((Re M_k Gamma + Gamma Re M_k) / 2 - Im M_k)_ab."""
    hop = _hopping(n, ratio)
    size = 2 * n
    sites = np.zeros((n, size), dtype=complex)  # c_i = (w_2i + i w_2i+1) / 2
    sites[:, 0::2], sites[:, 1::2] = 0.5 * np.eye(n), 0.5j * np.eye(n)
    if style is LOCAL:
        baths = [[(H_FIELD, sites[0])], [(H_FIELD, sites[-1])]]
    else:
        eps, phi, groups, energy = _mode_groups(n, ratio)
        # each mode at its group's energy, of its own sign
        hop = (phi * np.copysign(energy, eps)) @ phi.T
        eta = phi.T @ sites
        baths = []
        for site, sign in ((0, 1.0), (n - 1, -1.0)):
            # eta_k lowers a mode above zero, sign * eta_k^dag one below
            modes = [
                phi[site, k] * (eta[k] if eps[k] > 0 else sign * eta[k].conj()) for k in range(n)
            ]
            baths.append([(energy[g[0]], sum(modes[k] for k in g)) for g in groups])
    a = np.zeros((size, size))
    a[0::2, 1::2], a[1::2, 0::2] = hop, -hop
    ms = []
    for transitions, temperature in zip(baths, (t_left, t_right)):
        m = np.zeros((size, size), dtype=complex)
        for frequency, l in transitions:
            emission, absorption = lindblad.thermal_rates(kappa, temperature, frequency)
            m += emission * np.outer(l.conj(), l) + absorption * np.outer(l, l.conj())
        ms.append(m)
    total = sum(ms)
    x = a - 2.0 * total.real
    eye = np.eye(size)
    operator = np.kron(x, eye) + np.kron(eye, x)
    gamma = np.linalg.lstsq(operator, (-4.0 * total.imag).reshape(-1), rcond=1e-9)[0]
    gamma = gamma.reshape(size, size)
    return [
        float(np.sum(a * ((m.real @ gamma + gamma @ m.real) / 2.0 - m.imag))) for m in ms
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_majorana_covariance_gives_the_route_currents(n):
    for ratio, style, t_left, t_right in sorted({case[1:] for case in CASES}, key=str):
        spec = _spec(n, ratio)
        chain = gaussian_chain(spec, ((style, (spec.coupling_delta,)),))
        state = steady_state_gaussian(chain, [0], KAPPA, [[t_left, t_right]])
        # least squares cuts a weak local chain's middle modes (`WEAK_LOCAL`)
        length = 2 if _weak_local((n, ratio, style)) else n
        want = _majorana_currents(length, ratio, style, t_left, t_right)
        for got, expected in zip(state.bath_currents[0], want):
            assert abs(got - expected) <= 1e-12 * KAPPA, (ratio, style, t_left, t_right)


@pytest.mark.parametrize(
    "case",
    [case for case in CASES if 3 <= case[0] <= 4 and _closed_form_currents(case) is not None],
    ids=_case_id,
)
def test_closed_forms_match_dense_oracle(case):
    # the closed forms that stand in for the dense oracle past four spins
    for got, want in zip(_closed_form_currents(case), _dense_currents(case)):
        assert abs(got - want) <= max(1e-10 * abs(want), 1e-12 * KAPPA)


@pytest.mark.parametrize("factor", [1.0, 1.0 - 1e-9, 1.0 + 1e-9])
def test_exceptional_point_matches_dense_oracle(factor):
    # two local baths at h = 1, delta = 0.5, kappa = 1, T_R = 0: X is
    # defective where n_BE(h, T_L) = 1, and its eigenvectors nearly so
    # around it
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
    t_left = factor / math.log(2.0)
    dense = _dense_current(spec, 1.0, t_left, 0.0, LOCAL)
    assert dense == pytest.approx(0.0625, abs=1e-9)
    assert abs(thermo.steady_net_current(spec, 1.0, t_left, 0.0, LOCAL) - dense) <= 1e-10


def _jump_frequencies(chain):
    """Each bath's jump frequencies on a 1-stack chain step, ascending."""
    jumps = _jumps(chain)
    return [np.array([nu for bath, nu, _ in jumps if bath == k]) for k in (0, 1)]


def _eigenbasis_frequencies(spec, site):
    decomp = spectral_decompose(build_hamiltonian(spec))
    frequencies, _ = global_transitions(decomp, embed_matrix(PAULI_X, site, spec.n_spins))
    return frequencies.tolist()


@pytest.mark.parametrize(
    "n, ratio",
    [(2, 1e-6), (2, 1.0), (3, 0.0), (3, ROOT2), (4, 2.0), (5, 1.0), (5, 2.0)],
)
def test_modes_are_grouped_like_the_eigenbasis_jumps(n, ratio):
    spec = _spec(n, ratio)
    chain = gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))
    for site, frequencies in zip((0, n - 1), _jump_frequencies(chain)):
        np.testing.assert_allclose(frequencies, _eigenbasis_frequencies(spec, site), rtol=1e-12)


def test_grouping_scales_by_the_largest_many_body_energy():
    # three spins at delta = sqrt(2) h + eta: eps = h + sqrt(2) delta, h and
    # h - sqrt(2) delta, so |eps_3| misses eps_2 by sqrt(2) eta = 2.5e-9 h.
    # The tolerance 1e-9 * sum|eps|/2 (about 2e-9 h, the largest |E| of the
    # chain) keeps them apart, as the eigenbasis jumps do; one scaled by
    # max|eps| (about 3e-9 h) would merge them
    spec = _spec(3, ROOT2 + 2.5e-9 / ROOT2)
    chain = gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))
    frequencies = _jump_frequencies(chain)
    assert [bath.shape for bath in frequencies] == [(3,), (3,)]
    for site, bath in zip((0, 2), frequencies):
        np.testing.assert_allclose(bath, _eigenbasis_frequencies(spec, site), rtol=1e-12)


def test_zero_modes_carry_no_jump_operator():
    # delta = h on five spins: eps = h (1 + 2 cos(k pi / 6)) vanishes at k = 4
    spec = _spec(5, 1.0)
    chain = gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))
    frequencies = _jump_frequencies(chain)
    assert [bath.shape for bath in frequencies] == [(4,), (4,)]
    assert min(frequencies[0]) > 0.5


def test_ising_pair_is_refused():
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
    with pytest.raises(ValueError, match="quadratic"):
        gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))


def test_the_transport_route_is_chosen_by_the_model():
    xy = SpinChainSpec(3, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
    ising = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
    for style in DissipatorStyle:
        assert isinstance(thermo._chain(xy, ((style, (xy.coupling_delta,)),)), GaussianChain)
        assert isinstance(thermo._chain(ising, ((style, (ising.coupling_delta,)),)), PauliChain)


def _with_rates(monkeypatch, rates, style, n, ratio):
    monkeypatch.setattr(lindblad, "thermal_rates", lambda kappa, temperature, frequency: rates)
    spec = _spec(n, ratio)
    chain = gaussian_chain(spec, ((style, (spec.coupling_delta,)),))
    return steady_state_gaussian(chain, [0], 1.0, [[1.0, 0.0]])


# the global closed form of two modes apart, the global closed form of a pair
# of collective modes, and the local closed form
ROUTE_CHAINS = pytest.mark.parametrize(
    "style, n, ratio",
    [(GLOBAL, 2, 0.5), (GLOBAL, 5, 2.0 / math.sqrt(3.0)), (LOCAL, 2, 0.5)],
    ids=["closed-form", "pair", "tridiagonal"],
)


@ROUTE_CHAINS
def test_unphysical_covariance_raises(monkeypatch, style, n, ratio):
    # a negative absorption rate drives the occupation to a/(e + a) = -1
    with pytest.raises(SteadyStateError, match="not physical"):
        _with_rates(monkeypatch, (1.0, -0.5), style, n, ratio)


@ROUTE_CHAINS
def test_lyapunov_residual_guard_raises(monkeypatch, style, n, ratio):
    # opposite rates cancel the damping but leave a source on the undamped
    # modes, so no covariance solves the equation
    with pytest.raises(SteadyStateError, match="residual"):
        _with_rates(monkeypatch, (1.0, -1.0), style, n, ratio)


@pytest.mark.parametrize(
    "n, ratio, style, temperatures, currents",
    [
        # a pair of collective modes under a right bath at 1e300
        (4, 2.0, GLOBAL, (0.3, 1e300), [-1.4999999999999993, 1.4999999999999993]),
        # a local chain whose H reaches 1e200
        (4, 1e200, LOCAL, (2.0, 1000.0), [-0.49796266529398736, 0.49796266529398736]),
    ],
    ids=["pair", "tridiagonal"],
)
def test_residual_guard_holds_where_the_norms_overflow(n, ratio, style, temperatures, currents):
    # at h = kappa = 1, ||X||^2 and ||X K + K X^dag - S||^2 overflow: taken
    # unscaled, both norms read inf, and inf <= 1e-9 * inf would pass any
    # residual.  Taken after one power-of-two scaling per point, the
    # residual is finite and within KERNEL_RTOL of the largest |X_ij| <=
    # ||X||, and the currents keep their bits
    spec = SpinChainSpec(n, 1.0, ratio, ChainModel.XY_TRANSVERSE)
    chain = gaussian_chain(spec, ((style, (spec.coupling_delta,)),))
    state = steady_state_gaussian(chain, [0], 1.0, [temperatures])
    assert np.isfinite(state.residual[0])
    x, _ = _lyapunov_equation(chain, temperatures, kappa=1.0)
    assert state.residual[0] <= KERNEL_RTOL * np.abs(x).max()
    assert state.bath_currents[0].tolist() == currents


def test_global_point_step_holds_little_beside_its_covariance():
    # 17 points at 200 spins: the point step takes each bath's rates on each
    # mode elementwise, so its peak stays within 1.5 times the (P, n, n)
    # complex K it returns, 10.9 MB (11.8 MB measured)
    spec = SpinChainSpec(200, 1.0, 0.7, ChainModel.XY_TRANSVERSE)
    chain = gaussian_chain(spec, ((GLOBAL, (spec.coupling_delta,)),))
    member = np.zeros(17, dtype=int)
    temperatures = np.column_stack([np.linspace(0.1, 3.0, 17), np.zeros(17)])
    steady_state_gaussian(chain, member, 1.0, temperatures)
    tracemalloc.start()
    try:
        state = steady_state_gaussian(chain, member, 1.0, temperatures)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.covariance.nbytes == 17 * 200 * 200 * 16
    assert peak < 1.5 * state.covariance.nbytes


def _fermi(energies, temperature):
    if temperature == 0:
        return np.zeros_like(energies)
    return 0.5 * (1.0 - np.tanh(energies / (2.0 * temperature)))


@PROPERTY
@given(
    st.integers(2, 12),
    st.floats(0.5, 2.0),
    st.floats(0.01, 2.0),
    st.sampled_from(DissipatorStyle),
    kappas,
    temperatures,
)
def test_equal_temperatures_give_the_thermal_state(n, h, ratio, style, kappa, temperature):
    spec = SpinChainSpec(n, h, ratio * h, ChainModel.XY_TRANSVERSE)
    chain = gaussian_chain(spec, ((style, (spec.coupling_delta,)),))
    state = steady_state_gaussian(chain, [0], kappa, [[temperature, temperature]])
    for current in state.bath_currents[0]:
        assert abs(current) <= 1e-12 * kappa * h**2
    if style is LOCAL:
        # each site in equilibrium with the baths at the bare splitting h
        expected = (_fermi(np.array([h]), temperature)[0] - 0.5) * np.eye(n)
    else:
        # each mode xi_k in equilibrium at its own |eps_k|; a zero mode,
        # which no bath damps, half filled
        eps = np.linalg.eigvalsh(_hopping(n, ratio, h))
        tol = DEGENERACY_TOL * 0.5 * float(np.abs(eps).sum())
        # where eps_k and -eps_k' share one |eps| (n = 3 at delta = sqrt(2) h,
        # n = 5 at delta = 2 h), one jump operator mixes xi_k and xi_k': the
        # full-secular model then has a second steady state, and K need not
        # be the thermal one
        shared = np.abs(eps[:, None] + eps[None, :]) <= tol
        if np.any(shared & (np.abs(eps[:, None]) > tol)):
            return
        energy = np.abs(eps)
        expected = np.diag(np.where(energy <= tol, 0.0, _fermi(energy, temperature) - 0.5))
    assert np.max(np.abs(state.covariance[0] - expected)) <= 1e-10
