"""The Ising pair's rate route against the dense d^2 x d^2 oracle.

The rate route (`rates`) solves the population block of the pair's
generator, the diagonal states it maps into themselves.  The XY chain's
Gaussian route is checked against the oracle in tests/test_gaussian.py,
on its share of the seeded grid here among other cases.  Neither route
builds a many-body operator.
"""

import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from spinheat import lindblad, thermo
from spinheat.experiments import SweepConfig, run_fig2, run_fig3, run_sweep
from spinheat.lindblad import DissipatorStyle, standard_baths
from spinheat.oracle import assemble_liouvillian, steady_state_nullspace
from spinheat.rates import pauli_chain
from spinheat.spinops import ChainModel, SpinChainSpec, build_hamiltonian, spectral_decompose

from test_steady import dense_ising_state

TOL = 1e-10


def _grid(model):
    """Seeded chain/bath parameters of one model's chains, plus the edge
    cases every grid must hold.  One seeded stream draws the cases of both
    models, so each case keeps its values whichever model is asked for."""
    rng = np.random.default_rng(20261017)
    chains = [(ChainModel.ISING_ZZ, 2)] + [(ChainModel.XY_TRANSVERSE, n) for n in (2, 3, 4)]
    cases = []
    for style in DissipatorStyle:
        for chain_model, n in chains:
            for k in range(4):
                h = float(rng.uniform(0.5, 2.0))
                # delta = 0, a generic coupling, and delta = h
                delta = (0.0, float(rng.uniform(0.05, 0.95)) * h, h, float(rng.uniform(0, h)))[k]
                kappa = float(rng.uniform(0.5, 2.0))
                t_left = (0.0, float(rng.uniform(0.1, 5.0)))[k % 2]
                t_right = (float(rng.uniform(0.1, 5.0)), 0.0)[k // 2 % 2]
                spec = SpinChainSpec(n, h, delta, chain_model)
                cases.append((spec, kappa, t_left, t_right, style))
    return [case for case in cases if case[0].model is model]


# One degenerate kernel per style: the decoupled Ising pair under global baths,
# and the Ising pair whose right local bath (nu = 0, T = 0) is dead.
DEGENERATE = [
    (SpinChainSpec(2, 1.0, 0.0, ChainModel.ISING_ZZ), 1.0, 1.0, 1.0, DissipatorStyle.GLOBAL),
    (SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ), 1.0, 1.0, 0.0, DissipatorStyle.LOCAL),
]


def _case_id(case):
    spec, kappa, t_left, t_right, style = case
    return (
        f"{spec.model.value}{spec.n_spins}-{style.value}-h{spec.field_h:.2f}"
        f"-d{spec.coupling_delta:.2f}-TL{t_left:.2f}-TR{t_right:.2f}"
    )


def _dense_state(spec, baths):
    """The dense oracle's state; on the Ising pair, the exact tree-sum state
    where the oracle's kernel rule is at fault (`dense_ising_state`)."""
    L = assemble_liouvillian(build_hamiltonian(spec), baths)
    return dense_ising_state(L) if spec.model is ChainModel.ISING_ZZ else steady_state_nullspace(L)


def _only_member(state):
    """The one member of a point step's 1-stack, field by field."""
    return replace(state, **{field.name: getattr(state, field.name)[0] for field in fields(state)})


def _route_state(spec, kappa, t_left, t_right, style):
    """The state of the transport route `steady_net_current` takes for `spec`."""
    chain_step, point_step = thermo._ROUTES[spec.model]
    chain = chain_step(spec, ((style, (spec.coupling_delta,)),))
    return _only_member(point_step(chain, [0], kappa, [[t_left, t_right]]))


def _both_routes(spec, kappa, t_left, t_right, style):
    baths = standard_baths(spec, kappa, t_left, t_right, style)
    return _dense_state(spec, baths), _route_state(spec, kappa, t_left, t_right, style)


def _assert_same_currents(state, dense_state):
    assert len(state.bath_currents) == len(dense_state.bath_currents) == 2
    for j_route, j_dense in zip(state.bath_currents, dense_state.bath_currents):
        assert abs(j_route - j_dense) <= TOL


def _assert_same_state(state, dense_state):
    _assert_same_currents(state, dense_state)
    assert np.max(np.abs(state.rho - dense_state.rho)) <= TOL
    # ||G p|| is ||L[rho]|| because L maps diagonal states to diagonal ones
    assert abs(state.residual - dense_state.residual) <= TOL


@pytest.mark.parametrize("case", _grid(ChainModel.ISING_ZZ) + DEGENERATE, ids=_case_id)
def test_rate_route_matches_dense_oracle(case):
    dense_state, state = _both_routes(*case)
    _assert_same_state(state, dense_state)
    assert state.kernel_dim <= dense_state.kernel_dim
    assert state.residual <= TOL
    assert abs(sum(state.bath_currents)) <= TOL


@pytest.mark.parametrize(
    "style, kappa, ratio",
    itertools.product(DissipatorStyle, (0.5, 2.0), (0.0, 0.01, 0.3, 1.0, 1.5, 3.0)),
)
def test_rate_route_matches_dense_oracle_on_a_grid(style, kappa, ratio):
    # delta = 0, delta = h and delta > h included, and baths at T = 0
    spec = SpinChainSpec(2, 1.0, ratio, ChainModel.ISING_ZZ)
    for t_left, t_right in itertools.product((0.0, 0.1, 1.0, 10.0), (0.0, 0.5, 10.0)):
        dense_state, state = _both_routes(spec, kappa, t_left, t_right, style)
        _assert_same_state(state, dense_state)


@pytest.mark.parametrize("case", DEGENERATE, ids=_case_id)
def test_degenerate_kernels_are_resolved_alike(case):
    dense_state, state = _both_routes(*case)
    assert state.kernel_dim > 1 and dense_state.kernel_dim > 1
    assert np.max(np.abs(state.rho - dense_state.rho)) <= TOL


def test_dense_route_counts_coherences_outside_the_block():
    # in the local style at delta = 0 the frozen right spin keeps its
    # coherences, which the population block leaves out
    spec = SpinChainSpec(2, 1.0, 0.0, ChainModel.ISING_ZZ)
    dense_state, state = _both_routes(spec, 1.0, 2.0, 0.0, DissipatorStyle.LOCAL)
    assert (dense_state.kernel_dim, state.kernel_dim) == (4, 2)
    assert np.max(np.abs(state.rho - dense_state.rho)) <= TOL


def test_oracle_groups_only_the_gaps_its_coupling_connects():
    # at delta = 3e9 h the gaps delta - h and delta + h lie within the
    # grouping tolerance of delta; sigma^x on the right spin connects the gap
    # delta alone, and on the left spin h - delta and h + delta alone
    spec = SpinChainSpec(2, 1.0, 3e9, ChainModel.ISING_ZZ)
    baths = standard_baths(spec, 1.0, 1e10, 1e9, DissipatorStyle.GLOBAL)
    decomp = spectral_decompose(build_hamiltonian(spec))
    frequencies = [lindblad.bath_transitions(decomp, bath)[0].tolist() for bath in baths]
    assert frequencies == [[2999999999.0, 3000000001.0], [3e9]]
    dense_state, state = _both_routes(spec, 1.0, 1e10, 1e9, DissipatorStyle.GLOBAL)
    j_dense, j_route = dense_state.bath_currents[0], state.bath_currents[0]
    assert abs(j_dense - j_route) <= 1e-14 * abs(j_route)


def test_transport_path_builds_no_many_body_operator(tmp_path, monkeypatch):
    # the figures and an XY sweep in both styles from a cold chain cache,
    # with the oracle's eigenbasis jumps and the embedding of one-spin
    # operators into the chain refused
    def refused(*args):
        raise AssertionError("the transport path built a many-body operator")

    thermo._chain.cache_clear()
    monkeypatch.setattr(lindblad, "global_transitions", refused)
    monkeypatch.setattr(lindblad, "embed_matrix", refused)
    run_fig2(1.0, tmp_path)
    run_fig3(1.0, tmp_path)
    cfg = SweepConfig(
        model=ChainModel.XY_TRANSVERSE, n_spins=3, field_h=1, coupling_delta=0.7, style="both",
        kappa=1, sweep="temperature", start=0, stop=2, points=3, scale="linear", t_right=0,
    )
    run_sweep(cfg, tmp_path / "xy3.csv")
    thermo._chain.cache_clear()


def test_rate_route_refuses_the_xy_chain():
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.XY_TRANSVERSE)
    with pytest.raises(ValueError, match="Ising"):
        pauli_chain(spec, ((DissipatorStyle.GLOBAL, (spec.coupling_delta,)),))
