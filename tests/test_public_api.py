"""The names the package exports, and the ones the benchmark imports."""

import pytest

import spinheat

# what perfbench/ reads from the package
BENCHMARK_NAMES = (
    "SpinChainSpec",
    "ChainModel",
    "DissipatorStyle",
    "SweepConfig",
    "steady_net_current",
    "run_fig2",
    "run_fig3",
    "run_sweep",
    "current_from_cycle",
    "steady_state_rate_equations",
)


@pytest.mark.parametrize("name", spinheat.__all__)
def test_exported_names_resolve(name):
    assert getattr(spinheat, name) is not None


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_names_stay_exported(name):
    assert name in spinheat.__all__
    assert getattr(spinheat, name) is not None


def test_experiments_module_is_reachable():
    assert spinheat.experiments.run_fig3 is spinheat.run_fig3

