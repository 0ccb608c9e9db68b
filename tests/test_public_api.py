"""The names the package exports, and the ones the benchmark imports."""

import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_no_submodule_shadows_an_exported_name():
    # importing a submodule binds its name on the package, over any
    # exported function or class of the same name
    submodules = {module.name for module in pkgutil.iter_modules(spinheat.__path__)}
    assert not submodules & set(spinheat.__all__)
    assert spinheat.pauli is spinheat.spinops.pauli
    assert np.array_equal(spinheat.pauli("x").matrix, [[0, 1], [1, 0]])


def test_import_loads_no_scipy():
    # importing scipy.linalg costs about 0.25 s on top of numpy, which the
    # benchmark's set-up time would show
    src = Path(spinheat.__file__).resolve().parents[1]
    code = (
        "import sys, spinheat; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
