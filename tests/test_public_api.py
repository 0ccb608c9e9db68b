"""The names the package exports, the ones the benchmark imports, and the
imports every module uses."""

import ast
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


def _loaded_by_import(names):
    """The modules among `names` and their submodules that `import spinheat`
    loads in a fresh interpreter."""
    src = Path(spinheat.__file__).resolve().parents[1]
    code = (
        f"import sys, spinheat; names = {sorted(names)!r}; "
        "print(sorted(m for m in sys.modules if any(m == n or m.startswith(n + '.') for n in names)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # importing scipy.linalg costs about 0.25 s on top of numpy, which the
    # benchmark's set-up time would show
    assert _loaded_by_import(["scipy"]) == "[]"


def test_import_loads_no_process_pool():
    # the process pool pulls in multiprocessing, about 15 ms that every
    # one-worker run would pay in its set-up time
    assert _loaded_by_import(["concurrent.futures.process", "multiprocessing"]) == "[]"


def _unused_imports(path):
    """The names `path` imports and never references.  A reference is any
    name the module reads, the head of an attribute chain included; a name
    listed in the module's `__all__` counts as referenced."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def _imported_modules(path):
    """The absolute names of the modules `path`, a module of the package,
    imports, by the walk of `_unused_imports`."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "spinheat." * (node.level > 0) + (node.module or "")
            if node.module is None:  # `from . import name` imports a submodule
                modules |= {module + alias.name for alias in node.names}
            else:
                modules.add(module)
    return modules


PACKAGE_SOURCES = sorted(Path(spinheat.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", ["lindblad", "steady", "rates", "gaussian", "thermo"])
def test_transport_path_imports_no_oracle(module):
    path = Path(spinheat.__file__).parent / f"{module}.py"
    assert "spinheat.oracle" not in _imported_modules(path)


def test_the_oracle_walk_sees_its_importers():
    imported = {path.stem: _imported_modules(path) for path in PACKAGE_SOURCES}
    assert "spinheat.oracle" in imported["experiments"]
    assert "spinheat.lindblad" in imported["oracle"]


@pytest.mark.parametrize("path", PACKAGE_SOURCES, ids=lambda path: path.name)
def test_no_assert_statement_in_the_package(path):
    # `python -O` strips assert statements, so a check must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


SOURCES = sorted(
    [*PACKAGE_SOURCES, *Path(__file__).parent.glob("*.py")]
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert _unused_imports(path) == []
