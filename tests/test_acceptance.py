"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one line (visible with `pytest -s` or on failure) in
the same format as the `spinheat acceptance` command.
"""

import pytest

from spinheat.experiments import ACCEPTANCE_CHECKS, acceptance_criteria, format_table

RUNTIME_LIMITS = {
    "saturation current": 1.0,
    "cycle rate limit": 1.0,
    "optimal rectification": 1.0,
    "phenomenological null current": 2.0,
    "reverse leakage ratio": 1.0,
    "high mean temperature symmetry": 2.0,
    "solver route equivalence": 5.0,
    "equilibrium Gibbs state": 1.0,
    "xy saturation vs local decay": 30.0,
    "generator sanity": 5.0,
}


@pytest.fixture(scope="module")
def results():
    return acceptance_criteria()


@pytest.mark.parametrize("index", range(len(ACCEPTANCE_CHECKS)))
def test_criterion(results, index):
    result = results[index]
    print(format_table([result])[-1])
    assert result.passed, (
        f"criterion {result.index} ({result.name}): observed {result.observed}, "
        f"tolerance {result.tolerance}"
    )


@pytest.mark.parametrize("index", range(len(ACCEPTANCE_CHECKS)))
def test_criterion_runtime(results, index):
    result = results[index]
    limit = RUNTIME_LIMITS[result.name]
    assert result.seconds < limit, (
        f"criterion {result.index} ({result.name}) took {result.seconds:.2f}s, "
        f"limit {limit:.0f}s"
    )
