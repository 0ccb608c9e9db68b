"""Tests of the benchmark itself, not of spinheat.  From the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test run; pytest collects
it when named explicitly.  The smoke runs take about 20 s in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import workloads  # noqa: E402

REFERENCES = HERE / "references"


def _bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _replace_cell(text: str, row: int, column: int, value: str) -> str:
    """`text` with one body cell replaced (row 0 is the first row after the header)."""
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[body[row]].split(",")
    cells[column] = value
    lines[body[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_declared_metric_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in (("setup_s", "s"), ("points_per_s", "points/s"),
                       ("peak_rss_mb", "MB"), ("fail_frac", "ratio")):
        assert re.search(rf"^{name}\s+\S+ {re.escape(unit)}\b", proc.stdout, re.M), name
    if trace:
        assert "tracing overhead:" in proc.stdout and "coverage on" in proc.stdout


def test_comparator_flags_a_perturbed_figure_current():
    reference = (REFERENCES / "ising2" / "kappa_1" / "fig3a.csv").read_text()
    clean = check.check_figure_csv(reference, reference, 1.0, "fig3a.csv")
    assert clean.failed == 0 and clean.attempted == 300 and clean.identical == 300

    _, _, rows = check.parse_csv(reference)
    nudged = repr(float(rows[40][2]) * (1 + 1e-6))
    tally = check.check_figure_csv(_replace_cell(reference, 40, 2, nudged), reference, 1.0, "fig3a.csv")
    assert (tally.attempted, tally.failed) == (300, 1)
    assert "J_t_right_0.1" in tally.problems[0]


def test_oracle_flags_a_current_even_when_the_reference_agrees():
    reference = (REFERENCES / "ising2" / "kappa_1" / "fig2.csv").read_text()
    _, _, rows = check.parse_csv(reference)
    wrong = _replace_cell(reference, 150, 3, repr(float(rows[150][3]) * 1.001))
    tally = check.check_figure_csv(wrong, wrong, 1.0, "fig2.csv")
    assert tally.failed == 1 and "oracle" in tally.problems[0]


def test_comparator_flags_a_perturbed_xy_current():
    lattice, cells = check.read_xy_reference(REFERENCES / "xy3" / "global.csv")
    text = "T_L,J_global\n" + "".join(f"{lattice[k]!r},{cells[k]}\n" for k in (3, 9))
    assert check.check_xy_csv(text, [3, 9], lattice, cells).failed == 0
    bad = text.replace(cells[9], repr(float(cells[9]) * (1 - 1e-6)))
    assert check.check_xy_csv(bad, [3, 9], lattice, cells).failed == 1
    assert check.check_xy_csv(None, [3, 9], lattice, cells).failed == 2


def test_tolerance_absorbs_noise_level_sign_flips_only():
    # J at n = 5, local style, T_L = 0.01 with 1 and 2 BLAS threads
    assert check.cell_ok(-3.5e-17, 6.6e-17, 1.0)
    assert not check.cell_ok(0.119364770133235 * (1 + 1e-6), 0.119364770133235, 1.0)


def _unattributed_frac(unwrapped_s: float) -> float:
    """trace.unattributed_frac of one traced pass whose runner does `unwrapped_s` of its own work."""
    import worker
    from tracer import Tracer

    tracer = Tracer()
    tracer.enabled = True
    leaf = tracer.wrap("thermo.heat_currents", "spinheat.thermo", lambda: time.sleep(0.05))

    def sweep():
        time.sleep(unwrapped_s)  # work in a function nobody wraps
        leaf()

    runner = tracer.wrap("experiments.run_sweep", "spinheat.experiments", sweep)
    start = time.perf_counter()
    runner()
    seconds = time.perf_counter() - start
    passes = [
        {"traced": traced, "error": None, "points": 1, "seconds": seconds, "csv_bytes": 0}
        for traced in (False, True)
    ]
    return worker._per_layer(tracer, passes)["metrics"]["trace.unattributed_frac"]


def test_work_outside_the_wrapped_functions_shows_as_unattributed():
    assert _unattributed_frac(0.0) < 0.2
    assert _unattributed_frac(0.1) > 0.5


def test_inputs_depend_only_on_the_seed_and_stay_on_the_reference_lattice():
    for workload in workloads.WORKLOADS:
        assert workloads.draw_inputs(workload, 5) == workloads.draw_inputs(workload, 5)
    kappas = {workloads.draw_inputs("ising2-figures", seed)["kappa"] for seed in range(40)}
    assert kappas == set(workloads.KAPPAS)
    pairs = workloads.draw_inputs("xy5-global", 3)["pairs"]
    assert all(0 <= i < j < workloads.XY_LATTICE for i, j in pairs)


def test_run_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "xy5-local", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
