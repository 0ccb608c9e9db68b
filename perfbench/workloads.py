"""Workload definitions shared by the benchmark driver and its worker.

The driver draws every input from ``--seed``; the worker receives only the
drawn values.  Each drawn input lies on a fixed lattice (four kappa values,
a quarter-decade T_L grid), so the reference CSVs that the seed commit
generated once cover every seed.  Standard library only: the driver must
not import numpy.
"""

from __future__ import annotations

import random

# ising2-figures: run_fig2 + run_fig3 at a kappa drawn from this set.
KAPPAS = (0.5, 1.0, 1.5, 2.0)

# xy workloads: T_L is drawn from numpy.logspace(-2, 2, XY_LATTICE), the grid
# of the reference sweep; each pass is a 2-point run_sweep between two
# lattice points, at T_R = 0, h = delta = kappa = 1.
XY_T_MIN = 0.01
XY_T_MAX = 100.0
XY_LATTICE = 17
XY_SPINS = 5
SMOKE_XY_SPINS = 3
_PAIRS_PER_RUN = 64

# Typical seconds of each kind's host-speed probe (probe.host_probe) on a
# 2-vCPU 2.1 GHz Xeon VM.  They only anchor the units of points_per_s; what
# matters is that the same constant is used on both sides of a comparison.
PROBE_REFERENCE_S = {"figures": 0.08, "xy": 0.2}

WORKLOADS = {
    "ising2-figures": {"kind": "figures"},
    "xy5-global": {"kind": "xy", "style": "global"},
    "xy5-local": {"kind": "xy", "style": "local"},
}


def draw_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """The inputs one run of `workload` uses, as a JSON-ready dict."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    if spec["kind"] == "figures":
        return {"workload": workload, "kind": "figures", "kappa": rng.choice(KAPPAS)}
    pairs: list[list[int]] = []
    while len(pairs) < _PAIRS_PER_RUN:
        order = list(range(XY_LATTICE))
        rng.shuffle(order)
        pairs += [sorted(order[k : k + 2]) for k in range(0, XY_LATTICE - 1, 2)]
    return {
        "workload": workload,
        "kind": "xy",
        "style": spec["style"],
        "n_spins": SMOKE_XY_SPINS if smoke else XY_SPINS,
        "pairs": pairs,
    }
