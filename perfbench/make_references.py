"""Regenerate the reference CSVs that the benchmark checks J against.

Run from the root of a checkout whose program is trusted (the references
shipped here come from the seed commit named in references/SOURCE):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_references.py

It writes references/ising2/kappa_<k>/ (run_fig2 + run_fig3 for every kappa
the ising2-figures workload can draw) and references/xy<n>/<style>.csv
(run_sweep over the whole T_L lattice the xy workloads draw from, for the
5-spin chain and the 3-spin chain of --smoke).  The xy5 sweeps take about
a minute at 1 BLAS thread.
"""

from __future__ import annotations

from pathlib import Path

from spinheat import ChainModel, SweepConfig, run_fig2, run_fig3, run_sweep

import workloads

REFERENCES = Path(__file__).resolve().parent / "references"


def main() -> None:
    for kappa in workloads.KAPPAS:
        out = REFERENCES / "ising2" / f"kappa_{kappa:g}"
        run_fig2(kappa, out, jobs=1)
        run_fig3(kappa, out, jobs=1)
    for n_spins in (workloads.SMOKE_XY_SPINS, workloads.XY_SPINS):
        for style in ("global", "local"):
            config = SweepConfig(
                model=ChainModel.XY_TRANSVERSE,
                n_spins=n_spins,
                field_h=1.0,
                coupling_delta=1.0,
                style=style,
                kappa=1.0,
                sweep="temperature",
                start=workloads.XY_T_MIN,
                stop=workloads.XY_T_MAX,
                points=workloads.XY_LATTICE,
                scale="log",
                t_right=0.0,
            )
            run_sweep(config, out=REFERENCES / f"xy{n_spins}" / f"{style}.csv", jobs=1)


if __name__ == "__main__":
    main()
