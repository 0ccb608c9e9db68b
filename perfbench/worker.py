"""Benchmark worker: one fresh interpreter that sets up spinheat and runs timed passes.

run.py starts this script with the BLAS thread count pinned, sends a JSON
request on stdin and reads one JSON result line from stdout.  In "setup"
mode the worker only imports spinheat and evaluates one warm-up point; in
"measure" mode it then runs timed passes of the workload until the run's
seconds are used.  Before the first pass and after each one, with no pass
running, it times the host-speed probe (probe.py, in a process of its own),
and it checks every J cell each pass wrote after the pass's clock has
stopped.  With tracing on, passes alternate untraced and traced, so the
traced run also measures the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads
from tracer import RUNNERS, TRACED, WRAPPERS, Tracer

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references"


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Probe:
    """The host-speed probe (probe.py), run in an interpreter of its own.

    It is asked only between passes, so it never runs alongside one, and it
    never imports spinheat, so a change to the program cannot move it.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write(self.kind + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe exited with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Workload:
    """Runs and checks one pass of a workload's drawn inputs."""

    def __init__(self, inputs: dict, out_dir: Path):
        import numpy as np
        import spinheat

        self.spinheat = spinheat
        self.inputs = inputs
        self.out_dir = out_dir
        if inputs["kind"] == "figures":
            self.kappa = inputs["kappa"]
            self.ref_dir = REFERENCES / "ising2" / f"kappa_{self.kappa:g}"
        else:
            self.kappa = 1.0
            self.lattice = np.logspace(
                np.log10(workloads.XY_T_MIN), np.log10(workloads.XY_T_MAX), workloads.XY_LATTICE
            )
            self.ref_lattice, self.ref_cells = check.read_xy_reference(
                REFERENCES / f"xy{inputs['n_spins']}" / f"{inputs['style']}.csv"
            )

    def warm_up(self) -> None:
        """One small steady-state point per dissipator style the workload uses.

        It runs every layer once, so imports and BLAS start-up are paid before
        the first timed pass; the xy point uses the 3-spin chain because a
        5-spin point (about 2 s) would make setup_s a copy of points_per_s.
        """
        sh = self.spinheat
        if self.inputs["kind"] == "figures":
            spec = sh.SpinChainSpec(2, 1.0, 0.5, sh.ChainModel.ISING_ZZ)
            styles = (sh.DissipatorStyle.GLOBAL, sh.DissipatorStyle.LOCAL)
        else:
            n_spins = workloads.SMOKE_XY_SPINS
            spec = sh.SpinChainSpec(n_spins, 1.0, 1.0, sh.ChainModel.XY_TRANSVERSE)
            styles = (sh.DissipatorStyle(self.inputs["style"]),)
        for style in styles:
            sh.steady_net_current(spec, self.kappa, 1.0, 0.0, style)

    def prepare(self, k: int):
        """Inputs of pass k, built before its clock starts."""
        if self.inputs["kind"] == "figures":
            return None
        pair = self.inputs["pairs"][k % len(self.inputs["pairs"])]
        sh = self.spinheat
        config = sh.SweepConfig(
            model=sh.ChainModel.XY_TRANSVERSE,
            n_spins=self.inputs["n_spins"],
            field_h=1.0,
            coupling_delta=1.0,
            style=self.inputs["style"],
            kappa=self.kappa,
            sweep="temperature",
            start=float(self.lattice[pair[0]]),
            stop=float(self.lattice[pair[1]]),
            points=2,
            scale="log",
            t_right=0.0,
        )
        return pair, config

    def run(self, prepared, out: Path) -> None:
        experiments = self.spinheat.experiments  # looked up per call, so traced bindings apply
        if prepared is None:
            experiments.run_fig2(self.kappa, out, jobs=1)
            experiments.run_fig3(self.kappa, out, jobs=1)
        else:
            experiments.run_sweep(prepared[1], out=out / "sweep.csv", jobs=1)

    def check(self, prepared, out: Path) -> check.Tally:
        if prepared is None:
            return check.check_figures(out, self.ref_dir, self.kappa)
        path = out / "sweep.csv"
        text = path.read_text(encoding="ascii") if path.is_file() else None
        return check.check_xy_csv(text, prepared[0], self.ref_lattice, self.ref_cells, self.kappa)


def _environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{config.get('name')} {config.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    threads = {
        key: os.environ.get(key)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {"numpy": np.__version__, "blas": blas, "thread_env": threads}


def _median_rate(passes: list[dict]) -> float:
    """Points per second of the median pass."""
    return statistics.median(p["points"] / p["seconds"] for p in passes) if passes else math.nan


def _ms_per_point(passes: list[dict]) -> float:
    points = sum(p["points"] for p in passes)
    return 1000.0 * sum(p["seconds"] for p in passes) / points if points else math.nan


def _per_layer(tracer: Tracer, passes: list[dict]) -> dict:
    """Per-layer numbers from the traced passes, normalised per point."""
    traced = [p for p in passes if p["traced"] and p["error"] is None]
    untraced = [p for p in passes if not p["traced"] and p["error"] is None]
    points = sum(p["points"] for p in traced)
    agg = tracer.aggregate()
    obs = tracer.observations
    per_point = 1.0 / points if points else math.nan

    functions = {}
    for layer, names in TRACED.items():
        for fn_name in names:
            name = f"{layer}.{fn_name}"
            entry = agg.get(name, {"calls": 0, "self_s": 0.0, "sites": {}})
            functions[name] = {
                "bindings": tracer.bindings.get(name, []),
                "calls": entry["calls"],
                "sites": entry["sites"],
                "self_ms_per_point": 1000.0 * entry["self_s"] * per_point,
                "calls_per_point": entry["calls"] * per_point,
            }

    metrics = {}
    for name, entry in functions.items():
        metrics[f"{name}.self_ms_per_point"] = entry["self_ms_per_point"]
        metrics[f"{name}.calls_per_point"] = entry["calls_per_point"]
    jumps = obs.get("jumps", [])
    kernels = obs.get("kernel_dim", [])
    point_ms = [1000.0 * d for d in tracer.durations("thermo.steady_net_current")]
    self_sum_ms = 1000.0 * sum(e["self_s"] for e in agg.values()) * per_point
    # Work no span names lands outside every span or in the self time of a
    # wrapper whose real work is its traced callees: the runners and
    # steady_net_current.  That share is the coverage measure.
    wrapper_self_ms = sum(functions[name]["self_ms_per_point"] for name in WRAPPERS)
    traced_ms = _ms_per_point(traced)
    pps_untraced = _median_rate(untraced)
    pps_traced = _median_rate(traced)
    # The gap below uses pass totals, so that the self times and the pass times
    # it compares come from the same traced passes.  It reduces to the traced
    # time outside every span, which is near 0 by construction: an identity
    # check of the span bookkeeping, not a test of coverage.
    untraced_ms = _ms_per_point(untraced)
    overhead_ms = traced_ms - untraced_ms
    metrics.update(
        {
            "lindblad.jumps_per_bath": statistics.fmean(jumps) if jumps else 0.0,
            "lindblad.generator_dim": max(obs.get("generator_dim", [0])),
            "lindblad.generator_mb": max(obs.get("generator_bytes", [0])) / 2**20,
            "steady.degenerate_frac": (
                sum(k > 1 for k in kernels) / len(kernels) if kernels else 0.0
            ),
            "steady.residual_max": max(obs.get("residual", [0.0])),
            "thermo.point_ms.p50": _percentile(point_ms, 0.5),
            "thermo.point_ms.p90": _percentile(point_ms, 0.9),
            "thermo.point_ms.samples": len(point_ms),
            "experiments.runner.self_ms_per_point": sum(
                functions[name]["self_ms_per_point"] for name in RUNNERS
            ),
            "experiments.csv_bytes": sum(p["csv_bytes"] for p in traced) * per_point,
            "trace.overhead_frac": 1.0 - pps_traced / pps_untraced,
            "trace.unattributed_frac": (traced_ms - self_sum_ms + wrapper_self_ms) / traced_ms,
        }
    )
    return {
        "metrics": metrics,
        "functions": functions,
        "points": points,
        "points_per_s_untraced": pps_untraced,
        "points_per_s_traced": pps_traced,
        "self_sum_ms_per_point": self_sum_ms,
        "untraced_ms_per_point": untraced_ms,
        "overhead_ms_per_point": overhead_ms,
        "identity_gap_frac": (untraced_ms - (self_sum_ms - overhead_ms)) / untraced_ms,
        "wrapper_self_ms_per_point": wrapper_self_ms,
    }


def measure(workload: Workload, request: dict, probe: Probe) -> dict:
    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    min_passes = 2 if tracer is not None else 1
    max_passes = request.get("max_passes") or math.inf
    passes: list[dict] = []
    problems: list[str] = []
    started = time.perf_counter()
    probes = [probe()]
    k = 0
    while k < max_passes and (k < min_passes or time.perf_counter() - started < request["seconds"]):
        traced = tracer is not None and k % 2 == 1
        prepared = workload.prepare(k)
        out = workload.out_dir / f"pass{k}"
        error = None
        if tracer is not None:
            tracer.enabled = traced
        t0 = time.perf_counter()
        try:
            workload.run(prepared, out)
        except Exception as err:  # a failed point is counted, not fatal
            error = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        probes.append(probe())
        tally = workload.check(prepared, out)
        csv_bytes = sum(f.stat().st_size for f in out.glob("*.csv")) if out.is_dir() else 0
        shutil.rmtree(out, ignore_errors=True)
        if error is not None:
            problems.append(f"pass {k}: {error}")
        problems += tally.problems[: max(0, 10 - len(problems))]
        passes.append(
            {
                "seconds": seconds,
                "points": tally.attempted,
                "failed": tally.failed,
                "identical": tally.identical,
                "traced": traced,
                "error": error,
                "csv_bytes": csv_bytes,
            }
        )
        k += 1
    result = {"passes": passes, "probes": probes, "problems": problems}
    if tracer is not None:
        result["trace"] = _per_layer(tracer, passes)
        if request.get("spans_path"):
            tracer.write(Path(request["spans_path"]))
    return result


def main() -> int:
    request = json.loads(sys.stdin.read())
    out_dir = Path(request["out_dir"])
    workload = Workload(request["inputs"], out_dir)
    workload.warm_up()
    result = {"setup_s": time.monotonic() - request["launch"]}
    if request["mode"] == "measure":
        probe = Probe(workload.inputs["kind"])
        try:
            result.update(measure(workload, request, probe))
        finally:
            probe.close()
        result["environment"] = _environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
