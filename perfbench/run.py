"""Benchmark for spinheat: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ising2-figures --seed 1 --seconds 20 --trace 0

Workloads: ising2-figures (run_fig2 + run_fig3), xy5-global and xy5-local
(run_sweep on the 5-spin XY chain); see perfbench/NOTES.md.  The run:

1. draws the workload's inputs from --seed;
2. starts a worker interpreter (worker.py) with the BLAS thread count
   pinned, which imports spinheat from src/, evaluates a warm-up point and
   runs timed passes for --seconds, checking every J cell it wrote;
3. starts further workers that only set up, so setup_s is a median;
4. prints a readable report, then one JSON line with `correct`,
   `attempted`, `failed` and the metrics BENCHMARK.json declares:
   end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

Scratch files go under .bench_build/perfbench/ and are removed at exit.
The exit code is 0 when a result was printed, 1 when a worker failed and 2
on bad arguments or a checkout without src/spinheat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
# The driver allows 180 s per run; stop starting workers well before that.
RUN_BUDGET_S = 165.0

BLAS_THREADS = 1
BLAS_PIN_REASON = (
    "1 thread: on a 2-CPU machine an n=5 local solve took 1.35-1.65 s with 1 thread "
    "against 0.85-1.85 s with 2, and with 2 threads the first n=4 SVD paid about 1 s "
    "of warm-up; noise-level J (~1e-16) also changes sign with the thread count"
)


class WorkerError(RuntimeError):
    pass


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "spinheat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    # No .pyc files: every set-up compiles spinheat the same way, and src/ stays untouched.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(request: dict, root: Path, deadline: float) -> dict:
    """Start worker.py, send `request`, return its JSON result; raise WorkerError on failure."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("run budget exhausted before the worker started")
    request = dict(request, launch=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=_child_env(root),
        cwd=root,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(json.dumps(request), timeout=timeout)
    except BaseException as err:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its probe process
        proc.communicate()
        if isinstance(err, subprocess.TimeoutExpired):
            raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _declared(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _select(values: dict, units: dict) -> dict:
    """The declared metrics, with units; a declared metric that was not measured is an error."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise WorkerError(f"metrics not produced: {missing}")
    out = {}
    for name, unit in units.items():
        value = float(values[name])
        out[name] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}
    return out


def _report_trace(trace: dict, workload: str) -> None:
    print(f"traced passes: {trace['points']} points")
    print(
        f"tracing overhead: {100 * trace['metrics']['trace.overhead_frac']:.2f}% of points_per_s "
        f"(untraced {trace['points_per_s_untraced']:.4g}, traced {trace['points_per_s_traced']:.4g} points/s)"
    )
    print(
        f"identity check: self times sum to {trace['self_sum_ms_per_point']:.4g} ms/point; "
        f"untraced {trace['untraced_ms_per_point']:.4g} ms/point minus overhead "
        f"{trace['overhead_ms_per_point']:.4g} leaves a gap of {100 * trace['identity_gap_frac']:.3f}% "
        f"(the traced time outside every span: near 0 by construction, so not a coverage test)"
    )
    print(
        f"coverage: {100 * trace['metrics']['trace.unattributed_frac']:.2f}% of the traced pass time "
        f"is unattributed (outside every span, or {trace['wrapper_self_ms_per_point']:.4g} ms/point "
        f"of self time in the runners and steady_net_current, where work in an unwrapped "
        f"function lands)"
    )
    print(f"coverage on {workload} (calls in traced passes; self ms per point):")
    for name, entry in trace["functions"].items():
        if not entry["bindings"]:
            status = "not instrumented (function not found)"
        elif entry["calls"] == 0:
            status = "not instrumented on this workload (0 calls)"
        else:
            sites = ", ".join(f"{site} {n}" for site, n in sorted(entry["sites"].items()))
            status = (
                f"{entry['calls']} calls, {entry['calls_per_point']:.3g}/point, "
                f"self {entry['self_ms_per_point']:.4g} ms/point [via {sites}]"
            )
        print(f"  {name:<38} {status}")
    layers: dict[str, float] = {}
    for name, entry in trace["functions"].items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + entry["self_ms_per_point"]
    total = sum(layers.values()) or 1.0
    shares = ", ".join(f"{layer} {100 * ms / total:.1f}%" for layer, ms in layers.items())
    print(f"self-time share by layer: {shares}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="one set-up, one pass (two traced), 3-spin xy chain"
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spinheat" / "__init__.py").is_file():
        print("perfbench: no src/spinheat here; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    declared = _declared(root)
    inputs = workloads.draw_inputs(args.workload, args.seed, args.smoke)
    work = root / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    request = {"inputs": inputs, "seconds": args.seconds, "trace": bool(args.trace)}
    if args.smoke:
        request["max_passes"] = 2 if args.trace else 1
    if args.trace:
        request["spans_path"] = str(root / ".bench_build" / "perfbench" / f"spans-{args.workload}.csv")
    try:
        measured = run_worker(dict(request, mode="measure", out_dir=str(work)), root, deadline)
        setups = [measured]
        for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
            setups.append(run_worker(dict(request, mode="setup", out_dir=str(work)), root, deadline))
    except WorkerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = measured["passes"]
    attempted = sum(p["points"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    identical = sum(p["identical"] for p in passes)
    timed = [p for p in passes if not p["traced"] and p["error"] is None]
    rates = [p["points"] / p["seconds"] for p in timed]
    # The median rate is rescaled by the median host-speed probe of the run, so
    # that the host's drift (about 20% over minutes) cancels; see NOTES.md.
    probe_ref = workloads.PROBE_REFERENCE_S[inputs["kind"]]
    probe_s = statistics.median(measured["probes"])
    setup_q = _quartiles([w["setup_s"] for w in setups])
    pass_q = _quartiles([p["seconds"] for p in timed]) if timed else (math.nan,) * 3
    end_to_end = {
        "setup_s": setup_q[1],
        "points_per_s": statistics.median(rates) * probe_s / probe_ref if rates else 0.0,
        "peak_rss_mb": measured["peak_rss_mb"],
        "fail_frac": failed / attempted if attempted else 1.0,
    }
    environment = {
        "git_commit": _git_commit(root),
        "source_sha256_16": _source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        **measured["environment"],
        "blas_threads": BLAS_THREADS,
        "blas_pin_reason": BLAS_PIN_REASON,
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs: {json.dumps({k: v for k, v in inputs.items() if k != 'pairs'})}")
    print(f"environment: {json.dumps(environment)}")
    print(
        f"setup_s      {end_to_end['setup_s']:.4f} s  "
        f"(wall-time median of {len(setups)} fresh interpreters; "
        f"q1 {setup_q[0]:.4f}, q3 {setup_q[2]:.4f})"
    )
    print(
        f"points_per_s {end_to_end['points_per_s']:.4f} points/s  (median of {len(timed)} untraced "
        f"passes of {timed[0]['points'] if timed else 0} points, at the reference host speed; "
        f"pass s q1 {pass_q[0]:.4f}, median {pass_q[1]:.4f}, q3 {pass_q[2]:.4f})"
    )
    if timed:
        print(
            f"  wall-time median {statistics.median(rates):.4f} points/s; host probe median "
            f"{1000 * probe_s:.1f} ms of {len(measured['probes'])} against the reference "
            f"{1000 * probe_ref:.0f} ms"
        )
    print(f"peak_rss_mb  {end_to_end['peak_rss_mb']:.2f} MB  (measuring worker, ru_maxrss)")
    print(f"fail_frac    {end_to_end['fail_frac']:.6g} ratio  ({failed} of {attempted} points)")
    print(f"byte-identical J cells vs seed references: {identical} of {attempted} (information only)")
    for problem in measured["problems"]:
        print(f"problem: {problem}")

    try:
        if args.trace:
            _report_trace(measured["trace"], args.workload)
            metrics = _select(measured["trace"]["metrics"], declared["per_layer"])
        else:
            metrics = _select(end_to_end, declared["end_to_end"])
    except WorkerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    correct = failed == 0 and attempted > 0 and all(p["error"] is None for p in passes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
