"""Spans around calls into spinheat's layers, recorded from outside the package.

`install` replaces each traced public function in every spinheat module
namespace that binds it (``thermo.steady_net_current`` and
``experiments.steady_net_current`` are the same function bound twice), so
calls are caught whichever module makes them.  Nothing under src/ changes.
Spans hold a name, a start, an end and a parent index; they stay in memory
and are written out when the worker exits.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# layer (module of src/spinheat) -> public functions timed in that layer
TRACED = {
    "spinops": ("build_hamiltonian", "spectral_decompose"),
    "lindblad": (
        "standard_baths",
        "global_jump_operators",
        "global_dissipator",
        "local_dissipator",
        "assemble_liouvillian",
    ),
    "steady": ("steady_state_nullspace",),
    "thermo": ("heat_currents", "steady_net_current"),
    "experiments": ("run_fig2", "run_fig3", "run_sweep"),
}

RUNNERS = ("experiments.run_fig2", "experiments.run_fig3", "experiments.run_sweep")
# Wrappers whose own work is only calling traced functions: the self time of
# these spans is where work in a function nobody wraps would land.
WRAPPERS = RUNNERS + ("thermo.steady_net_current",)


def _observe_jumps(obs, result):
    obs["jumps"].append(len(result))


def _observe_local(obs, result):
    obs["jumps"].append(1)  # one sigma-minus per local bath; its adjoint is the second channel


def _observe_generator(obs, result):
    obs["generator_dim"].append(result.matrix.shape[0])
    nbytes = result.matrix.nbytes + result.h_part.nbytes
    obs["generator_bytes"].append(nbytes + sum(part.nbytes for part in result.bath_parts))


def _observe_steady(obs, result):
    obs["kernel_dim"].append(result.kernel_dim)
    obs["residual"].append(result.residual)


OBSERVERS = {
    "lindblad.global_jump_operators": _observe_jumps,
    "lindblad.local_dissipator": _observe_local,
    "lindblad.assemble_liouvillian": _observe_generator,
    "steady.steady_state_nullspace": _observe_steady,
}


class Tracer:
    """In-memory span recorder; records only while `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.sites: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.observations: dict[str, list] = defaultdict(list)
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, site: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.names)
            self.names.append(name)
            self.sites.append(site)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.starts[index] = start
                self.ends[index] = end
            if observe is not None:
                observe(self.observations, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each TRACED function in the loaded spinheat modules.

        `bindings[name]` lists the module namespaces wrapped; an empty list
        means the function no longer exists and the layer is not instrumented.
        """
        modules = {
            mod_name: mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "spinheat" or mod_name.startswith("spinheat."))
        }
        for layer, functions in TRACED.items():
            home = modules.get(f"spinheat.{layer}")
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name, None) if home is not None else None
                self.bindings[name] = []
                if original is None:
                    continue
                for mod_name, mod in modules.items():
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, self.wrap(name, mod_name, original))
                        self.bindings[name].append(mod_name)

    def aggregate(self) -> dict[str, dict]:
        """Calls and self seconds per span name, and calls per binding site."""
        child_time = defaultdict(float)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "sites": {}})
            entry["calls"] += 1
            entry["self_s"] += self.ends[i] - self.starts[i] - child_time[i]
            entry["sites"][self.sites[i]] = entry["sites"].get(self.sites[i], 0) + 1
        return out

    def durations(self, name: str) -> list[float]:
        return [self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name]

    def write(self, path: Path) -> None:
        """Write every span as CSV: index, name, site, parent, start_s, end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with path.open("w", encoding="ascii") as out:
            out.write("index,name,site,parent,start_s,end_s\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i},{name},{self.sites[i]},{self.parents[i]},"
                    f"{self.starts[i] - origin:.9f},{self.ends[i] - origin:.9f}\n"
                )
