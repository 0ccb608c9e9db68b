"""Parameter sweeps, CSV datasets, and the acceptance suite.

Every dataset is written as a flat CSV with a units comment, parameter
comment lines, a header row, and values at 15 significant digits.  Sweep
points are independent, so grids can be evaluated across worker processes;
rows are always assembled in grid order, which keeps the output files
byte-for-byte reproducible.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .lindblad import (
    DissipatorStyle,
    assemble_liouvillian,
    standard_baths,
    trace_row,
    unvectorize,
    vectorize,
)
from .spinops import ChainModel, SpinChainSpec, build_hamiltonian, spectral_decompose
from .steady import (
    cross_validate,
    steady_state_nullspace,
    steady_state_rate_equations,
)
from .thermo import current_from_cycle, heat_currents, steady_net_current

UNITS_COMMENT = "# hbar=1, kB=1, energies in units of h"

_SWEEP_KINDS = ("temperature", "coupling", "gradient")
_STYLES = ("global", "local", "both")
_SCALES = ("linear", "log")


class ConfigError(ValueError):
    """A sweep configuration is malformed."""


# ---------------------------------------------------------------------------
# sweep configuration


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a chain, a dissipator style, and a 1-d parameter grid.

    `sweep` selects the grid variable: "temperature" scans the left bath
    temperature at fixed `t_right`; "coupling" scans the inter-spin
    coupling at fixed `t_left`/`t_right`; "gradient" scans the temperature
    difference at fixed mean temperature `t_mean`.
    """

    model: ChainModel
    n_spins: int
    field_h: float
    coupling_delta: float | None
    style: str
    kappa: float
    sweep: str
    start: float
    stop: float
    points: int
    scale: str
    t_left: float | None = None
    t_right: float | None = None
    t_mean: float | None = None
    output_path: str | None = None

    def __post_init__(self):
        if self.sweep not in _SWEEP_KINDS:
            raise ConfigError(f"sweep must be one of {_SWEEP_KINDS}, got {self.sweep!r}")
        if self.style not in _STYLES:
            raise ConfigError(f"style must be one of {_STYLES}, got {self.style!r}")
        if self.scale not in _SCALES:
            raise ConfigError(f"scale must be one of {_SCALES}, got {self.scale!r}")
        if self.points < 2:
            raise ConfigError("a grid needs at least 2 points")
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise ConfigError("grid endpoints must be finite")
        if not self.start < self.stop:
            raise ConfigError("grid must be ascending: start < stop")
        if self.scale == "log" and self.start <= 0:
            raise ConfigError("log grids need start > 0")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigError("kappa must be finite and positive")

        needed = {
            "temperature": ("t_right",),
            "coupling": ("t_left", "t_right"),
            "gradient": ("t_mean",),
        }[self.sweep]
        for key in ("t_left", "t_right", "t_mean"):
            value = getattr(self, key)
            if key in needed and value is None:
                raise ConfigError(f"{self.sweep} sweep requires {key}")
            if key not in needed and value is not None:
                raise ConfigError(f"{key} does not apply to a {self.sweep} sweep")
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and nonnegative")
        if self.sweep == "coupling":
            if self.coupling_delta is not None:
                raise ConfigError("delta is scanned by a coupling sweep; do not fix it")
            if self.start < 0:
                raise ConfigError("coupling grid must be nonnegative")
        else:
            if self.coupling_delta is None:
                raise ConfigError(f"{self.sweep} sweep requires delta")
        if self.sweep == "temperature" and self.start < 0:
            raise ConfigError("temperature grid must be nonnegative")
        # Constructing a chain spec validates n_spins/h/model consistency.
        try:
            self.chain_spec(self.coupling_delta if self.coupling_delta is not None else 0.0)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def chain_spec(self, delta: float | None = None) -> SpinChainSpec:
        value = self.coupling_delta if delta is None else delta
        return SpinChainSpec(self.n_spins, self.field_h, value, self.model)

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(np.log10(self.start), np.log10(self.stop), self.points)
        return np.linspace(self.start, self.stop, self.points)

    def styles(self) -> tuple[DissipatorStyle, ...]:
        if self.style == "both":
            return (DissipatorStyle.GLOBAL, DissipatorStyle.LOCAL)
        return (DissipatorStyle(self.style),)


_CONFIG_KEYS = (
    "model",
    "spins",
    "h",
    "delta",
    "style",
    "kappa",
    "sweep",
    "start",
    "stop",
    "points",
    "scale",
    "t_left",
    "t_right",
    "t_mean",
    "out",
)

_DEFAULTS = {"spins": "2", "h": "1.0", "style": "global", "kappa": "1.0", "scale": "linear"}


def _config_from_pairs(pairs: dict[str, str]) -> SweepConfig:
    unknown = set(pairs) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    values = dict(_DEFAULTS)
    values.update(pairs)
    for key in ("model", "sweep", "start", "stop", "points"):
        if key not in values:
            raise ConfigError(f"missing required key: {key}")

    def as_float(key):
        try:
            return float(values[key])
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {values[key]!r}") from None

    try:
        model = ChainModel(values["model"])
    except ValueError:
        raise ConfigError(f"model must be 'ising' or 'xy', got {values['model']!r}") from None
    try:
        points = int(values["points"])
        spins = int(values["spins"])
    except ValueError as err:
        raise ConfigError(str(err)) from None

    return SweepConfig(
        model=model,
        n_spins=spins,
        field_h=as_float("h"),
        coupling_delta=as_float("delta") if "delta" in values else None,
        style=values["style"],
        kappa=as_float("kappa"),
        sweep=values["sweep"],
        start=as_float("start"),
        stop=as_float("stop"),
        points=points,
        scale=values["scale"],
        t_left=as_float("t_left") if "t_left" in values else None,
        t_right=as_float("t_right") if "t_right" in values else None,
        t_mean=as_float("t_mean") if "t_mean" in values else None,
        output_path=values.get("out"),
    )


def parse_config_text(text: str) -> SweepConfig:
    """Parse a flat key=value configuration file."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return _config_from_pairs(pairs)


def read_embedded_config(csv_text: str) -> SweepConfig:
    """Recover the SweepConfig recorded in a sweep CSV's comment lines."""
    pairs: dict[str, str] = {}
    for raw in csv_text.splitlines():
        if not raw.startswith("#") or " = " not in raw:
            continue
        key, _, value = raw.lstrip("# ").partition(" = ")
        pairs[key.strip()] = value.strip()
    return _config_from_pairs(pairs)


def _config_param_lines(cfg: SweepConfig) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = [
        ("model", cfg.model.value),
        ("spins", str(cfg.n_spins)),
        ("h", repr(cfg.field_h)),
    ]
    if cfg.coupling_delta is not None:
        out.append(("delta", repr(cfg.coupling_delta)))
    out += [
        ("style", cfg.style),
        ("kappa", repr(cfg.kappa)),
        ("sweep", cfg.sweep),
        ("start", repr(cfg.start)),
        ("stop", repr(cfg.stop)),
        ("points", str(cfg.points)),
        ("scale", cfg.scale),
    ]
    for key in ("t_left", "t_right", "t_mean"):
        value = getattr(cfg, key)
        if value is not None:
            out.append((key, repr(value)))
    return out


# ---------------------------------------------------------------------------
# CSV output


def _format_cell(value: float | None) -> str:
    return "" if value is None else f"{value:.15g}"


def _write_csv(
    path: Path,
    columns: Sequence[str],
    rows: Iterable[Sequence[float | None]],
    params: Sequence[tuple[str, str]],
) -> Path:
    lines = [UNITS_COMMENT]
    lines += [f"# {key} = {value}" for key, value in params]
    lines.append(",".join(columns))
    lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def _parallel_map(fn: Callable, items: Sequence, jobs: int | None) -> list:
    items = list(items)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


# ---------------------------------------------------------------------------
# figure datasets


def _sweep_row(cfg: SweepConfig, x: float) -> tuple[float | None, ...]:
    if cfg.sweep == "temperature":
        spec, t_left, t_right = cfg.chain_spec(), x, cfg.t_right
    elif cfg.sweep == "coupling":
        spec, t_left, t_right = cfg.chain_spec(x), cfg.t_left, cfg.t_right
    else:
        spec = cfg.chain_spec()
        t_left = cfg.t_mean + 0.5 * x
        t_right = cfg.t_mean - 0.5 * x
        if t_left < 0 or t_right < 0:
            return tuple(None for _ in cfg.styles())
    return tuple(
        steady_net_current(spec, cfg.kappa, t_left, t_right, style)
        for style in cfg.styles()
    )


def run_sweep(cfg: SweepConfig, out: Path | None = None, jobs: int | None = 1) -> Path:
    """Evaluate a configured sweep and write its CSV dataset."""
    if out is None:
        if cfg.output_path is None:
            raise ConfigError("no output path: set 'out' in the config or pass one")
        out = Path(cfg.output_path)
    grid = cfg.grid()
    rows_tail = _parallel_map(functools.partial(_sweep_row, cfg), grid, jobs)
    x_name = {"temperature": "T_L", "coupling": "delta", "gradient": "delta_T"}[cfg.sweep]
    columns = [x_name] + [f"J_{style.value}" for style in cfg.styles()]
    rows = [(x, *tail) for x, tail in zip(grid, rows_tail)]
    return _write_csv(out, columns, rows, _config_param_lines(cfg))


_FIG2_DELTAS = (0.01, 0.1, 0.5)


def _fig2_row(kappa: float, t_left: float) -> tuple[float, ...]:
    currents = [
        steady_net_current(
            SpinChainSpec(2, 1.0, delta, ChainModel.ISING_ZZ),
            kappa,
            t_left,
            0.0,
            DissipatorStyle.GLOBAL,
        )
        for delta in _FIG2_DELTAS
    ]
    phenomenological = steady_net_current(
        SpinChainSpec(2, 1.0, _FIG2_DELTAS[0], ChainModel.ISING_ZZ),
        kappa,
        t_left,
        0.0,
        DissipatorStyle.LOCAL,
    )
    return (*currents, phenomenological)


def run_fig2(kappa: float, out_dir: Path, jobs: int | None = 1) -> Path:
    """Current versus left temperature at T_R = 0, three couplings.

    The grid is logarithmic over 0.01h..100h with 200 points, preceded by
    an exact T_L = 0 row.  The last column is the phenomenological current
    at the weakest coupling, which stays at zero.
    """
    grid = np.concatenate([[0.0], np.logspace(-2, 2, 200)])
    tails = _parallel_map(functools.partial(_fig2_row, kappa), grid, jobs)
    columns = ["T_L"] + [f"J_delta_{d:g}" for d in _FIG2_DELTAS] + [
        f"J_ph_delta_{_FIG2_DELTAS[0]:g}"
    ]
    rows = [(t, *tail) for t, tail in zip(grid, tails)]
    params = [
        ("dataset", "fig2"),
        ("kappa", repr(kappa)),
        ("t_right", "0.0"),
        ("deltas", ",".join(f"{d:g}" for d in _FIG2_DELTAS)),
    ]
    return _write_csv(Path(out_dir) / "fig2.csv", columns, rows, params)


_FIG3_COLD = (0.0, 0.1, 0.3)
_FIG3_HOT = 10.0
_FIG3_TBARS = (0.5, 5.0)


def _fig3_coupling_row(kappa: float, hot_side: str, delta: float) -> tuple[float, ...]:
    spec = SpinChainSpec(2, 1.0, delta, ChainModel.ISING_ZZ)
    out = []
    for cold in _FIG3_COLD:
        t_left, t_right = (_FIG3_HOT, cold) if hot_side == "left" else (cold, _FIG3_HOT)
        out.append(steady_net_current(spec, kappa, t_left, t_right, DissipatorStyle.GLOBAL))
    return tuple(out)


def _fig3_gradient_row(kappa: float, delta_t: float) -> tuple[float | None, ...]:
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
    out: list[float | None] = []
    for tbar in _FIG3_TBARS:
        t_left = tbar + 0.5 * delta_t
        t_right = tbar - 0.5 * delta_t
        if t_left < 0 or t_right < 0:
            out.append(None)
        else:
            out.append(
                steady_net_current(spec, kappa, t_left, t_right, DissipatorStyle.GLOBAL)
            )
    return tuple(out)


def gradient_grid(half_width: float = 2.0, points: int = 101) -> np.ndarray:
    """Symmetric temperature-difference grid, including zero."""
    return np.linspace(-half_width, half_width, points)


def run_fig3(kappa: float, out_dir: Path, jobs: int | None = 1) -> tuple[Path, Path, Path]:
    """Current versus coupling with one hot bath, plus the diode curve.

    Writes three files: panel (a) has the hot bath on the left and scans
    the coupling for three cold-bath temperatures; panel (b) swaps the
    roles; the inset scans the temperature difference at fixed mean
    temperature.  Inset cells where one bath would go below zero
    temperature are left empty.
    """
    out_dir = Path(out_dir)
    deltas = np.linspace(0.0, 1.0, 102)[1:-1]  # interior of (0, 1)

    paths = []
    for panel, hot_side, fixed in (("a", "left", "t_right"), ("b", "right", "t_left")):
        tails = _parallel_map(
            functools.partial(_fig3_coupling_row, kappa, hot_side), deltas, jobs
        )
        columns = ["delta"] + [f"J_{fixed}_{c:g}" for c in _FIG3_COLD]
        rows = [(d, *tail) for d, tail in zip(deltas, tails)]
        params = [
            ("dataset", f"fig3{panel}"),
            ("kappa", repr(kappa)),
            ("hot_side", hot_side),
            ("t_hot", repr(_FIG3_HOT)),
            ("t_cold_values", ",".join(f"{c:g}" for c in _FIG3_COLD)),
        ]
        paths.append(_write_csv(out_dir / f"fig3{panel}.csv", columns, rows, params))

    grid = gradient_grid()
    tails = _parallel_map(functools.partial(_fig3_gradient_row, kappa), grid, jobs)
    columns = ["delta_T"] + [f"J_tbar_{t:g}" for t in _FIG3_TBARS]
    rows = [(dt, *tail) for dt, tail in zip(grid, tails)]
    params = [
        ("dataset", "fig3_inset"),
        ("kappa", repr(kappa)),
        ("delta", "0.5"),
        ("tbar_values", ",".join(f"{t:g}" for t in _FIG3_TBARS)),
    ]
    paths.append(_write_csv(out_dir / "fig3_inset.csv", columns, rows, params))
    return tuple(paths)


def _xy_row(spec: SpinChainSpec, kappa: float, t_left: float) -> tuple[float, float]:
    j_global = steady_net_current(spec, kappa, t_left, 0.0, DissipatorStyle.GLOBAL)
    j_local = steady_net_current(spec, kappa, t_left, 0.0, DissipatorStyle.LOCAL)
    return (j_global, j_local)


def run_xy_comparison(
    n_spins: int,
    kappa: float,
    out_dir: Path,
    jobs: int | None = 1,
    points: int = 60,
) -> Path:
    """Global versus local currents for the XY chain at delta = h, T_R = 0.

    The local treatment produces a current that peaks and then dies away
    as the left bath gets hotter; the eigenbasis treatment saturates.
    """
    if not 2 <= n_spins <= 6:
        raise ConfigError("xy comparison supports 2 to 6 spins")
    spec = SpinChainSpec(n_spins, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
    grid = np.logspace(-2, 2, points)
    tails = _parallel_map(functools.partial(_xy_row, spec, kappa), grid, jobs)
    rows = [(t, *tail) for t, tail in zip(grid, tails)]
    params = [
        ("dataset", "xy_compare"),
        ("spins", str(n_spins)),
        ("kappa", repr(kappa)),
        ("delta", "1.0"),
        ("t_right", "0.0"),
    ]
    return _write_csv(
        Path(out_dir) / "xy_compare.csv", ["T_L", "J_global", "J_local"], rows, params
    )


# ---------------------------------------------------------------------------
# acceptance suite


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    expected: str
    observed: str
    tolerance: str
    passed: bool
    seconds: float


def _ising(delta: float, h: float = 1.0) -> SpinChainSpec:
    return SpinChainSpec(2, h, delta, ChainModel.ISING_ZZ)


def _check_saturation_current() -> tuple[str, str, str, bool]:
    worst = 0.0
    for delta in (0.01, 0.1, 0.5):
        j = steady_net_current(_ising(delta), 1.0, 1e4, 0.0, DissipatorStyle.GLOBAL)
        target = 0.5 * delta**2
        worst = max(worst, abs(j - target) / target)
    return ("J -> kappa*delta^2/2", f"max rel err {worst:.2e}", "rel 1e-3", worst <= 1e-3)


def _check_cycle_rate_limit() -> tuple[str, str, str, bool]:
    worst = 0.0
    for delta in (0.01, 0.1, 0.5):
        _, rates = steady_state_rate_equations(1.0, delta, 1.0, 1e4, 0.0)
        target = -delta / 4.0
        worst = max(worst, abs(rates.cycle_gamma - target) / abs(target))
    return ("Gamma -> -kappa*delta/4", f"max rel err {worst:.2e}", "rel 1e-3", worst <= 1e-3)


def _check_optimal_rectification() -> tuple[str, str, str, bool]:
    worst_reverse = 0.0
    least_forward = np.inf
    for delta in (0.1, 0.3, 0.5, 0.9):
        reverse = steady_net_current(_ising(delta), 1.0, 0.0, 10.0, DissipatorStyle.GLOBAL)
        forward = steady_net_current(_ising(delta), 1.0, 10.0, 0.0, DissipatorStyle.GLOBAL)
        worst_reverse = max(worst_reverse, abs(reverse))
        least_forward = min(least_forward, forward)
    passed = worst_reverse < 1e-12 and least_forward > 1e-3
    return (
        "cold-left |J| = 0, swapped J > 0",
        f"max |J_rev| {worst_reverse:.1e}, min J_fwd {least_forward:.2e}",
        "1e-12 / 1e-3",
        passed,
    )


def _check_phenomenological_null_current() -> tuple[str, str, str, bool]:
    worst = 0.0
    temperatures = (0.0, 0.5, 1.0, 2.0, 5.0)
    for t_left in temperatures:
        for t_right in temperatures:
            for delta in (0.1, 0.5, 0.9):
                j = steady_net_current(
                    _ising(delta), 1.0, t_left, t_right, DissipatorStyle.LOCAL
                )
                worst = max(worst, abs(j))
    return ("J_ph = 0 on 5x5x3 grid", f"max |J| {worst:.1e}", "abs 1e-10", worst < 1e-10)


def _check_reverse_leakage_ratio() -> tuple[str, str, str, bool]:
    """Reverse current at delta = 0.3 against the cold-link bound B.

    With the hot bath on the right, heat runs backwards round the
    four-level cycle (levels 1..4 ascending, as in
    `steady_state_rate_equations`): 1->2 and 3->4 absorb from the right
    bath, 4->1 emits into the left bath, and 2->3 must absorb h - delta
    from the cold left bath.  The net rate on that link is

        Gamma = kappa (h-delta) [n p2 - (1+n) p3] <= kappa (h-delta) n,

    with n = n_BE(h-delta, T_cold) and p2 <= 1.  Each cycle carries 2*delta
    from right to left, so

        |J_rev| <= B = 2 delta kappa (h-delta) n_BE(h-delta, T_cold).

    B falls off like exp(-(h-delta)/T_cold), which is the near-isolation
    the criterion checks.  A fixed ratio to the forward current is not a
    property of the model: once criteria 1 and 2 pin the rates to the
    ohmic kappa*omega*(1+n) and the gaps to h +- delta and delta, the ratio
    |J_rev|/J_fwd here is 2.7e-3.  B is evaluated with math.expm1 rather
    than `lindblad.bose_einstein`, so a defect in the program's occupation
    factor cannot move both sides of the comparison.
    """
    h, delta, kappa, t_cold, t_hot = 1.0, 0.3, 1.0, 0.1, 10.0
    reverse = steady_net_current(_ising(delta, h), kappa, t_cold, t_hot, DissipatorStyle.GLOBAL)
    forward = steady_net_current(_ising(delta, h), kappa, t_hot, t_cold, DissipatorStyle.GLOBAL)
    bound = 2.0 * delta * kappa * (h - delta) / math.expm1((h - delta) / t_cold)
    return (
        "|J(0.1h,10h)| <= cold-link bound B",
        f"|J_rev|/B {abs(reverse) / bound:.2f}, |J_rev|/J_fwd {abs(reverse) / forward:.2e}",
        f"|J_rev| <= B = {bound:.2e}",
        abs(reverse) <= bound,
    )


def _check_high_mean_temperature_symmetry() -> tuple[str, str, str, bool]:
    spec = _ising(0.5)
    grid = gradient_grid()
    currents = np.array(
        [
            steady_net_current(spec, 1.0, 5.0 + 0.5 * dt, 5.0 - 0.5 * dt, DissipatorStyle.GLOBAL)
            for dt in grid
        ]
    )
    asymmetry = np.max(np.abs(currents + currents[::-1]))
    bound = 0.02 * np.max(np.abs(currents))
    return (
        "J odd in delta_T at mean T = 5h",
        f"max |J(dT)+J(-dT)| {asymmetry:.2e} vs {bound:.2e}",
        "2% of max |J|",
        asymmetry < bound,
    )


def _check_solver_route_equivalence() -> tuple[str, str, str, bool]:
    worst_population = 0.0
    worst_current = 0.0
    temperatures = np.linspace(0.0, 5.0, 10)
    for t_left in temperatures:
        for t_right in temperatures:
            report = cross_validate(1.0, 0.5, 1.0, t_left, t_right)
            worst_population = max(worst_population, report.population_deviation)
            j = steady_net_current(_ising(0.5), 1.0, t_left, t_right, DissipatorStyle.GLOBAL)
            _, rates = steady_state_rate_equations(1.0, 0.5, 1.0, t_left, t_right)
            worst_current = max(worst_current, abs(j - current_from_cycle(0.5, rates.cycle_gamma)))
    passed = worst_population <= 1e-8 and worst_current <= 1e-9
    return (
        "null space vs rate equations",
        f"pop dev {worst_population:.1e}, J dev {worst_current:.1e}",
        "1e-8 / 1e-9",
        passed,
    )


def _check_equilibrium_gibbs_state() -> tuple[str, str, str, bool]:
    worst_state = 0.0
    worst_current = 0.0
    spec = _ising(0.5)
    H = build_hamiltonian(spec)
    decomp = spectral_decompose(H, spec)
    for t in (0.2, 1.0, 5.0):
        baths = standard_baths(spec, 1.0, t, t, DissipatorStyle.GLOBAL)
        liouvillian = assemble_liouvillian(H, baths)
        state = steady_state_nullspace(liouvillian)
        weights = np.exp(-decomp.energies / t)
        gibbs_eig = np.diag(weights / weights.sum()).astype(complex)
        gibbs = decomp.eigenvectors @ gibbs_eig @ decomp.eigenvectors.conj().T
        worst_state = max(worst_state, float(np.max(np.abs(state.rho - gibbs))))
        worst_current = max(worst_current, abs(heat_currents(liouvillian, state.rho, H).j_net))
    passed = worst_state <= 1e-8 and worst_current < 1e-12
    return (
        "equal temperatures give Gibbs",
        f"state dev {worst_state:.1e}, |J| {worst_current:.1e}",
        "1e-8 / 1e-12",
        passed,
    )


def _check_xy_saturation_vs_local_decay() -> tuple[str, str, str, bool]:
    spec = SpinChainSpec(4, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
    grid = np.logspace(-2, 2, 25)
    local = np.array(
        [steady_net_current(spec, 1.0, t, 0.0, DissipatorStyle.LOCAL) for t in grid]
    )
    peak = int(np.argmax(local))
    interior_peak = 0 < peak < len(grid) - 1
    local_decayed = local[-1] < 0.5 * local[peak]
    j_100 = steady_net_current(spec, 1.0, 100.0, 0.0, DissipatorStyle.GLOBAL)
    j_50 = steady_net_current(spec, 1.0, 50.0, 0.0, DissipatorStyle.GLOBAL)
    global_saturated = j_100 >= 0.99 * j_50
    passed = interior_peak and local_decayed and global_saturated
    return (
        "local peaks and dies, global saturates",
        (
            f"local end/peak {local[-1] / local[peak]:.2f}, "
            f"global J(100h)/J(50h) {j_100 / j_50:.4f}"
        ),
        "end<0.5*peak / ratio>=0.99",
        passed,
    )


def _check_generator_sanity() -> tuple[str, str, str, bool]:
    rng = np.random.default_rng(20260809)
    worst_trace = 0.0
    worst_hermiticity = 0.0
    worst_spectrum = -np.inf
    for trial in range(20):
        h = rng.uniform(0.5, 2.0)
        delta = rng.uniform(0.05, 0.95) * h
        kappa = rng.uniform(0.5, 2.0)
        t_left, t_right = rng.uniform(0.0, 5.0, size=2)
        style = DissipatorStyle.GLOBAL if trial % 2 == 0 else DissipatorStyle.LOCAL
        if trial % 5 == 0:
            spec = SpinChainSpec(3, h, delta, ChainModel.XY_TRANSVERSE)
        else:
            spec = SpinChainSpec(2, h, delta, ChainModel.ISING_ZZ)
        H = build_hamiltonian(spec)
        baths = standard_baths(spec, kappa, t_left, t_right, style)
        liouvillian = assemble_liouvillian(H, baths)

        worst_trace = max(
            worst_trace, float(np.max(np.abs(trace_row(liouvillian.dim) @ liouvillian.matrix)))
        )
        d = liouvillian.dim
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        image = unvectorize(liouvillian.matrix @ vectorize(x), d)
        image_dagger = unvectorize(liouvillian.matrix @ vectorize(x.conj().T), d)
        worst_hermiticity = max(
            worst_hermiticity, float(np.max(np.abs(image.conj().T - image_dagger)))
        )
        worst_spectrum = max(
            worst_spectrum, float(np.max(np.real(np.linalg.eigvals(liouvillian.matrix))))
        )

    # Clausius: heat never flows from the colder into the hotter bath.
    worst_sign = 0.0
    temperatures = (0.0, 0.5, 1.0, 2.0, 5.0)
    for t_left in temperatures:
        for t_right in temperatures:
            if t_left <= t_right:
                continue
            j = steady_net_current(_ising(0.5), 1.0, t_left, t_right, DissipatorStyle.GLOBAL)
            worst_sign = min(worst_sign, j)

    passed = (
        worst_trace < 1e-10
        and worst_hermiticity < 1e-10
        and worst_spectrum <= 1e-10
        and worst_sign >= -1e-12
    )
    return (
        "trace/hermiticity/spectrum/Clausius",
        (
            f"tr {worst_trace:.1e}, herm {worst_hermiticity:.1e}, "
            f"Re {worst_spectrum:.1e}, J_min {worst_sign:.1e}"
        ),
        "1e-10 / 1e-10 / 1e-10 / -1e-12",
        passed,
    )


ACCEPTANCE_CHECKS: tuple[tuple[str, Callable[[], tuple[str, str, str, bool]]], ...] = (
    ("saturation current", _check_saturation_current),
    ("cycle rate limit", _check_cycle_rate_limit),
    ("optimal rectification", _check_optimal_rectification),
    ("phenomenological null current", _check_phenomenological_null_current),
    ("reverse leakage ratio", _check_reverse_leakage_ratio),
    ("high mean temperature symmetry", _check_high_mean_temperature_symmetry),
    ("solver route equivalence", _check_solver_route_equivalence),
    ("equilibrium Gibbs state", _check_equilibrium_gibbs_state),
    ("xy saturation vs local decay", _check_xy_saturation_vs_local_decay),
    ("generator sanity", _check_generator_sanity),
)


def acceptance_criteria() -> list[CriterionResult]:
    """Run every acceptance check, timing each one."""
    results = []
    for index, (name, check) in enumerate(ACCEPTANCE_CHECKS, start=1):
        started = time.perf_counter()
        expected, observed, tolerance, passed = check()
        elapsed = time.perf_counter() - started
        results.append(
            CriterionResult(index, name, expected, observed, tolerance, passed, elapsed)
        )
    return results


_TABLE_HEADER = ("#", "criterion", "expected", "observed", "tolerance", "time", "status")
_RIGHT_ALIGNED = (0, 5)  # the index and time columns


def _criterion_cells(result: CriterionResult) -> tuple[str, ...]:
    return (
        str(result.index),
        result.name,
        result.expected,
        result.observed,
        result.tolerance,
        f"{result.seconds:.2f}s",
        "PASS" if result.passed else "FAIL",
    )


def format_table(results: Sequence[CriterionResult]) -> list[str]:
    """Header, rule and one line per result, each column as wide as its widest cell."""
    rows = [_TABLE_HEADER] + [_criterion_cells(result) for result in results]
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    lines = [
        "  ".join(
            cell.rjust(width) if k in _RIGHT_ALIGNED else cell.ljust(width)
            for k, (cell, width) in enumerate(zip(row, widths))
        ).rstrip()
        for row in rows
    ]
    lines.insert(1, "-" * max(len(line) for line in lines))
    return lines


def format_criterion(result: CriterionResult) -> str:
    """One result as a table line, its columns sized from the header and itself."""
    return format_table([result])[-1]


def run_acceptance(stream=None) -> int:
    """Print the acceptance table; exit status 1 if anything failed."""
    stream = stream or sys.stdout
    results = acceptance_criteria()
    for line in format_table(results):
        print(line, file=stream)
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} criteria passed",
        file=stream,
    )
    return 1 if failed else 0
