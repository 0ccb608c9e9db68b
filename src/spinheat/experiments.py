"""Parameter sweeps, CSV datasets, and the acceptance suite.

Every dataset, the figures and the configured sweeps alike, is a grid of
x values and a list of curves.  The x variable is the left temperature
T_L, the coupling delta, or the temperature difference delta_T at a fixed
mean; a curve is one J column, fixed by a chain, a dissipator style, and
the temperatures x leaves free.  A command solves all its grids at once
(fig3 its panels' coupling grid and its inset's delta_T grid): a column
function evaluates every curve of every grid over a stretch of each grid,
groups the curves by the chain stack they share (`thermo._stack_key`:
the model, chain length and field of their chain, and on the Gaussian
route the style), and builds each curve's cells as arrays of its grid
(flat cell indices, temperatures, members).  It keys a curve's members of
the group's chain stack once per curve on its fixed coupling, or on a
delta grid itself once per grid and style, and each group takes one chain
step over each style's distinct couplings and one stacked point step over
its cells (`thermo._net_currents`).  So fig2's three global curves and
its local one are one group, and so are fig3's panels and inset.  The
currents come back as a (rows, curves) table per grid in which NaN, and
only NaN, marks an empty cell, where a bath would drop below zero
temperature: the point steps refuse any current that is not finite.  Each
dataset is written as a flat CSV with a units comment, parameter comment
lines, a header row, and values at 15 significant digits, an empty cell
as nothing.  The rows of a command's grids are evaluated in contiguous
chunks of a bounded number of cells, which bounds a run's memory: one
worker takes them in place, one after another, and more workers take
them across worker processes.  Rows are always assembled in grid order,
and a stack member does not depend on the stack it is solved in, which
keeps the output files byte-for-byte reproducible.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .lindblad import DissipatorStyle, standard_baths
from .oracle import (
    assemble_liouvillian,
    cross_validate,
    current_from_cycle,
    steady_state_nullspace,
    steady_state_rate_equations,
    trace_row,
    unvectorize,
    vectorize,
)
from .spinops import ChainModel, SpinChainSpec, build_hamiltonian, spectral_decompose
from .steady import SteadyStateError
from .thermo import _net_currents, _stack_key, rectification, steady_net_current

UNITS_COMMENT = "# hbar=1, kB=1, energies in units of h"

# each sweep kind: its x variable, which heads the first CSV column, and the
# temperatures that x leaves fixed, which its config must set and no other
_SWEEPS = {
    "temperature": ("T_L", ("t_right",)),
    "coupling": ("delta", ("t_left", "t_right")),
    "gradient": ("delta_T", ("t_mean",)),
}
_STYLES = ("global", "local", "both")
_SCALES = ("linear", "log")

# The longest chain a run accepts.  The XY chain's transport route costs
# O(n^3) (see `gaussian`), so the cap no longer guards memory; it keeps runs
# within the lengths the tests check that route at: the dense oracle up to
# five spins, and closed forms (the global single-mode sum, the decoupled
# chain and the length-independent local current) up to six.
MAX_SPINS = 6


# The most cells (grid rows times curves, over all the grids of a chunk)
# one `_columns` call takes.  While it is solved, a cell of a 6-spin sweep
# holds about 3.7 kB in the local style and 2.1 kB in the global one, and
# an Ising cell 0.75 kB, so a chunk peaks near 15 MB (tracemalloc, a
# 4096-cell call on a cached chain), and every shipped command, fig2's 804
# cells the largest, is one chunk.
_CHUNK_CELLS = 4096


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
        # numbers in float fields as floats, so `field_h=1` writes `h = 1.0` as a rerun does
        for field, parse, _ in _KEYS.values():
            if parse is float and isinstance(getattr(self, field), (int, float)):
                object.__setattr__(self, field, float(getattr(self, field)))
        if self.sweep not in _SWEEPS:
            raise ConfigError(f"sweep must be one of {tuple(_SWEEPS)}, got {self.sweep!r}")
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
        try:
            # a span past the double range leaves inf and NaN points, refused below
            with np.errstate(over="ignore", invalid="ignore"):
                grid = self.grid()
        except (MemoryError, ValueError) as err:
            raise ConfigError(f"points = {self.points} is too many for one grid: {err}") from None
        if not np.isfinite(grid).all():
            raise ConfigError(f"grid points must be finite: {self.start} to {self.stop} overflows")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigError("kappa must be finite and positive")

        _, fixed = _SWEEPS[self.sweep]
        for key in ("t_left", "t_right", "t_mean"):
            value = getattr(self, key)
            if key in fixed and value is None:
                raise ConfigError(f"{self.sweep} sweep requires {key}")
            if key not in fixed and value is not None:
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
        if self.n_spins > MAX_SPINS:
            raise ConfigError(f"spins must be at most {MAX_SPINS}, got {self.n_spins}")
        # Constructing a chain spec validates n_spins/h/model consistency.
        try:
            self.chain_spec()
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def chain_spec(self) -> SpinChainSpec:
        """The chain; a coupling sweep has no delta of its own and gets 0 here."""
        delta = 0.0 if self.coupling_delta is None else self.coupling_delta
        return SpinChainSpec(self.n_spins, self.field_h, delta, self.model)

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(np.log10(self.start), np.log10(self.stop), self.points)
        return np.linspace(self.start, self.stop, self.points)

    def styles(self) -> tuple[DissipatorStyle, ...]:
        if self.style == "both":
            return (DissipatorStyle.GLOBAL, DissipatorStyle.LOCAL)
        return (DissipatorStyle(self.style),)


_REQUIRED = object()  # the default of a key every config must set

# file key -> (SweepConfig field, parser, default); an absent optional key is
# None, and the rows keep the order of the fields and of the CSV lines
_KEYS = {
    "model": ("model", ChainModel, _REQUIRED),
    "spins": ("n_spins", int, 2),
    "h": ("field_h", float, 1.0),
    "delta": ("coupling_delta", float, None),
    "style": ("style", str, "global"),
    "kappa": ("kappa", float, 1.0),
    "sweep": ("sweep", str, _REQUIRED),
    "start": ("start", float, _REQUIRED),
    "stop": ("stop", float, _REQUIRED),
    "points": ("points", int, _REQUIRED),
    "scale": ("scale", str, "linear"),
    "t_left": ("t_left", float, None),
    "t_right": ("t_right", float, None),
    "t_mean": ("t_mean", float, None),
    "out": ("output_path", str, None),
}

# what a value its parser refuses should have been, and how a parsed value is
# written back to a CSV parameter line (a str or an int as its str)
_EXPECTED = {ChainModel: "'ising' or 'xy'", int: "an integer", float: "a number"}
_FORMAT = {ChainModel: lambda model: model.value, float: repr}


def _config_from_pairs(pairs: dict[str, str]) -> SweepConfig:
    unknown = set(pairs) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for key, (_, _, default) in _KEYS.items():
        if default is _REQUIRED and key not in pairs:
            raise ConfigError(f"missing required key: {key}")
    fields = {}
    for key, (field, parse, default) in _KEYS.items():
        text = pairs.get(key)
        try:
            fields[field] = default if text is None else parse(text)
        except ValueError:
            raise ConfigError(f"{key} must be {_EXPECTED[parse]}, got {text!r}") from None
    return SweepConfig(**fields)


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
    """Every key the config sets, as (key, text) in table order; `out` names
    where the CSV goes, not what it holds, and is left out."""
    lines = []
    for key, (field, parse, _) in _KEYS.items():
        value = getattr(cfg, field)
        if value is not None and key != "out":
            lines.append((key, _FORMAT.get(parse, str)(value)))
    return lines


# ---------------------------------------------------------------------------
# CSV output


def _write_csv(
    path: Path,
    columns: Sequence[str],
    xs: np.ndarray,
    table: np.ndarray,
    params: Sequence[tuple[str, str]],
) -> Path:
    """Write a dataset: the units line, one `# key = value` line per
    parameter, the header and one line per grid point, x and then the
    row of `table`.

    Every row is formatted by one `%.15g` `%`, and the `nan` tokens of
    the rows are then blanked, so an empty (NaN) cell is written as
    nothing.  The grids are finite, and `%.15g` writes `nan` for NaN
    alone, so only empty cells lose their text.
    """
    row_format = ",".join(["%.15g"] * len(columns))
    rows = "\n".join(row_format % tuple(row) for row in np.column_stack((xs, table)).tolist())
    lines = [UNITS_COMMENT]
    lines += [f"# {key} = {value}" for key, value in params]
    lines += [",".join(columns), rows.replace("nan", "")]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def _workers(jobs: int, items: int) -> int:
    """Workers for `items` items: at most `jobs`, and no more than there
    are items or processors this process may run on (its affinity, where
    the platform reports one, else the host's processor count).  One job
    or one item needs no processor count."""
    if jobs <= 1 or items <= 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(jobs, items, usable)


# ---------------------------------------------------------------------------
# datasets: grids of x values, one column per curve


@dataclass(frozen=True)
class _Curve:
    """One J column of a dataset.

    A chain, a dissipator style, and the temperatures the x variable leaves
    fixed: t_right for T_L, t_left and t_right for delta, t_mean for delta_T.
    """

    name: str
    spec: SpinChainSpec
    style: DissipatorStyle
    t_left: float | None = None
    t_right: float | None = None
    t_mean: float | None = None


@dataclass(frozen=True)
class _Grid:
    """One dataset's x variable, its x values and its curves."""

    x_name: str
    xs: np.ndarray
    curves: Sequence[_Curve]


def _curve_temperatures(x_name: str, curve: _Curve, xs: np.ndarray) -> np.ndarray:
    """The (t_left, t_right) of one curve at every x, as a (rows, 2) array."""
    temperatures = np.empty((len(xs), 2))
    if x_name == "T_L":
        temperatures[:, 0] = xs
        temperatures[:, 1] = curve.t_right
    elif x_name == "delta":
        temperatures[:] = curve.t_left, curve.t_right
    else:  # delta_T, at fixed mean temperature
        temperatures[:, 0] = curve.t_mean + 0.5 * xs
        temperatures[:, 1] = curve.t_mean - 0.5 * xs
    return temperatures


def _columns(kappa: float, grids: Sequence[_Grid]) -> list[np.ndarray]:
    """Every curve of every grid at its grid's x values: a (rows, curves)
    table of currents per grid, row r at `xs[r]`, NaN in the empty cells,
    where a bath would drop below zero temperature.  The point steps refuse
    a current that is not finite, so NaN marks an empty cell and nothing
    else.

    The cells of all grids are one flat array, each grid's table a block of
    it in row-major order.  The curves of all grids are grouped by the
    chain stack they share (`thermo._stack_key`), so the chains of a group
    differ in the coupling alone, and on the rate route in the style.  A
    curve's cells are arrays of its grid: their flat indices, its
    temperatures (`_curve_temperatures`), all of them but where the
    delta_T sweep takes a bath below zero, and its members of the group's
    chain stack, keyed once per curve on its fixed coupling, or, for a
    delta grid, on the grid itself once per grid and style of the group.
    Each group takes one chain step over each style's distinct couplings
    and one stacked point step over its cells, curve by curve in the order
    of the grids, and its currents go into the flat array in one
    assignment.  A SteadyStateError is raised again with the failing
    cell's curve name, x name and x, those of its own grid.
    """
    starts = [0]
    for grid in grids:
        starts.append(starts[-1] + len(grid.xs) * len(grid.curves))
    cells = np.full(starts[-1], np.nan)
    # each group's first chain; each of its styles' position in the stack,
    # coupling keys and members on each delta grid, by the grid's index;
    # and the (position, cells, members, temperatures) of each of its curves
    groups: dict[tuple, tuple[SpinChainSpec, dict, list[tuple]]] = {}
    for k, (grid, start) in enumerate(zip(grids, starts)):
        width = len(grid.curves)
        first_cells = np.arange(start, start + len(grid.xs) * width, width)
        for col, curve in enumerate(grid.curves):
            temperatures = _curve_temperatures(grid.x_name, curve, grid.xs)
            index = first_cells + col
            if grid.x_name == "delta_T":
                live = (temperatures >= 0).all(axis=1)
                index, temperatures = index[live], temperatures[live]
            if not len(index):
                continue
            spec = curve.spec
            _, runs, parts = groups.setdefault(_stack_key(spec, curve.style), (spec, {}, []))
            position, keys, on_grid = runs.setdefault(curve.style, (len(runs), {}, {}))
            if grid.x_name == "delta":
                member = on_grid.get(k)
                if member is None:
                    keyed = [keys.setdefault(x, len(keys)) for x in grid.xs.tolist()]
                    member = on_grid[k] = np.array(keyed)
            else:
                member = np.full(len(index), keys.setdefault(spec.coupling_delta, len(keys)))
            parts.append((position, index, member, temperatures))
    for head, runs, parts in groups.values():
        # members are numbered style by style, in the order of the stack
        stack = tuple([(style, tuple(keys)) for style, (_, keys, _) in runs.items()])
        if len(parts) == 1:
            _, index, member, temperatures = parts[0]
        else:
            offsets = list(itertools.accumulate([len(keys) for _, keys in stack], initial=0))
            index, member, temperatures = map(
                np.concatenate,
                zip(*[(i, m + offsets[r] if r else m, t) for r, i, m, t in parts]),
            )
        try:
            currents = _net_currents(head, stack, member, kappa, temperatures)
        except SteadyStateError as err:
            cell = int(index[err.member])
            k = bisect.bisect_right(starts, cell) - 1
            grid = grids[k]
            row, col = divmod(cell - starts[k], len(grid.curves))
            raise SteadyStateError(
                f"{grid.curves[col].name} at {grid.x_name} = {grid.xs[row]:.15g}: {err}"
            ) from err
        cells[index] = currents
    return [
        cells[start:stop].reshape(len(grid.xs), len(grid.curves))
        for grid, start, stop in zip(grids, starts, starts[1:])
    ]


def _chunks(grids: Sequence[_Grid], limit: int) -> list[list[slice]]:
    """The rows of all grids, grid after grid, cut into contiguous chunks
    of at most `limit` cells each, all grids together (a row wider than
    that alone), each chunk as one slice of rows per grid, empty for the
    grids it holds no row of.  A chunk is closed when the next row does
    not fit."""
    chunks: list[list[slice]] = []
    room = 0
    for k, grid in enumerate(grids):
        width, start = len(grid.curves), 0
        while start < len(grid.xs):
            if room < width:
                chunks.append([slice(0, 0)] * len(grids))
                room = limit
            take = min(len(grid.xs) - start, max(1, room // width))
            chunks[-1][k] = slice(start, start + take)
            start += take
            room -= take * width
    return chunks


def _table(kappa: float, grids: Sequence[_Grid], jobs: int) -> list[np.ndarray]:
    """Every curve of every grid at every x, as the tables of `_columns`,
    rows in grid order.

    The rows of all grids are cut into contiguous chunks (`_chunks`) of at
    most `_CHUNK_CELLS` cells and at most each worker's share of the cells
    plus a row, which leaves no more chunks than workers where the bound
    allows.  One worker evaluates the chunks in place, one after another;
    more workers take them over a process pool.  A stack member comes out
    the same in any stack, so the chunking never moves a cell.
    """
    workers = _workers(jobs, sum([len(grid.xs) for grid in grids]))
    cells = sum([len(grid.xs) * len(grid.curves) for grid in grids])
    widest = max([len(grid.curves) for grid in grids])
    limit = min(_CHUNK_CELLS, -(-cells // workers) + widest - 1)
    if cells <= limit:  # one chunk
        return _columns(kappa, grids)
    chunks = _chunks(grids, limit)
    chunk_grids = [
        [_Grid(grid.x_name, grid.xs[rows], grid.curves) for grid, rows in zip(grids, chunk)]
        for chunk in chunks
    ]
    chunk_tables = functools.partial(_columns, kappa)
    if workers == 1:
        tables = [chunk_tables(chunk) for chunk in chunk_grids]
    else:
        # imported here: the pool pulls in multiprocessing, which would add
        # to every import of the package while most runs use one worker
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            tables = list(pool.map(chunk_tables, chunk_grids))
    return [np.concatenate(grid_tables) for grid_tables in zip(*tables)]


def _write_dataset(
    path: Path, grid: _Grid, kappa: float, params: Sequence[tuple[str, str]], jobs: int
) -> Path:
    """Evaluate every curve at every grid point and write the CSV."""
    (table,) = _table(kappa, [grid], jobs)
    columns = [grid.x_name] + [curve.name for curve in grid.curves]
    return _write_csv(path, columns, grid.xs, table, params)


def run_sweep(cfg: SweepConfig, out: Path | None = None, jobs: int = 1) -> Path:
    """Evaluate a configured sweep and write its CSV dataset."""
    if out is None:
        if cfg.output_path is None:
            raise ConfigError("no output path: set 'out' in the config or pass one")
        out = Path(cfg.output_path)
    spec = cfg.chain_spec()
    curves = [
        _Curve(f"J_{style.value}", spec, style, cfg.t_left, cfg.t_right, cfg.t_mean)
        for style in cfg.styles()
    ]
    params = _config_param_lines(cfg)
    x_name, _ = _SWEEPS[cfg.sweep]
    return _write_dataset(out, _Grid(x_name, cfg.grid(), curves), cfg.kappa, params, jobs)


_FIG2_DELTAS = (0.01, 0.1, 0.5)


def run_fig2(kappa: float, out_dir: Path, jobs: int = 1) -> Path:
    """Current versus left temperature at T_R = 0, three couplings.

    The grid is logarithmic over 0.01h..100h with 200 points, preceded by
    an exact T_L = 0 row.  The last column is the phenomenological current
    at the weakest coupling, which stays at zero.
    """
    grid = np.concatenate([[0.0], np.logspace(-2, 2, 200)])
    specs = {d: SpinChainSpec(2, 1.0, d, ChainModel.ISING_ZZ) for d in _FIG2_DELTAS}
    curves = [
        _Curve(f"J_delta_{d:g}", spec, DissipatorStyle.GLOBAL, t_right=0.0)
        for d, spec in specs.items()
    ]
    weakest = _FIG2_DELTAS[0]
    curves.append(
        _Curve(f"J_ph_delta_{weakest:g}", specs[weakest], DissipatorStyle.LOCAL, t_right=0.0)
    )
    params = [
        ("dataset", "fig2"),
        ("kappa", repr(kappa)),
        ("t_right", "0.0"),
        ("deltas", ",".join(f"{d:g}" for d in _FIG2_DELTAS)),
    ]
    path = Path(out_dir) / "fig2.csv"
    return _write_dataset(path, _Grid("T_L", grid, curves), kappa, params, jobs)


_FIG3_COLD = (0.0, 0.1, 0.3)
_FIG3_HOT = 10.0
_FIG3_TBARS = (0.5, 5.0)


def gradient_grid() -> np.ndarray:
    """Symmetric temperature-difference grid over [-2h, 2h], including zero."""
    return np.linspace(-2.0, 2.0, 101)


def run_fig3(kappa: float, out_dir: Path, jobs: int = 1) -> tuple[Path, Path, Path]:
    """Current versus coupling with one hot bath, plus the diode curve.

    Writes three files: panel (a) has the hot bath on the left and scans
    the coupling for three cold-bath temperatures; panel (b) swaps the
    roles; the inset scans the temperature difference at fixed mean
    temperature.  Inset cells where one bath would go below zero
    temperature are left empty.
    """
    out_dir = Path(out_dir)
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)  # the panels scan delta
    deltas = np.linspace(0.0, 1.0, 102)[1:-1]  # interior of (0, 1)
    panels = (("a", "left", "t_right"), ("b", "right", "t_left"))
    # the bath named by `cold` takes each cold temperature, the other one is hot
    curves = [
        _Curve(
            f"J_{cold}_{c:g}",
            spec,
            DissipatorStyle.GLOBAL,
            **{"t_left": _FIG3_HOT, "t_right": _FIG3_HOT, cold: c},
        )
        for _, _, cold in panels
        for c in _FIG3_COLD
    ]
    inset = [
        _Curve(f"J_tbar_{t:g}", spec, DissipatorStyle.GLOBAL, t_mean=t) for t in _FIG3_TBARS
    ]
    # both panels and the inset in one pass, so the couplings of all three
    # are one chain stack and their cells one point step
    grids = [_Grid("delta", deltas, curves), _Grid("delta_T", gradient_grid(), inset)]
    table, inset_table = _table(kappa, grids, jobs)

    paths = []
    width = len(_FIG3_COLD)
    for k, (panel, hot_side, _) in enumerate(panels):
        columns = slice(k * width, (k + 1) * width)
        params = [
            ("dataset", f"fig3{panel}"),
            ("kappa", repr(kappa)),
            ("hot_side", hot_side),
            ("t_hot", repr(_FIG3_HOT)),
            ("t_cold_values", ",".join(f"{c:g}" for c in _FIG3_COLD)),
        ]
        header = ["delta"] + [curve.name for curve in curves[columns]]
        path = out_dir / f"fig3{panel}.csv"
        paths.append(_write_csv(path, header, deltas, table[:, columns], params))

    params = [
        ("dataset", "fig3_inset"),
        ("kappa", repr(kappa)),
        ("delta", "0.5"),
        ("tbar_values", ",".join(f"{t:g}" for t in _FIG3_TBARS)),
    ]
    header = ["delta_T"] + [curve.name for curve in inset]
    path = out_dir / "fig3_inset.csv"
    paths.append(_write_csv(path, header, grids[1].xs, inset_table, params))
    return tuple(paths)


def run_xy_comparison(n_spins: int, kappa: float, out_dir: Path, jobs: int = 1) -> Path:
    """Global versus local currents for the XY chain at delta = h, T_R = 0.

    The local treatment produces a current that peaks and then dies away
    as the left bath gets hotter; the eigenbasis treatment saturates.
    """
    if not 2 <= n_spins <= MAX_SPINS:
        raise ConfigError(f"xy comparison supports 2 to {MAX_SPINS} spins")
    spec = SpinChainSpec(n_spins, 1.0, 1.0, ChainModel.XY_TRANSVERSE)
    curves = [
        _Curve(f"J_{style.value}", spec, style, t_right=0.0)
        for style in (DissipatorStyle.GLOBAL, DissipatorStyle.LOCAL)
    ]
    params = [
        ("dataset", "xy_compare"),
        ("spins", str(n_spins)),
        ("kappa", repr(kappa)),
        ("delta", "1.0"),
        ("t_right", "0.0"),
    ]
    path = Path(out_dir) / "xy_compare.csv"
    grid = _Grid("T_L", np.logspace(-2, 2, 60), curves)
    return _write_dataset(path, grid, kappa, params, jobs)


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


def _check_saturation_current() -> tuple[str, str, str, bool]:
    deltas = np.array([0.01, 0.1, 0.5])
    spec = SpinChainSpec(2, 1.0, 0.0, ChainModel.ISING_ZZ)  # the grid sets delta
    curve = _Curve("J", spec, DissipatorStyle.GLOBAL, t_left=1e4, t_right=0.0)
    j = _columns(1.0, [_Grid("delta", deltas, (curve,))])[0][:, 0]
    target = 0.5 * deltas**2
    worst = float(np.max(np.abs(j - target) / target))
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
        spec = SpinChainSpec(2, 1.0, delta, ChainModel.ISING_ZZ)
        report = rectification(spec, 1.0, 10.0, 0.0, DissipatorStyle.GLOBAL)
        worst_reverse = max(worst_reverse, abs(report.j_reverse))
        least_forward = min(least_forward, report.j_forward)
    passed = worst_reverse < 1e-12 and least_forward > 1e-3
    return (
        "cold-left |J| = 0, swapped J > 0",
        f"max |J_rev| {worst_reverse:.1e}, min J_fwd {least_forward:.2e}",
        "1e-12 / 1e-3",
        passed,
    )


def _check_phenomenological_null_current() -> tuple[str, str, str, bool]:
    temperatures = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
    specs = [SpinChainSpec(2, 1.0, delta, ChainModel.ISING_ZZ) for delta in (0.1, 0.5, 0.9)]
    curves = [
        _Curve("J_ph", spec, DissipatorStyle.LOCAL, t_right=t) for spec in specs for t in temperatures
    ]
    worst = float(np.max(np.abs(_columns(1.0, [_Grid("T_L", temperatures, curves)])[0])))
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
    spec = SpinChainSpec(2, h, delta, ChainModel.ISING_ZZ)
    report = rectification(spec, kappa, t_hot, t_cold, DissipatorStyle.GLOBAL)
    reverse = abs(report.j_reverse)
    bound = 2.0 * delta * kappa * (h - delta) / math.expm1((h - delta) / t_cold)
    return (
        "|J(0.1h,10h)| <= cold-link bound B",
        f"|J_rev|/B {reverse / bound:.2f}, |J_rev|/J_fwd {reverse / report.j_forward:.2e}",
        f"|J_rev| <= B = {bound:.2e}",
        reverse <= bound,
    )


def _check_high_mean_temperature_symmetry() -> tuple[str, str, str, bool]:
    # the curve of the fig3 inset at mean temperature 5h
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
    curve = _Curve("J_tbar_5", spec, DissipatorStyle.GLOBAL, t_mean=5.0)
    currents = _columns(1.0, [_Grid("delta_T", gradient_grid(), (curve,))])[0][:, 0]
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
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
    temperatures = np.linspace(0.0, 5.0, 10)
    for t_left in temperatures:
        for t_right in temperatures:
            report = cross_validate(1.0, 0.5, 1.0, t_left, t_right)
            worst_population = max(worst_population, report.population_deviation)
            j = steady_net_current(spec, 1.0, t_left, t_right, DissipatorStyle.GLOBAL)
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
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
    H = build_hamiltonian(spec)
    decomp = spectral_decompose(H)
    for t in (0.2, 1.0, 5.0):
        baths = standard_baths(spec, 1.0, t, t, DissipatorStyle.GLOBAL)
        liouvillian = assemble_liouvillian(H, baths)
        state = steady_state_nullspace(liouvillian)
        weights = np.exp(-decomp.energies / t)
        gibbs_eig = np.diag(weights / weights.sum()).astype(complex)
        gibbs = decomp.eigenvectors @ gibbs_eig @ decomp.eigenvectors.conj().T
        worst_state = max(worst_state, float(np.max(np.abs(state.rho - gibbs))))
        worst_current = max(worst_current, abs(state.bath_currents[0]))  # the left bath
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
    curve = _Curve("J_local", spec, DissipatorStyle.LOCAL, t_right=0.0)
    local = _columns(1.0, [_Grid("T_L", grid, (curve,))])[0][:, 0]
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
    spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
    temperatures = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
    curves = [_Curve("J", spec, DissipatorStyle.GLOBAL, t_right=t) for t in temperatures]
    (currents,) = _columns(1.0, [_Grid("T_L", temperatures, curves)])
    hotter_left = temperatures[:, None] > temperatures[None, :]  # row T_L, column T_R
    worst_sign = min(0.0, float(np.min(currents[hotter_left])))

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
