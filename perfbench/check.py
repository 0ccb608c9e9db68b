"""Correctness check for the J cells one benchmark pass wrote.

Every J cell is compared with the reference CSV that the seed commit
generated for the same inputs (see make_references.py).  Every global
Ising cell is also compared with the independent four-level oracle,
``steady_state_rate_equations`` + ``current_from_cycle``.  A cell passes
when it is within RTOL of the expected value or within the absolute floor
ATOL * kappa: noise-level currents (about 1e-16) change sign with the BLAS
thread count, so byte-identical cells are counted as information only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

RTOL = 1e-8
ATOL = 1e-12  # times kappa; J is of order kappa * h**2 with h = 1

# Grid coordinates are reproduced by the same code, so they must agree far
# more tightly than J; this only guards against a changed grid.
_X_RTOL = 1e-9

FIGURE_FILES = ("fig2.csv", "fig3a.csv", "fig3b.csv", "fig3_inset.csv")

_MAX_PROBLEMS = 10


@dataclass
class Tally:
    """Points checked, points that failed, and cells byte-identical to the reference."""

    attempted: int = 0
    failed: int = 0
    identical: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, where: str, why: str, points: int = 1) -> None:
        self.attempted += points
        self.failed += points
        if len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(f"{where}: {why}")

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.identical += other.identical
        room = _MAX_PROBLEMS - len(self.problems)
        self.problems += other.problems[: max(room, 0)]


def cell_ok(value: float, expected: float, kappa: float) -> bool:
    """Relative tolerance with an absolute floor scaled by kappa."""
    return abs(value - expected) <= max(RTOL * abs(expected), ATOL * kappa)


def parse_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parameter comments, header and rows (as strings) of a spinheat CSV."""
    params: dict[str, str] = {}
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    for line in lines:
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            params[key.strip()] = value.strip()
    if not body:
        return params, [], []
    return params, body[0].split(","), [line.split(",") for line in body[1:]]


def ising_oracle(delta: float, kappa: float, t_left: float, t_right: float) -> float:
    """Global-style 2-spin Ising current from the four-level rate equations (h = 1)."""
    from spinheat import current_from_cycle, steady_state_rate_equations

    _, rates = steady_state_rate_equations(
        1.0, delta, kappa, max(t_left, 0.0), max(t_right, 0.0)
    )
    return current_from_cycle(delta, rates.cycle_gamma)


def _oracle_conditions(
    dataset: str, column: str, x: float, params: dict[str, str]
) -> tuple[float, float, float] | None:
    """(delta, T_L, T_R) of a global Ising cell, or None for a local-style cell."""
    if dataset == "fig2":
        if not column.startswith("J_delta_"):
            return None  # the phenomenological (local) column
        return float(column[len("J_delta_") :]), x, float(params["t_right"])
    if dataset in ("fig3a", "fig3b"):
        hot = float(params["t_hot"])
        cold = float(column.rsplit("_", 1)[1])
        return (x, hot, cold) if dataset == "fig3a" else (x, cold, hot)
    tbar = float(column[len("J_tbar_") :])
    return float(params["delta"]), tbar + 0.5 * x, tbar - 0.5 * x


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="ascii")
    except OSError:
        return None


def check_figure_csv(produced: str | None, reference: str, kappa: float, name: str) -> Tally:
    """Check one figure dataset against its reference text and the oracle."""
    tally = Tally()
    ref_params, ref_columns, ref_rows = parse_csv(reference)
    expected_points = sum(cell != "" for row in ref_rows for cell in row[1:])
    if produced is None:
        tally.fail(name, "not written", expected_points)
        return tally
    params, columns, rows = parse_csv(produced)
    if columns != ref_columns or len(rows) != len(ref_rows):
        tally.fail(name, f"layout {columns} x {len(rows)} rows differs", expected_points)
        return tally
    dataset = ref_params["dataset"]
    for r, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        x, x_ref = float(row[0]), float(ref_row[0])
        if abs(x - x_ref) > _X_RTOL * max(abs(x_ref), 1.0):
            tally.fail(
                f"{name} row {r}",
                f"grid value {x!r} != {x_ref!r}",
                sum(cell != "" for cell in ref_row[1:]),
            )
            continue
        for column, cell, ref_cell in zip(columns[1:], row[1:], ref_row[1:]):
            where = f"{name} {columns[0]}={row[0]} {column}"
            if ref_cell == "":
                if cell != "":
                    tally.fail(where, "reference cell is empty")
                continue
            if cell == "":
                tally.fail(where, "cell is empty")
                continue
            value, expected = float(cell), float(ref_cell)
            if not cell_ok(value, expected, kappa):
                tally.fail(where, f"J {value!r} vs reference {expected!r}")
                continue
            conditions = _oracle_conditions(dataset, column, x, params)
            if conditions is not None:
                oracle = ising_oracle(conditions[0], kappa, *conditions[1:])
                if not cell_ok(value, oracle, kappa):
                    tally.fail(where, f"J {value!r} vs rate-equation oracle {oracle!r}")
                    continue
            tally.attempted += 1
            tally.identical += cell == ref_cell
    return tally


def check_figures(out_dir: Path, ref_dir: Path, kappa: float) -> Tally:
    """Check the four datasets that run_fig2 + run_fig3 write into `out_dir`."""
    tally = Tally()
    for name in FIGURE_FILES:
        reference = _read(ref_dir / name)
        if reference is None:
            raise FileNotFoundError(f"missing reference {ref_dir / name}")
        tally.add(check_figure_csv(_read(out_dir / name), reference, kappa, name))
    return tally


def read_xy_reference(path: Path) -> tuple[list[float], list[str]]:
    """Lattice T_L values and J cells of a reference xy sweep."""
    text = _read(path)
    if text is None:
        raise FileNotFoundError(f"missing reference {path}")
    _, _, rows = parse_csv(text)
    return [float(row[0]) for row in rows], [row[1] for row in rows]


def check_xy_csv(
    produced: str | None,
    indices: list[int],
    lattice: list[float],
    ref_cells: list[str],
    kappa: float = 1.0,
) -> Tally:
    """Check a 2-point xy sweep whose T_L values are `lattice[indices]`."""
    tally = Tally()
    if produced is None:
        tally.fail("xy sweep", "not written", len(indices))
        return tally
    _, columns, rows = parse_csv(produced)
    by_index = {}
    for row in rows:
        t = float(row[0])
        for k, t_ref in enumerate(lattice):
            if abs(t - t_ref) <= _X_RTOL * t_ref:
                by_index[k] = row
    for k in indices:
        where = f"xy T_L={lattice[k]!r} {columns[1] if len(columns) > 1 else '?'}"
        row = by_index.get(k)
        if row is None or len(row) < 2 or row[1] == "":
            tally.fail(where, "point missing")
            continue
        value, expected = float(row[1]), float(ref_cells[k])
        if not cell_ok(value, expected, kappa):
            tally.fail(where, f"J {value!r} vs reference {expected!r}")
            continue
        tally.attempted += 1
        tally.identical += row[1] == ref_cells[k]
    return tally
