import concurrent.futures
import io
from dataclasses import replace

import numpy as np
import pytest

import spinheat.lindblad as lindblad
from spinheat.experiments import (
    ACCEPTANCE_CHECKS,
    MAX_SPINS,
    ConfigError,
    CriterionResult,
    SweepConfig,
    parse_config_text,
    read_embedded_config,
    run_fig2,
    run_fig3,
    run_sweep,
    run_xy_comparison,
)
from spinheat import cli, experiments
from spinheat.lindblad import DissipatorStyle
from spinheat.spinops import ChainModel, SpinChainSpec
from spinheat.thermo import steady_net_current


def in_process_executor(sizes):
    """A stand-in for ProcessPoolExecutor that records each pool size it
    is asked for in `sizes` and maps in this process, so no pool is ever
    started."""

    class InProcessExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return InProcessExecutor


def usable_processors(monkeypatch, count):
    """Make `count` processors this process may use, on a host of as many."""

    def affinity(pid):
        return set(range(count))

    monkeypatch.setattr(experiments.os, "cpu_count", lambda: count)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", affinity, raising=False)


def read_table(path):
    columns = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append([float(c) if c else np.nan for c in line.split(",")])
    return columns, np.array(rows)


BASE_CONFIG = """
model = ising
delta = 0.5
sweep = temperature
start = 0.1
stop = 5.0
points = 5
t_right = 0.5
style = both
"""


class TestConfigParsing:
    def test_round_trip_defaults(self):
        cfg = parse_config_text(BASE_CONFIG)
        assert cfg.model is ChainModel.ISING_ZZ
        assert cfg.n_spins == 2
        assert cfg.field_h == 1.0
        assert cfg.kappa == 1.0
        assert cfg.scale == "linear"
        assert cfg.styles() == (DissipatorStyle.GLOBAL, DissipatorStyle.LOCAL)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CONFIG + "\nwavelength = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CONFIG + "\ndelta = 0.4\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("model = ising\nsweep = temperature\n")

    @pytest.mark.parametrize(
        "override",
        [
            "points = 1",
            "start = 5.0\nstop = 0.1",
            "scale = log\nstart = 0.0",
            "style = sideways",
            "sweep = sidewise",
            "kappa = -1",
            "kappa = nan",
            "t_right = nan",
            "t_right = inf",
            "h = nan",
            "delta = inf",
            # a span past the double range: the grid reads [nan, inf, inf, 1e308]
            "sweep = gradient\nstart = -1e308\nstop = 1e308\npoints = 4\nt_mean = 1\nt_right =",
        ],
    )
    def test_invalid_values(self, override):
        # an override line without a value drops that key of the base
        base = (
            "model = ising\ndelta = 0.5\nsweep = temperature\n"
            "start = 0.1\nstop = 5.0\npoints = 5\nt_right = 0.5\n"
        )
        lines = {}
        for line in (base + override).splitlines():
            key, _, value = (part.strip() for part in line.partition("="))
            if value:
                lines[key] = line
            else:
                lines.pop(key, None)
        with pytest.raises(ConfigError):
            parse_config_text("\n".join(lines.values()))

    @pytest.mark.parametrize(
        "key, value", [("points", "five"), ("spins", "2.0"), ("kappa", "abc")]
    )
    def test_unparsable_value_names_its_key(self, key, value):
        lines = [line for line in BASE_CONFIG.splitlines() if line.partition("=")[0].strip() != key]
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("\n".join(lines + [f"{key} = {value}"]))
        assert str(excinfo.value).startswith(f"{key} must be ")
        assert repr(value) in str(excinfo.value)

    @pytest.mark.parametrize(
        "text",
        [
            "sweep = coupling\nt_left = inf\nt_right = 0.5\n",
            "sweep = coupling\nt_left = 2\nt_right = nan\n",
            "delta = 0.5\nsweep = gradient\nt_mean = nan\n",
        ],
    )
    def test_non_finite_temperatures_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_config_text(
                "model = ising\nstart = 0.1\nstop = 0.9\npoints = 3\n" + text
            )

    @pytest.mark.parametrize("style", ["global", "local", "both"])
    def test_chain_length_limit(self, style):
        text = (
            f"model = xy\ndelta = 1.0\nstyle = {style}\nsweep = temperature\n"
            "start = 0.1\nstop = 5.0\npoints = 5\nt_right = 0.0\n"
        )
        assert parse_config_text(text + f"spins = {MAX_SPINS}\n").n_spins == MAX_SPINS
        with pytest.raises(ConfigError, match=f"at most {MAX_SPINS}"):
            parse_config_text(text + f"spins = {MAX_SPINS + 1}\n")
        with pytest.raises(ConfigError, match=f"at most {MAX_SPINS}"):
            parse_config_text(text + "spins = 10\n")

    def test_gradient_sweep_needs_mean_temperature(self):
        with pytest.raises(ConfigError):
            parse_config_text(
                "model = ising\ndelta = 0.5\nsweep = gradient\n"
                "start = -1\nstop = 1\npoints = 5\nt_right = 0.5\n"
            )

    def test_coupling_sweep_forbids_fixed_delta(self):
        with pytest.raises(ConfigError):
            parse_config_text(
                "model = ising\ndelta = 0.5\nsweep = coupling\n"
                "start = 0.1\nstop = 0.9\npoints = 5\nt_left = 2\nt_right = 0.5\n"
            )


# one config per sweep kind, every key set away from its default
ROUND_TRIP_CONFIGS = {
    "temperature": (
        "model = xy\nspins = 3\nh = 1.3\ndelta = 0.9\nstyle = both\nkappa = 0.7\n"
        "sweep = temperature\nstart = 0.05\nstop = 20\npoints = 5\nscale = log\n"
        "t_right = 0.4\nout = a.csv\n",
        ["T_L", "J_global", "J_local"],
    ),
    "coupling": (
        "model = ising\nh = 1.2\nstyle = local\nkappa = 1.5\nsweep = coupling\nstart = 0.1\n"
        "stop = 0.9\npoints = 3\nt_left = 4.0\nt_right = 0.2\n",
        ["delta", "J_local"],
    ),
    "gradient": (
        "model = xy\nspins = 4\nh = 0.8\ndelta = 0.3\nstyle = local\nkappa = 2\n"
        "sweep = gradient\nstart = -1.5\nstop = 1.5\npoints = 4\nt_mean = 1.2\n",
        ["delta_T", "J_local"],
    ),
}


class TestSweep:
    @pytest.mark.parametrize("kind", ROUND_TRIP_CONFIGS)
    def test_sweep_round_trips_through_its_csv(self, kind, tmp_path):
        text, columns = ROUND_TRIP_CONFIGS[kind]
        cfg = parse_config_text(text)
        assert cfg.sweep == kind
        first = run_sweep(cfg, out=tmp_path / "a.csv")
        recovered = read_embedded_config(first.read_text())
        assert recovered == replace(cfg, output_path=None)
        second = run_sweep(recovered, out=tmp_path / "b.csv")
        assert first.read_bytes() == second.read_bytes()
        header, rows = read_table(first)
        assert header == columns
        assert rows.shape == (cfg.points, len(columns))

    def test_config_built_with_integers_reruns_to_the_same_bytes(self, tmp_path):
        cfg = SweepConfig(
            model=ChainModel.ISING_ZZ, n_spins=2, field_h=1, coupling_delta=1, style="both",
            kappa=1, sweep="temperature", start=0, stop=2, points=3, scale="linear", t_right=0,
        )
        first = run_sweep(cfg, out=tmp_path / "a.csv")
        assert "# h = 1.0" in first.read_text().splitlines()
        second = run_sweep(read_embedded_config(first.read_text()), out=tmp_path / "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_coupling_sweep_values(self, tmp_path):
        text = (
            "model = ising\nsweep = coupling\nstart = 0.1\nstop = 0.9\n"
            "points = 3\nt_left = 10.0\nt_right = 0.0\nstyle = global\n"
        )
        path = run_sweep(parse_config_text(text), out=tmp_path / "c.csv")
        columns, rows = read_table(path)
        assert columns == ["delta", "J_global"]
        for delta, j in rows:
            spec = SpinChainSpec(2, 1.0, delta, ChainModel.ISING_ZZ)
            assert j == pytest.approx(
                steady_net_current(spec, 1.0, 10.0, 0.0, DissipatorStyle.GLOBAL)
            )

    def test_gradient_sweep_skips_negative_temperatures(self, tmp_path):
        text = (
            "model = ising\ndelta = 0.5\nsweep = gradient\nstart = -2.0\n"
            "stop = 2.0\npoints = 9\nt_mean = 0.5\nstyle = global\n"
        )
        path = run_sweep(parse_config_text(text), out=tmp_path / "g.csv")
        _, rows = read_table(path)
        for delta_t, j in rows:
            if abs(delta_t) > 1.0:
                assert np.isnan(j)
            else:
                assert np.isfinite(j)

    def test_missing_output_path(self):
        cfg = parse_config_text(BASE_CONFIG)
        with pytest.raises(ConfigError):
            run_sweep(cfg)


def test_csv_rows_are_the_per_cell_join(tmp_path):
    # NaN marks an empty cell, written as nothing; a `nan` in the header or
    # a parameter line is text, not a cell, and stays
    rows = np.array(
        [
            (0.0, np.nan, 1.5),
            (0.1, np.nan, -0.0),
            (2.5, np.inf, -np.inf),
            (3, 1e-300, 12345678901234567),
            (1.0 / 3, -2e-17, np.nan),
            (np.nan, np.nan, np.nan),
        ]
    )
    path = experiments._write_csv(
        tmp_path / "rows.csv", ["x", "a_nan", "b"], rows[:, 0], rows[:, 1:], [("k", "nan")]
    )
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines == [experiments.UNITS_COMMENT, "# k = nan", "x,a_nan,b"] + [
        ",".join("" if np.isnan(cell) else f"{cell:.15g}" for cell in row) for row in rows
    ]


class TestFig2:
    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fig2")
        path = run_fig2(1.0, out, jobs=1)
        return path, *read_table(path)

    def test_layout(self, dataset):
        path, columns, rows = dataset
        assert columns == ["T_L", "J_delta_0.01", "J_delta_0.1", "J_delta_0.5", "J_ph_delta_0.01"]
        assert rows.shape == (201, 5)
        assert rows[0, 0] == 0.0

    def test_zero_temperature_row(self, dataset):
        _, _, rows = dataset
        assert np.all(np.abs(rows[0, 1:4]) < 1e-12)

    def test_saturation_approach(self, dataset):
        _, _, rows = dataset
        assert rows[-1, 0] == pytest.approx(100.0)
        assert rows[-1, 3] == pytest.approx(0.125, rel=0.02)
        assert rows[-1, 1] == pytest.approx(0.5 * 0.01**2, rel=0.02)

    def test_curves_rise_monotonically(self, dataset):
        _, _, rows = dataset
        for col in (1, 2, 3):
            assert np.all(np.diff(rows[:, col]) >= -1e-12)

    def test_phenomenological_column_is_zero(self, dataset):
        _, _, rows = dataset
        assert np.max(np.abs(rows[:, 4])) < 1e-10

    def test_phenomenological_column_reads_zero_in_every_row(self, dataset):
        # an exact zero, and never a negative one
        path, _, _ = dataset
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["0"] * 201

    def test_deterministic_output(self, dataset, tmp_path):
        path, _, _ = dataset
        again = run_fig2(1.0, tmp_path, jobs=1)
        assert path.read_bytes() == again.read_bytes()


class TestFig3:
    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fig3")
        return run_fig3(1.0, out, jobs=1)

    def test_panel_b_cold_left_column_is_zero(self, datasets):
        _, panel_b, _ = datasets
        columns, rows = read_table(panel_b)
        assert columns[1] == "J_t_left_0"
        assert np.max(np.abs(rows[:, 1])) < 1e-10

    def test_panel_a_currents_positive(self, datasets):
        panel_a, _, _ = datasets
        _, rows = read_table(panel_a)
        assert np.all(rows[:, 1] > 0)

    def test_inset_high_mean_temperature_symmetry(self, datasets):
        *_, inset = datasets
        _, rows = read_table(inset)
        j_high = rows[:, 2]
        asymmetry = np.max(np.abs(j_high + j_high[::-1]))
        assert asymmetry < 0.02 * np.max(np.abs(j_high))

    def test_inset_low_mean_temperature_rectifies(self, datasets):
        *_, inset = datasets
        _, rows = read_table(inset)
        delta_t = rows[:, 0]
        j_low = rows[:, 1]
        physical = np.abs(delta_t) <= 1.0
        assert np.all(np.isnan(j_low[~physical]))
        asymmetry = np.nanmax(np.abs(j_low + j_low[::-1]))
        assert asymmetry > 0.5 * np.nanmax(np.abs(j_low))


class TestXYComparison:
    def test_small_chain_dataset(self, tmp_path):
        path = run_xy_comparison(2, 1.0, tmp_path, jobs=1)
        columns, rows = read_table(path)
        assert columns == ["T_L", "J_global", "J_local"]
        assert rows.shape == (60, 3)
        assert np.all(rows[:, 1] >= -1e-12)

    def test_decoupled_chain_carries_no_current(self):
        spec = SpinChainSpec(2, 1.0, 1e-6, ChainModel.XY_TRANSVERSE)
        for style in (DissipatorStyle.GLOBAL, DissipatorStyle.LOCAL):
            assert abs(steady_net_current(spec, 1.0, 1.0, 0.0, style)) < 1e-8

    def test_spin_count_bounds(self, tmp_path):
        with pytest.raises(ConfigError):
            run_xy_comparison(1, 1.0, tmp_path)
        with pytest.raises(ConfigError):
            run_xy_comparison(7, 1.0, tmp_path)
        with pytest.raises(ConfigError, match=f"2 to {MAX_SPINS}"):
            run_xy_comparison(MAX_SPINS + 1, 1.0, tmp_path)


class TestCommandLine:
    def test_non_finite_config_exits_with_configuration_error(self, tmp_path, capsys):
        config = tmp_path / "nan.cfg"
        config.write_text(BASE_CONFIG.replace("t_right = 0.5", "t_right = nan"))
        status = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path)])
        assert status == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "name, content, reason",
        [
            ("utf16.cfg", b"\xff\xfemodel = ising\n", "not UTF-8"),
            ("latin1.cfg", BASE_CONFIG.encode() + b"# caf\xe9\n", "not UTF-8"),
            ("missing.cfg", None, "No such file"),
        ],
        ids=["non-utf8-bom", "non-utf8-comment", "missing"],
    )
    def test_unreadable_config_exits_with_configuration_error(
        self, name, content, reason, tmp_path, capsys
    ):
        config = tmp_path / name
        if content is not None:
            config.write_bytes(content)
        out = tmp_path / "out"
        status = cli.main(["sweep", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith(f"configuration error: {config}: ")
        assert reason in err
        assert not out.exists()

    def test_overlong_chain_config_exits_before_running(self, tmp_path, capsys, monkeypatch):
        # parsing alone must refuse it: ten spins is past MAX_SPINS, the
        # longest chain the transport route is checked at, so no point may
        # be evaluated
        def refuse(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(experiments, "steady_net_current", refuse)
        config = tmp_path / "long.cfg"
        config.write_text(
            "model = xy\nspins = 10\ndelta = 1.0\nstyle = local\nsweep = temperature\n"
            "start = 0.1\nstop = 5.0\npoints = 5\nt_right = 0.0\n"
        )
        out = tmp_path / "out"
        status = cli.main(["sweep", "--config", str(config), "--out", str(out), "--jobs", "1"])
        assert status == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def _assert_grid_refused(self, points, tmp_path, capsys):
        config = tmp_path / "big.cfg"
        config.write_text(BASE_CONFIG.replace("points = 5", f"points = {points}"))
        out = tmp_path / "out"
        status = cli.main(["sweep", "--config", str(config), "--out", str(out), "--jobs", "1"])
        err = capsys.readouterr().err
        assert status == 2
        assert "configuration error" in err and "points" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_grid_past_the_double_range_exits_with_configuration_error(self, tmp_path, capsys):
        config = tmp_path / "overflow.cfg"
        config.write_text(
            "model = ising\ndelta = 0.5\nsweep = gradient\nstart = -1e308\nstop = 1e308\n"
            "points = 4\nt_mean = 1\n"
        )
        out = tmp_path / "out"
        status = cli.main(["sweep", "--config", str(config), "--out", str(out), "--jobs", "1"])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("configuration error: ") and "finite" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_grid_numpy_cannot_size_exits_with_configuration_error(self, tmp_path, capsys):
        # numpy refuses 10**19 elements before it allocates anything
        self._assert_grid_refused(10**19, tmp_path, capsys)

    def test_grid_out_of_memory_exits_with_configuration_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # a grid too large for memory, without allocating one
        def out_of_memory(self):
            raise MemoryError("Unable to allocate the grid")

        monkeypatch.setattr(SweepConfig, "grid", out_of_memory)
        self._assert_grid_refused(5, tmp_path, capsys)

    def test_solver_failure_names_the_point(self, tmp_path, capsys, monkeypatch):
        # a negative absorption rate drives the occupation to -1, which the
        # Gaussian route's covariance guard refuses at every point
        monkeypatch.setattr(
            lindblad, "thermal_rates", lambda kappa, temperature, frequency: (1.0, -0.5)
        )
        config = tmp_path / "xy.cfg"
        config.write_text(
            "model = xy\ndelta = 0.0\nstyle = local\nsweep = temperature\n"
            "start = 0.25\nstop = 2.0\npoints = 2\nt_right = 0.0\n"
        )
        out = tmp_path / "out"
        status = cli.main(["sweep", "--config", str(config), "--out", str(out), "--jobs", "1"])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("solver error: J_local at T_L = 0.25: covariance not physical")
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_finite_kappa_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig2", "--kappa", "inf", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2", "--jobs", "0"],
            ["xy-compare", "--jobs", "-3"],
            ["acceptance", "--kappa", "2"],
            ["acceptance", "--jobs", "1"],
            ["sweep", "--config", "sweep.cfg", "--kappa", "2"],
            ["sweep", "--config", "sweep.cfg", "--style", "local"],
        ],
        ids=[
            "fig2-jobs-0",
            "xy-jobs-negative",
            "acceptance-kappa",
            "acceptance-jobs",
            "sweep-kappa",
            "sweep-style",
        ],
    )
    def test_unread_or_invalid_options_are_usage_errors(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, files",
        [
            (["fig2"], ["fig2.csv"]),
            (["fig3"], ["fig3a.csv", "fig3b.csv", "fig3_inset.csv"]),
            (["xy-compare", "--spins", "2"], ["xy_compare.csv"]),
            (["sweep", "--config", "sweep.cfg"], ["sweep.csv"]),
        ],
        ids=["fig2", "fig3", "xy-compare", "sweep"],
    )
    def test_commands_write_their_datasets(self, command, files, tmp_path, monkeypatch, capsys):
        (tmp_path / "sweep.cfg").write_text(BASE_CONFIG)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert cli.main(command + ["--out", str(out), "--jobs", "1"]) == 0
        paths = [out / name for name in files]
        assert capsys.readouterr().out.splitlines() == [f"wrote {path}" for path in paths]
        assert all(path.is_file() for path in paths)


class TestParallelExecution:
    def test_jobs_do_not_change_output(self, tmp_path):
        text = (
            "model = ising\ndelta = 0.5\nsweep = temperature\nstart = 0.1\n"
            "stop = 2.0\npoints = 6\nt_right = 0.0\nstyle = global\n"
        )
        cfg = parse_config_text(text)
        serial = run_sweep(cfg, out=tmp_path / "serial.csv", jobs=1)
        parallel = run_sweep(cfg, out=tmp_path / "parallel.csv", jobs=2)
        assert serial.read_bytes() == parallel.read_bytes()

    def test_one_job_asks_no_processor_count(self, tmp_path, monkeypatch):
        # a dataset at one job runs in this process and needs no processor
        # count, nor does one item at any number of jobs
        def cpu_count(*args):
            raise AssertionError("the processor count was asked for")

        monkeypatch.setattr(experiments.os, "cpu_count", cpu_count)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", cpu_count, raising=False)
        text = (
            "model = xy\nspins = 3\ndelta = 0.5\nstyle = both\nsweep = temperature\n"
            "start = 0.1\nstop = 2.0\npoints = 6\nt_right = 0.0\n"
        )
        run_sweep(parse_config_text(text), out=tmp_path / "sweep.csv", jobs=1)
        assert experiments._workers(1, 100) == experiments._workers(4, 1) == 1

    def test_pool_is_no_larger_than_the_items_or_the_processors(self, monkeypatch):
        # no oversized pool is ever started
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process_executor(sizes))
        usable_processors(monkeypatch, 3)
        spec = SpinChainSpec(2, 1.0, 0.5, ChainModel.ISING_ZZ)
        curves = [experiments._Curve("J", spec, DissipatorStyle.GLOBAL, t_right=0.0)]
        grid = np.linspace(0.5, 2.5, 5)
        (serial,) = experiments._columns(1.0, [experiments._Grid("T_L", grid, curves)])

        def table(points, jobs):
            grids = [experiments._Grid("T_L", grid[:points], curves)]
            (table,) = experiments._table(1.0, grids, jobs)
            return table.tobytes()

        assert table(5, 100000) == serial.tobytes()
        assert table(2, 100000) == serial[:2].tobytes()
        assert table(5, 1) == serial.tobytes()
        assert table(5, 0) == serial.tobytes()
        assert sizes == [3, 2]

    def test_pool_is_no_larger_than_the_usable_processors(self, tmp_path, monkeypatch):
        # a host of 3 processors on which this process may use one: two
        # jobs take one worker, in this process
        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError(f"a pool of {max_workers} workers was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert experiments._workers(2, 100) == 1
        assert run_fig2(1.0, tmp_path / "one", jobs=2).read_bytes() == (
            run_fig2(1.0, tmp_path / "serial", jobs=1).read_bytes()
        )
        # a platform that reports no affinity falls back to the host's count
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        assert experiments._workers(5, 100) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunks_bound_the_cells_of_a_point_step(self, jobs, tmp_path, monkeypatch):
        # fig2, fig3 and a 3-spin XY sweep in both styles, in chunks of at
        # most 7 cells: every CSV keeps the bytes of the whole grid, and no
        # `_columns` call takes more cells of all its grids together; fig3's
        # panels and inset are one call per chunk
        cells = []
        columns = experiments._columns

        def counted(kappa, grids):
            cells.append(sum(len(grid.xs) * len(grid.curves) for grid in grids))
            return columns(kappa, grids)

        def datasets(out):
            cfg = parse_config_text(
                "model = xy\nspins = 3\ndelta = 0.7\nstyle = both\nsweep = temperature\n"
                "start = 0\nstop = 2\npoints = 9\nt_right = 0.1\n"
            )
            paths = [run_fig2(1.0, out, jobs), *run_fig3(1.0, out, jobs)]
            paths.append(run_sweep(cfg, out / "xy.csv", jobs))
            return [path.read_bytes() for path in paths]

        monkeypatch.setattr(experiments, "_columns", counted)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process_executor([]))
        usable_processors(monkeypatch, 2)
        whole = datasets(tmp_path / "whole")
        # one chunk per command and worker
        assert len(cells) == 3 * jobs and max(cells) <= 804
        whole_cells, cells[:] = sum(cells), []
        monkeypatch.setattr(experiments, "_CHUNK_CELLS", 7)
        assert datasets(tmp_path / "chunked") == whole
        assert max(cells) <= 7 and sum(cells) == whole_cells

    @pytest.mark.parametrize(
        "command",
        [["fig2"], ["fig3"], ["xy-compare", "--spins", "2"], ["sweep", "--config", "sweep.cfg"]],
        ids=["fig2", "fig3", "xy-compare", "sweep"],
    )
    def test_cli_without_jobs_starts_no_pool(self, command, tmp_path, monkeypatch):
        # one worker is the default however many processors there are
        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError(f"a pool of {max_workers} workers was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        usable_processors(monkeypatch, 8)
        (tmp_path / "sweep.cfg").write_text(BASE_CONFIG)
        monkeypatch.chdir(tmp_path)
        assert cli.main(command + ["--out", str(tmp_path / "out")]) == 0


class TestAcceptanceRunner:
    def test_exit_status_reflects_results(self, monkeypatch, capsys):
        ok = CriterionResult(1, "a", "e", "o", "t", True, 0.0)
        bad = CriterionResult(2, "b", "e", "o", "t", False, 0.0)
        monkeypatch.setattr(experiments, "acceptance_criteria", lambda: [ok, ok])
        assert experiments.run_acceptance() == 0
        monkeypatch.setattr(experiments, "acceptance_criteria", lambda: [ok, bad])
        assert experiments.run_acceptance() == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_table_columns_line_up(self, monkeypatch):
        rows = [
            CriterionResult(1, "short", "e", "o", "t", True, 0.01),
            CriterionResult(2, "b" * 40, "e" * 60, "o" * 70, "t" * 50, False, 123.45),
            CriterionResult(10, "c", "x", "y", "z", True, 1.0),
        ]
        monkeypatch.setattr(experiments, "acceptance_criteria", lambda: rows)
        stream = io.StringIO()
        experiments.run_acceptance(stream)
        header, _, *lines = stream.getvalue().splitlines()
        column = header.index("status")
        body = lines[: len(rows)]
        assert [line[column:] for line in body] == ["PASS", "FAIL", "PASS"]
        assert experiments.format_table([rows[1]])[-1].endswith("FAIL")

    def test_injected_dissipator_sign_error_breaks_clausius(self, monkeypatch):
        # swap the emission and absorption weights of every bath: detailed
        # balance inverts and heat runs from cold to hot, which the sanity
        # check must catch
        original = lindblad.thermal_rates

        def corrupted(kappa, temperature, frequency):
            emission, absorption = original(kappa, temperature, frequency)
            return absorption, emission

        monkeypatch.setattr(lindblad, "thermal_rates", corrupted)
        checks = dict(ACCEPTANCE_CHECKS)
        _, _, _, passed = checks["generator sanity"]()
        assert not passed

    def test_injected_absorption_excess_breaks_reverse_leakage(self, monkeypatch):
        # ten times the absorption weight of every bath lets the cold left
        # bath feed the reverse cycle beyond what its thermal occupation
        # allows, so the reverse current must exceed the cold-link bound of
        # criterion 5
        original = lindblad.thermal_rates

        def corrupted(kappa, temperature, frequency):
            emission, absorption = original(kappa, temperature, frequency)
            return emission, 10.0 * absorption

        monkeypatch.setattr(lindblad, "thermal_rates", corrupted)
        checks = dict(ACCEPTANCE_CHECKS)
        _, _, _, passed = checks["reverse leakage ratio"]()
        assert not passed
