import io

import numpy as np
import pytest

import spinheat.lindblad as lindblad
from spinheat.experiments import (
    ACCEPTANCE_CHECKS,
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
        ],
    )
    def test_invalid_values(self, override):
        base = (
            "model = ising\ndelta = 0.5\nsweep = temperature\n"
            "start = 0.1\nstop = 5.0\npoints = 5\nt_right = 0.5\n"
        )
        lines = {}
        for line in (base + override).splitlines():
            key = line.split("=")[0].strip()
            if key:
                lines[key] = line
        with pytest.raises(ConfigError):
            parse_config_text("\n".join(lines.values()))

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


class TestSweep:
    def test_temperature_sweep_and_round_trip(self, tmp_path):
        cfg = parse_config_text(BASE_CONFIG)
        first = run_sweep(cfg, out=tmp_path / "a.csv")
        recovered = read_embedded_config(first.read_text())
        second = run_sweep(recovered, out=tmp_path / "b.csv")
        assert first.read_bytes() == second.read_bytes()
        columns, rows = read_table(first)
        assert columns == ["T_L", "J_global", "J_local"]
        assert rows.shape == (5, 3)
        assert np.allclose(rows[:, 2], 0.0, atol=1e-10)  # local transport is dead

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
        path = run_xy_comparison(2, 1.0, tmp_path, jobs=1, points=7)
        columns, rows = read_table(path)
        assert columns == ["T_L", "J_global", "J_local"]
        assert rows.shape == (7, 3)
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


class TestCommandLine:
    def test_non_finite_config_exits_with_configuration_error(self, tmp_path, capsys):
        config = tmp_path / "nan.cfg"
        config.write_text(BASE_CONFIG.replace("t_right = 0.5", "t_right = nan"))
        status = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path)])
        assert status == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_non_finite_kappa_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig2", "--kappa", "inf", "--out", str(tmp_path)])
        assert excinfo.value.code == 2


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
        assert experiments.format_criterion(rows[1]).endswith("FAIL")

    def test_injected_dissipator_sign_error_breaks_clausius(self, monkeypatch):
        # swap the emission and absorption weights of the global baths:
        # detailed balance inverts and heat runs from cold to hot, which the
        # sanity check must catch
        original = lindblad.thermal_channels

        def corrupted(bath, transitions):
            if bath.style is not DissipatorStyle.GLOBAL:
                return original(bath, transitions)
            channels = []
            for frequency, lowering in transitions:
                spectrum = bath.kappa * frequency
                occupation = lindblad.bose_einstein(frequency, bath.temperature)
                channels.append(lindblad.Channel(bath, spectrum * occupation, lowering))
                channels.append(
                    lindblad.Channel(bath, spectrum * (1.0 + occupation), lowering.conj().T)
                )
            return channels

        monkeypatch.setattr(lindblad, "thermal_channels", corrupted)
        checks = dict(ACCEPTANCE_CHECKS)
        _, _, _, passed = checks["generator sanity"]()
        assert not passed

    def test_injected_absorption_excess_breaks_reverse_leakage(self, monkeypatch):
        # ten times the absorption weight lets the cold left bath feed the
        # reverse cycle beyond what its thermal occupation allows, so the
        # reverse current must exceed the cold-link bound of criterion 5
        original = lindblad.thermal_channels

        def corrupted(bath, transitions):
            transitions = list(transitions)
            channels = original(bath, transitions)
            if bath.style is not DissipatorStyle.GLOBAL:
                return channels
            for frequency, lowering in transitions:
                absorption = bath.kappa * frequency * lindblad.bose_einstein(
                    frequency, bath.temperature
                )
                channels.append(lindblad.Channel(bath, 9.0 * absorption, lowering.conj().T))
            return channels

        monkeypatch.setattr(lindblad, "thermal_channels", corrupted)
        checks = dict(ACCEPTANCE_CHECKS)
        _, _, _, passed = checks["reverse leakage ratio"]()
        assert not passed
