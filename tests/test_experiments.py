"""Preset layout, sweep sharing and file emission."""

import json
import re

import pytest

from qwrng import experiments
from qwrng.experiments import (
    ExperimentSpec,
    PRESET_NAMES,
    RateCurve,
    ResultTable,
    default_signal_grid,
    emit,
    preset,
    reference_value,
    run_rate_curve,
    run_table,
)
from qwrng.maxprob import SweepGrid, g_functions
from qwrng.rates import ProtocolCase
from qwrng.walk import MeasurementMode, distribution, evolve


def _tiny_table_spec(tmax=6):
    cases = tuple((P, k, MeasurementMode.ALL) for k in (1, 2) for P in (3, 5))
    return ExperimentSpec(name="tiny", cases=cases, grid=SweepGrid(t_min=1, t_max=tmax))


class TestPresets:
    def test_preset_names_cover_tables_and_figures(self):
        assert set(PRESET_NAMES) == {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "kappa1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        }

    @pytest.mark.parametrize("name,count", [
        ("table1", 15), ("table3", 15), ("table5", 15),
        ("table2", 12), ("table4", 12), ("table6", 12),
        ("kappa1", 15),
    ])
    def test_table_cell_counts(self, name, count):
        spec = preset(name)
        assert len(spec.cases) == count
        assert spec.noise_levels == ()  # no noise levels: a table, not a rate curve

    @pytest.mark.parametrize("name,count,noises", [
        ("fig1", 10, 4), ("fig2", 10, 4), ("fig3", 12, 4),
        ("fig4", 20, 3), ("fig5", 12, 3), ("fig6", 20, 3), ("fig7", 12, 3),
    ])
    def test_figure_shapes(self, name, count, noises):
        spec = preset(name)
        assert len(spec.cases) == count
        assert len(spec.noise_levels) == noises
        assert spec.noise_levels[0] == 0.0
        assert all(a < b for a, b in zip(spec.noise_levels, spec.noise_levels[1:]))

    def test_hadamard_presets_use_long_sweep_without_angles(self):
        grid = preset("table1").grid
        assert grid.t_max == 2000 and grid.R is None

    def test_general_presets_use_angle_grid(self):
        grid = preset("table2").grid
        assert grid.t_max == 1000 and grid.R == 16

    def test_grid_overrides(self):
        assert preset("table1", t_max=5).grid.t_max == 5
        g = preset("table2", R=4, t_max=7).grid
        assert (g.R, g.t_max) == (4, 7)

    @pytest.mark.parametrize("name, override", [
        ("table1", {"t_max": 0}),  # an empty window, not the default one
        ("table2", {"R": 0}),  # no angle grid, not the default one
        ("table1", {"R": 8}),  # Hadamard presets sweep no angles
    ])
    def test_invalid_grid_overrides_rejected(self, name, override):
        with pytest.raises(ValueError):
            preset(name, **override)

    def test_unknown_preset_lists_options(self):
        with pytest.raises(ValueError, match="table1"):
            preset("table99")

    def test_signal_grid_is_increasing_and_spans_range(self):
        grid = default_signal_grid()
        assert grid[0] == 1000 and grid[-1] == 10**10
        assert all(a < b for a, b in zip(grid, grid[1:]))


class TestReferenceLookup:
    def test_known_cell(self):
        assert reference_value("hadamard", MeasurementMode.ALL, 2, 3) == 0.1250

    def test_marginals_share_single_coin_row(self):
        mem = reference_value("hadamard", MeasurementMode.MEMORY_ONLY, 1, 5)
        pos = reference_value("hadamard", MeasurementMode.POSITION_ONLY, 1, 5)
        assert mem == pos == 0.2447

    def test_missing_cell_is_none(self):
        assert reference_value("general", MeasurementMode.ALL, 1, 51) is None


class TestRunTable:
    def test_rows_revalidate_against_direct_evaluation(self):
        table = run_table(_tiny_table_spec())
        assert len(table.rows) == 4
        for row in table.rows:
            probs = distribution(evolve(row.walk_config()), row.mode).probs
            assert probs.max() == pytest.approx(row.value, abs=1e-12)

    def test_published_cell_reproduced(self):
        # one real sweep: the kappa=2, P=3 joint minimum sits at 0.1250
        grid = SweepGrid(t_min=1, t_max=2000)
        spec = ExperimentSpec(name="one", cases=((3, 2, MeasurementMode.ALL),), grid=grid)
        row = run_table(spec).rows[0]
        assert abs(row.value - reference_value("hadamard", MeasurementMode.ALL, 2, 3)) < 5e-4

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            run_table(ExperimentSpec(name="none", cases=(), grid=SweepGrid(t_min=1, t_max=5)))

    def test_table_sweeps_only_requested_modes(self, monkeypatch):
        all_, mem, pos = (MeasurementMode.ALL, MeasurementMode.MEMORY_ONLY,
                          MeasurementMode.POSITION_ONLY)
        grid = SweepGrid(t_min=1, t_max=40, R=3)
        cases = ((5, 2, all_), (3, 2, all_), (3, 2, mem), (3, 2, pos), (3, 1, all_))
        calls = []

        def spy(P, kappa, grid, modes):
            calls.append(((P, kappa), tuple(modes)))
            return g_functions(P, kappa, grid, modes)

        monkeypatch.setattr(experiments, "g_functions", spy)
        rows = run_table(ExperimentSpec(name="mixed", cases=cases, grid=grid)).rows
        assert dict(calls) == {(5, 2): (all_,), (3, 2): (all_, mem, pos), (3, 1): (all_,)}
        assert len(calls) == 3
        for row, (P, kappa, mode) in zip(rows, cases):
            assert row == g_functions(P, kappa, grid)[mode]

    def test_table_keeps_no_sweeps_between_runs(self, monkeypatch):
        calls = []

        def spy(P, kappa, grid, modes):
            calls.append((P, kappa))
            return g_functions(P, kappa, grid, modes)

        monkeypatch.setattr(experiments, "g_functions", spy)
        spec = _tiny_table_spec()
        first = run_table(spec)
        assert run_table(spec) == first
        assert len(calls) == 2 * len(spec.cases)  # the second run swept every cell again


@pytest.fixture(scope="module")
def curve():
    grid = SweepGrid(t_min=1, t_max=50)
    spec = ExperimentSpec(
        name="mini",
        cases=((5, 1, MeasurementMode.POSITION_ONLY),),
        grid=grid,
        noise_levels=(0.0, 0.2),
    )
    pos = MeasurementMode.POSITION_ONLY
    return run_rate_curve(spec), g_functions(5, 1, grid, (pos,))[pos].gamma


class TestRunRateCurve:
    def test_point_count_and_case_label(self, curve):
        result, _ = curve
        assert len(result.rows) == 1 * 2 * len(default_signal_grid())
        assert {p.case for p in result.rows} == {ProtocolCase.NOT_USING_MEMORY}

    def test_small_n_clamps_to_zero(self, curve):
        result, _ = curve
        by_key = {(p.Q, p.N): p.rate for p in result.rows}
        assert by_key[(0.0, 10**3)] == 0.0

    def test_noiseless_rates_nondecreasing_in_n(self, curve):
        result, _ = curve
        rates = [p.rate for p in result.rows if p.Q == 0.0]
        assert all(a <= b + 1e-15 for a, b in zip(rates, rates[1:]))

    def test_rates_bounded_by_gamma(self, curve):
        result, gamma = curve
        assert all(p.rate <= gamma for p in result.rows)

    def test_noise_strictly_hurts_at_large_n(self, curve):
        result, _ = curve
        by_key = {(p.Q, p.N): p.rate for p in result.rows}
        N = default_signal_grid()[-1]
        assert by_key[(0.2, N)] < by_key[(0.0, N)]

    def test_table_spec_rejected_for_curves(self):
        with pytest.raises(ValueError, match="tiny is a table preset"):
            run_rate_curve(_tiny_table_spec())


class TestEmit:
    def test_table_csv_header_and_determinism(self, tmp_path):
        table = run_table(_tiny_table_spec())
        p1 = emit(table, fmt="csv", path=tmp_path / "a", timestamp=False)
        p2 = emit(table, fmt="csv", path=tmp_path / "b", timestamp=False)
        text = p1.read_text()
        assert text.splitlines()[0] == "kappa,P,mode,value,t,theta,phi,flip"
        assert len(text.splitlines()) == 5
        assert p1.name == "tiny.csv"
        assert text == p2.read_text()

    def test_hadamard_rows_leave_angles_empty(self, tmp_path):
        table = run_table(_tiny_table_spec())
        path = emit(table, fmt="csv", path=tmp_path, timestamp=False)
        first = path.read_text().splitlines()[1].split(",")
        assert (first[2], first[5], first[6], first[7]) == ("all", "", "", "I")

    def test_json_mirrors_csv_rows(self, tmp_path):
        table = run_table(_tiny_table_spec())
        jpath = emit(table, fmt="json", path=tmp_path, timestamp=False)
        doc = json.loads(jpath.read_text())
        assert doc["name"] == "tiny"
        assert len(doc["rows"]) == 4
        assert set(doc["rows"][0]) == {
            "kappa", "P", "mode", "value", "t", "theta", "phi", "flip",
        }

    def test_curve_csv_header(self, tmp_path):
        grid = SweepGrid(t_min=1, t_max=10)
        spec = ExperimentSpec(
            name="c",
            cases=((3, 1, MeasurementMode.ALL),),
            grid=grid,
            noise_levels=(0.0,),
        )
        path = emit(run_rate_curve(spec), fmt="csv", path=tmp_path, timestamp=False)
        lines = path.read_text().splitlines()
        assert lines[0] == "case,kappa,P,Q,N,rate"
        assert lines[1].startswith("using_all,1,3,0.0,1000,")
        assert len(lines) == 1 + len(default_signal_grid())

    def test_timestamped_name(self, tmp_path):
        table = run_table(_tiny_table_spec())
        path = emit(table, fmt="csv", path=tmp_path, timestamp=True)
        assert re.fullmatch(r"tiny_\d{8}T\d{6}\.csv", path.name)

    def test_empty_rows_rejected(self, tmp_path):
        hollow = ResultTable(name="x", rows=())
        with pytest.raises(ValueError):
            emit(hollow, path=tmp_path)
        with pytest.raises(ValueError):
            emit(RateCurve(name="y", rows=()), path=tmp_path)

    def test_unknown_format_rejected(self, tmp_path):
        table = run_table(_tiny_table_spec())
        with pytest.raises(ValueError):
            emit(table, fmt="tsv", path=tmp_path)
