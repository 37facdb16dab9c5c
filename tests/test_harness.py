import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mddg.harness
from mddg.harness import (
    MAX_LEVEL,
    MAX_STEPS,
    PROBLEMS,
    ConfigError,
    RunConfig,
    default_eta,
    format_report,
    make_problem,
    method_registry,
    parse_config,
    parse_config_text,
    run_convergence,
)
from mddg.sparse import LinearSolver

from conftest import config_lines


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config_text("problem = convection\np = 2\nmethod = tp3\n")
        assert cfg.problem == "convection"
        assert cfg.p == 2
        assert cfg.levels == 5

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# study\n\nmethod = tp5  # five\n p = 4 \n")
        assert cfg.method == "tp5"
        assert cfg.p == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("mystery = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("p = 1\np = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("p = two\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config_text("method = rk4\n")

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("problem = heat\n")

    def test_invalid_levels(self):
        with pytest.raises(ConfigError):
            RunConfig(levels=0)

    def test_dt0_checked_at_the_finest_level(self):
        # dt0 / 2^(levels - 1) must leave at most MAX_STEPS steps; coarser levels alone do not decide
        RunConfig(dt0=1.0 / MAX_STEPS, levels=1)
        with pytest.raises(ConfigError, match="too many time steps at level 1"):
            RunConfig(dt0=1.0 / MAX_STEPS, levels=2)
        with pytest.raises(ConfigError, match="at level 1000000"):
            RunConfig(levels=10**6 + 1)

    @pytest.mark.parametrize(
        "settings, finest",
        [(dict(levels=30, dt0=1e9), 29), (dict(level=40, dt0=1e13, levels=1), 40)],
        ids=["levels", "level"],
    )
    def test_mesh_level_capped(self, settings, finest, monkeypatch):
        # dt0 keeps these within MAX_STEPS, but their finest mesh would hold 2 * 4^finest
        # triangles; the config is refused before any mesh is built
        def refuse(*args):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(mddg.harness, "build_base_mesh", refuse)
        monkeypatch.setattr(mddg.harness, "refine_uniform", refuse)
        with pytest.raises(ConfigError, match=f"at level {finest}, deeper than MAX_LEVEL = {MAX_LEVEL}"):
            RunConfig(**settings)

    def test_mesh_level_cap_admits_max_level(self):
        RunConfig(levels=MAX_LEVEL + 1)
        RunConfig(level=MAX_LEVEL, levels=1)
        with pytest.raises(ConfigError, match="MAX_LEVEL"):
            RunConfig(levels=MAX_LEVEL + 2)
        with pytest.raises(ConfigError, match="MAX_LEVEL"):
            RunConfig(level=MAX_LEVEL + 1, levels=1)

    @pytest.mark.parametrize("dt0", [1e-308, 1e-9, 0.99 / MAX_STEPS])
    def test_step_count_capped(self, dt0):
        # each is positive and leaves a finite step count, but more than MAX_STEPS (t_end = 1)
        with pytest.raises(ConfigError, match=f"at level 0 \\(more than MAX_STEPS = {MAX_STEPS}\\)"):
            RunConfig(method="tp3", levels=1, dt0=dt0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    def test_every_key_parses_to_its_annotated_type(self):
        # key: (config text, parsed value); Optional fields parse to their inner type
        settings = {
            "problem": ("convection_diffusion", "convection_diffusion"),
            "p": ("2", 2),
            "method": ("tp4", "tp4"),
            "dt0": ("0.5", 0.5),
            "levels": ("2", 2),
            "eta": ("25", 25.0),
            "solver": ("direct", "direct"),
            "level": ("1", 1),
            "output": ("7.csv", "7.csv"),
        }
        assert set(settings) == {f.name for f in dataclasses.fields(RunConfig)}
        cfg = parse_config_text("".join(f"{key} = {text}\n" for key, (text, _) in settings.items()))
        for key, (_, value) in settings.items():
            got = getattr(cfg, key)
            assert type(got) is type(value) and got == value, key

    def test_solver_defaults_are_linear_solvers(self):
        assert RunConfig().linear_solver() == LinearSolver()

    def test_problem_table_names_its_problems(self):
        for name in PROBLEMS:
            assert make_problem(name).name == name
        with pytest.raises(ValueError, match="unknown problem 'heat'"):
            make_problem("heat")

    def test_registry_contents(self):
        assert set(method_registry()) == {"tp3", "tp4", "tp5", "tp6", "mdrk6", "gl6"}

    def test_default_eta_above_threshold(self):
        # coercivity thresholds on this hierarchy sit just above p (p + 1)
        for p in range(6):
            assert default_eta(p) > p * (p + 1) + 1


@settings(deadline=None)
@given(st.lists(config_lines, max_size=6))
def test_parse_config_text_returns_config_or_config_error(lines):
    try:
        cfg = parse_config_text("\n".join(lines))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@pytest.fixture(scope="module")
def small_report():
    cfg = RunConfig(problem="convection", p=1, method="tp3", dt0=0.25, levels=3)
    return run_convergence(cfg)


class TestRunConvergence:

    def test_row_structure(self, small_report):
        rows = small_report.rows
        assert [r.level for r in rows] == [0, 1, 2]
        assert rows[0].observed_order is None
        assert rows[0].ndof == 2 * 3
        assert rows[1].ndof == 8 * 3
        assert abs(rows[1].dt - 0.125) < 1e-15

    def test_errors_decrease(self, small_report):
        errs = small_report.errors
        assert errs[2] < errs[1]

    def test_h_column_tracks_mesh(self, small_report):
        assert abs(small_report.rows[0].h - math.sqrt(2.0)) < 1e-12
        assert abs(small_report.rows[1].h - math.sqrt(2.0) / 2) < 1e-12

    def test_solver_stats_collected(self, small_report):
        assert len(small_report.solver_stats) == 3
        flat = [s for lv in small_report.solver_stats for s in lv]
        assert len(flat) == 4 + 8 + 16
        assert all(s.residual <= 1e-10 for s in flat)

    def test_reproducible_bytes(self):
        cfg = RunConfig(problem="convection", p=1, method="tp4", dt0=0.25, levels=2)
        a = format_report(run_convergence(cfg))
        b = format_report(run_convergence(cfg))
        assert a == b

    def test_diffusion_rejects_p0(self):
        # rejected when the config is built, before any level runs
        with pytest.raises(ConfigError, match="p >= 1"):
            RunConfig(problem="convection_diffusion", p=0, method="tp3", levels=2)


class TestFormatReport:
    def test_csv_contract(self):
        cfg = RunConfig(problem="convection", p=0, method="tp3", dt0=0.25, levels=1)
        lines = format_report(run_convergence(cfg)).splitlines()
        assert lines[0] == "level,h,dt,ndof,l2_error,observed_order"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert cells[5] == ""  # empty order on level 0

    def test_round_trip_bit_exact(self):
        cfg = RunConfig(problem="convection", p=1, method="tp3", dt0=0.25, levels=2)
        report = run_convergence(cfg)
        lines = format_report(report).splitlines()[1:]
        for row, line in zip(report.rows, lines):
            cells = line.split(",")
            assert float(cells[1]) == row.h
            assert float(cells[2]) == row.dt
            assert float(cells[4]) == row.l2_error
            if cells[5]:
                assert float(cells[5]) == row.observed_order


class TestFigureConfigs:
    def test_all_ship_configs_parse(self):
        import pathlib

        cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
        files = sorted(cfg_dir.glob("*.cfg"))
        assert len(files) >= 12
        for f in files:
            cfg = parse_config(f)
            assert cfg.method in method_registry()

    def test_fig5_uses_unit_timestep(self):
        import pathlib

        cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
        cfg = parse_config(cfg_dir / "fig5_mdrk6.cfg")
        assert cfg.dt0 == 1.0
        assert cfg.p == 5
