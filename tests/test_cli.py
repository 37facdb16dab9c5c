import contextlib
import io
import pathlib
import tempfile

import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mddg.harness
from mddg.cli import main
from mddg.harness import ConfigError, parse_config_text
from mddg.mesh import TriangularMesh

from conftest import config_lines

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchemes:
    def test_exact_tp5_line(self, capsys):
        code, out, _ = run_cli(["schemes"], capsys)
        assert code == 0
        assert "tp5: alpha = 2/5, 1/20, 0; beta = -3/5, 3/20, -1/60" in out

    def test_all_two_point_rows_present(self, capsys):
        _, out, _ = run_cli(["schemes"], capsys)
        assert "tp3: alpha = 1/3, 0, 0; beta = -2/3, 1/6, 0" in out
        assert "tp4: alpha = 1/2, 1/12, 0; beta = -1/2, 1/12, 0" in out
        assert "tp6: alpha = 1/2, 1/10, 1/120; beta = -1/2, 1/10, -1/120" in out

    def test_mdrk6_rows_as_rationals(self, capsys):
        _, out, _ = run_cli(["schemes"], capsys)
        assert "mdrk6: a1[1] = 101/480, 4/15, 11/480" in out
        assert "mdrk6: a2[2] = 1/60, 0, -1/60" in out
        assert "mdrk6: b1 = 7/30, 8/15, 7/30" in out


class TestStability:
    def test_tp6_csv_row(self, capsys):
        code, out, _ = run_cli(["stability", "--method", "tp6"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,max_abs_R_imag_axis,max_abs_R_left_half,limit_at_minus_inf,a_stable"
        fields = lines[1].split(",")
        assert fields[0] == "tp6"
        assert fields[4] == "true"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "stab.csv"
        code, out, _ = run_cli(["stability", "--method", "tp3", "--output", str(path)], capsys)
        assert code == 0
        text = path.read_text()
        assert text.splitlines()[1].startswith("tp3,")

    def test_unwritable_output_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "stab.csv"
        code, out, err = run_cli(["stability", "--method", "tp3", "--output", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: cannot write {path}")

    def test_unknown_method_is_usage_error(self, capsys):
        code, _, err = run_cli(["stability", "--method", "rk99"], capsys)
        assert code == 1
        assert "error" in err.lower()


class TestConvergenceCommand:
    def test_small_run_writes_csv(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem = convection\nmethod = tp3\np = 1\ndt0 = 0.25\nlevels = 2\n"
        )
        out_csv = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["convergence", "--config", str(cfg), "--output", str(out_csv)], capsys
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "level,h,dt,ndof,l2_error,observed_order"
        assert len(lines) == 3

    def test_unwritable_config_output_fails_before_the_study(self, capsys, tmp_path):
        # the output path comes from the config; the study must not run first
        path = tmp_path / "missing" / "out.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem = convection\nmethod = tp3\np = 1\nlevels = 2\noutput = {path}\n")
        code, out, err = run_cli(["convergence", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: cannot write {path}")

    def test_missing_config_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(["convergence", "--config", str(tmp_path / "nope.cfg")], capsys)
        assert code == 1
        assert "config error" in err

    def test_bad_key_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 3\n")
        code, _, err = run_cli(["convergence", "--config", str(cfg)], capsys)
        assert code == 1

    def test_missing_subcommand_args_exit_1(self, capsys):
        code, _, _ = run_cli(["convergence"], capsys)
        assert code == 1


class TestSolveCommand:
    def test_solve_prints_error_and_stats(self, capsys, tmp_path):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(
            "problem = convection\nmethod = tp4\np = 1\ndt0 = 0.25\nlevel = 1\n"
        )
        code, out, _ = run_cli(["solve", "--config", str(cfg)], capsys)
        assert code == 0
        assert "l2_error = " in out
        assert "max_residual" in out

    def test_solve_builds_only_its_own_level(self, capsys, tmp_path, monkeypatch):
        # one mesh, the solve level's, and not the hierarchy up to it
        built = []
        init = TriangularMesh.__init__

        def counted(self, level):
            built.append(level)
            init(self, level)

        monkeypatch.setattr(TriangularMesh, "__init__", counted)
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("problem = convection\nmethod = tp3\np = 0\ndt0 = 0.5\nlevel = 3\n")
        code, out, _ = run_cli(["solve", "--config", str(cfg)], capsys)
        assert code == 0 and "l2_error = " in out
        assert built == [3]

    def test_solver_failure_exits_2(self, capsys, tmp_path, monkeypatch):
        # a complete LU that SuperLU cannot build must fail loudly: this p = 0 convection
        # system is solved by it alone
        calls = []

        def singular(A, **kwargs):
            calls.append(A.shape)
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        cfg = tmp_path / "fail.cfg"
        cfg.write_text("problem = convection\nmethod = tp3\np = 0\ndt0 = 0.5\nlevel = 2\n")
        code, out, _ = run_cli(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert "solve failed" in out
        assert len(calls) == 1


@pytest.mark.parametrize(
    "setting",
    [
        "ilu_level = -1",
        "ilu_level = 2",
        # the GMRES settings are module constants: any value is an unknown key
        "gmres_rtol = 0",
        "gmres_rtol = 1",
        "gmres_rtol = 2",
        "gmres_rtol = 1e-8",
        "gmres_restart = 0",
        "gmres_restart = 30",
        "gmres_maxit = 0",
        "gmres_maxit = 100",
        "gmres_fallback = false",
        "eta = 0",
        "dt0 = nan",
        "dt0 = 5e-324",  # positive and finite, but 1 / dt0 overflows
        "dt0 = 1e-308",  # 1 / dt0 is finite, but far above MAX_STEPS
        "dt0 = 1e-9",
        pytest.param("problem = convection_diffusion\np = 0", id="diffusion-p0"),
        "level = -1",
    ],
)
@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_invalid_setting_is_config_error(command, setting, capsys, tmp_path):
    # rejected before any level runs: exit 1, one `config error:` line, no traceback
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"method = tp3\nlevels = 1\n{setting}\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ")
    key = setting.partition(" =")[0]
    if key.startswith("gmres_"):
        assert err == f"config error: line 3: unknown key {key!r}\n"


def test_dt0_overflowing_at_the_solve_level_is_config_error(capsys, tmp_path):
    # 1 / 1e-308 is finite, but at level 1 the step count 2 / 1e-308 overflows
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("method = tp3\nlevels = 1\ndt0 = 1e-308\nlevel = 1\n")
    code, out, err = run_cli(["solve", "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "config error: dt0 = 1e-308 leaves too many time steps at level 1 (more than MAX_STEPS = 1000000)"
    ]


@pytest.mark.parametrize(
    "settings", ["levels = 30\ndt0 = 1e9", "level = 40\ndt0 = 1e13\nlevels = 1"], ids=["levels", "level"]
)
@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_mesh_deeper_than_max_level_is_config_error(command, settings, capsys, tmp_path, monkeypatch):
    # few enough time steps, but a finest mesh of 2 * 4^29 or more triangles: refused
    # with one `config error:` line before any mesh is built
    def refuse(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(TriangularMesh, "__init__", refuse)
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(f"method = tp3\n{settings}\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ") and "MAX_LEVEL = 7" in err


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_overflowing_penalty_is_config_error(command, capsys, tmp_path):
    # eta = 1e308 overflows ||A||_inf at every level: assembly refuses the operator, reported
    # as exit 1 with one `config error:` line, without a numpy warning (which the test
    # settings would raise) or a failed level
    cfg = tmp_path / "huge_eta.cfg"
    cfg.write_text("problem = convection_diffusion\nmethod = tp3\np = 1\ndt0 = 0.5\neta = 1e308\nlevels = 3\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "config error: penalty parameter eta = 1e+308 overflows the operator: ||A||_inf = inf"
    ]


# the residual check's product overflows, and numpy warns of it on the way to the failure
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_huge_finite_penalty_fails_its_solves_with_exit_2(command, capsys, tmp_path):
    # eta = 1e200 leaves ||A||_inf finite, so the operator is accepted, but its blocks I - lam Z
    # are beyond what the direct solve resolves: every level fails its residual check, reported
    # as a failed level (NaN row) or a failed solve with exit 2, never a traceback
    cfg = tmp_path / "huge_eta.cfg"
    level = "levels = 3" if command == "convergence" else "level = 2"
    cfg.write_text(f"problem = convection_diffusion\nmethod = tp3\np = 1\ndt0 = 0.5\neta = 1e200\n{level}\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2 and err == ""
    failure = "direct solve did not converge: residual nan"
    if command == "solve":
        assert out == f"solve failed: {failure}\n"
    else:
        lines = out.splitlines()
        assert lines[3] == "2,0.35355339059327379,0.125,96,nan,"
        assert lines[-1] == f"level 2 failed: {failure}"


def test_non_utf8_config_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("method = tp3\n# d\xe9j\xe0 vu\n".encode("latin-1"))
    code, out, err = run_cli(["solve", "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: cannot read config")


@settings(deadline=None, max_examples=60)
@given(st.lists(config_lines, max_size=6))
def test_rejected_config_text_is_one_line_cli_error(lines):
    # whatever parse_config_text rejects, `mddg solve` reports as exit 1 with one
    # `config error:` line and nothing on stdout, never a traceback
    text = "\n".join(lines)
    try:
        parse_config_text(text)
    except ConfigError:
        pass
    else:
        return  # an accepted config would run a solve
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "cfg"
        path.write_text(text, encoding="utf-8", newline="")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--config", str(path)])
    assert code == 1
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("config error: ")


def test_shipped_config_solves(capsys):
    # the smallest shipped study config parses and a single level-0 solve runs: four steps,
    # one solve each, and the statistics line names only the solves and their worst residual
    code, out, _ = run_cli(["solve", "--config", str(CONFIGS / "fig1a.cfg")], capsys)
    assert code == 0
    assert out.splitlines() == ["l2_error = 0.38583124874368785", "solves = 4, max_residual = 8.217e-16"]
