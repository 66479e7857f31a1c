"""Command-line interface: subcommands, config files, exit codes."""

import numpy as np
import pytest

from fracwave.cli import main
from fracwave.fem import assemble, build_mesh
from fracwave.fraccalc import FracParams
from fracwave.harness import build_case, level_cells, run_level, solve_case


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed_values(out):
    return dict(line.split(" = ") for line in out.splitlines()
                if " = " in line and not line.startswith("#"))


def csv_rows(path):
    return path.read_text().strip().splitlines()


class TestWeights:
    def test_integer_order_table(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--gamma", "1", "--kappa", "1",
                               "--n", "4")
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        values = [float(r.split(",")[2]) for r in rows[1:]]
        assert values == pytest.approx([1.5, -2.0, 0.5, 0.0, 0.0])

    def test_fractional_order_includes_corrections(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--gamma", "-0.5", "--n", "2")
        assert code == 0
        header = [line for line in out.splitlines() if line.startswith("n,")][0]
        assert header == "n,t_n,omega_n,w0_n,w1_n"


class TestConstants:
    def test_grid_rows_and_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--grid", "9")
        assert code == 0
        rows = [line for line in out.splitlines()
                if line and not line.startswith(("#", "gamma"))]
        assert len(rows) == 9
        for row in rows:
            _, c1, c2 = (float(v) for v in row.split(","))
            assert c2 >= c1

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "constants", "--grid", "20")
        _, second, _ = run_cli(capsys, "constants", "--grid", "20")
        assert first == second

    def test_outdir_csv(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "constants", "--grid", "99",
                             "--outdir", str(tmp_path))
        assert code == 0
        rows = csv_rows(tmp_path / "constants.csv")
        assert rows[0] == "gamma,C1,C2"
        assert len(rows) == 100


class TestOde:
    def test_fit_reports_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "ode", "--gamma", "0.5", "--alpha0",
                               "0.25", "--cos-forcing", "3", "--m", "512",
                               "--fit")
        assert code == 0
        values = printed_values(out)
        assert float(values["v0"]) == pytest.approx(1.0 - 4.0)
        assert float(values["startup_exponent"]) == pytest.approx(0.5, abs=0.1)

    def test_outdir_csv(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "ode", "--gamma", "0.5", "--alpha0",
                             "1", "--lam", "1", "--m", "16",
                             "--outdir", str(tmp_path))
        assert code == 0
        rows = csv_rows(tmp_path / "ode.csv")
        assert rows[0] == "t,u,v"
        assert len(rows) == 18
        assert (tmp_path / "config_echo.txt").exists()


class TestConvergence:
    def test_summary_and_outdir(self, capsys, tmp_path):
        outdir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "convergence", "--case", "smooth1d",
                               "--gamma", "-0.75", "--corrected",
                               "--levels", "3", "--outdir", str(outdir))
        assert code == 0
        assert "rate_energy=" in out
        assert (outdir / "config_echo.txt").exists()
        echo = (outdir / "config_echo.txt").read_text()
        assert "gamma = -0.75" in echo
        assert "corrected = True" in echo
        rows = csv_rows(outdir / "convergence_smooth1d.csv")
        assert rows[0] == "level,h,kappa,error_energy,error_l2max"
        assert len(rows) == 4
        # the file repeats the table printed to stdout
        assert all(row in out.splitlines() for row in rows)

    def test_bad_case_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["convergence", "--case", "bogus", "--gamma", "0.5"])


class TestDamping:
    def test_outdir_trace(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "damping", "--gammas", "0.25,0.75",
                               "--n", "16", "--T", "1", "--outdir", str(tmp_path))
        assert code == 0
        assert "gamma=0.75: E_final/E_1" in out
        rows = csv_rows(tmp_path / "damping_trace.csv")
        assert rows[0] == "t,gamma_none,gamma_0.25,gamma_0.75"
        # kappa = h/10 = 1/80, so 80 steps and 81 times
        assert len(rows) == 82
        assert float(rows[-1].split(",")[0]) == pytest.approx(1.0)


class TestSolve:
    def test_matches_harness_and_writes_outdir(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "solve", "--case", "smooth1d", "--gamma",
                               "0.5", "--corrected", "--kappa", "0.015625",
                               "--outdir", str(tmp_path))
        assert code == 0
        case = build_case("smooth1d", FracParams(gamma=0.5))
        h, e_en, e_l2 = run_level(case, 1.0 / 64, corrected=True)
        values = printed_values(out)
        assert float(values["h"]) == h
        assert float(values["error_energy"]) == e_en
        assert float(values["error_l2max"]) == e_l2
        mesh = build_mesh(1, case.domain, level_cells(case, 1.0 / 64))
        traj = solve_case(case, assemble(mesh), 1.0 / 64, corrected=True)
        assert int(values["steps"]) == len(traj.energy) == 64
        rows = csv_rows(tmp_path / "energy.csv")
        assert rows[0] == "n,t_n,E_n"
        table = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        np.testing.assert_array_equal(table[:, 0], np.arange(1, 65))
        np.testing.assert_array_equal(table[:, 1], traj.times[1:])
        np.testing.assert_array_equal(table[:, 2], traj.energy)
        # final_state.csv comes from the same table writer: header, CRLF
        raw = (tmp_path / "final_state.csv").read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n") == len(traj.us[-1]) + 1
        rows = csv_rows(tmp_path / "final_state.csv")
        assert rows[0] == "x,u"
        state = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        np.testing.assert_array_equal(state[:, 0], mesh.nodes[mesh.interior][:, 0])
        np.testing.assert_array_equal(state[:, 1], traj.us[-1])


class TestConfigFile:
    def test_file_presets_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 1\nkappa = 1\nn = 4\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "weights")
        assert code == 0
        assert "1.5" in out

    def test_cli_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 5\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "constants",
                               "--grid", "3")
        rows = [line for line in out.splitlines()
                if line and not line.startswith(("#", "gamma"))]
        assert code == 0
        assert len(rows) == 3

    def test_unknown_key_lists_valid_ones(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "weights",
                               "--gamma", "0.5")
        assert code == 1
        assert "unknown key" in err
        assert "gamma" in err


class TestAcceptance:
    def test_passing_subset_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "acceptance", "--criteria", "1,4",
                               "--assert")
        assert code == 0
        assert out.count("PASS") == 2

    def test_bad_index_rejected(self, capsys):
        code, _, err = run_cli(capsys, "acceptance", "--criteria", "11")
        assert code == 1
        assert "1..10" in err
