"""Command-line interface: subcommands, config files, exit codes."""

import platform

import numpy as np
import pytest
import scipy

from fracwave import __version__, harness
from fracwave.cli import build_parser, main
from fracwave.cq import CQScheme, bdf2_weights
from fracwave.fem import assemble
from fracwave.fraccalc import FracParams
from fracwave.harness import build_case, level_system, run_level, solve_case


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

    @pytest.mark.parametrize("gamma, calls", [("0.5", 0), ("1", 1)])
    def test_weights_are_computed_once(self, capsys, monkeypatch, gamma, calls):
        import fracwave.cli as cli

        counted = []

        def counting_weights(*args):
            counted.append(args)
            return bdf2_weights(*args)

        monkeypatch.setattr(cli, "bdf2_weights", counting_weights)
        code, out, _ = run_cli(capsys, "weights", "--gamma", gamma, "--kappa",
                               "0.25", "--n", "8")
        assert code == 0
        assert len(counted) == calls
        rows = [line.split(",") for line in out.splitlines()
                if not line.startswith(("#", "n,"))]
        table = np.array(rows, dtype=float)
        np.testing.assert_array_equal(table[:, 2], bdf2_weights(float(gamma), 0.25, 8))
        if calls == 0:
            scheme = CQScheme.build(float(gamma), 0.25, 8)
            np.testing.assert_array_equal(table[:, 3:], scheme.startup[True])

    def test_nan_order_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "weights", "--gamma", "nan")
        assert code == 1
        assert out == ""
        assert err.startswith("error: gamma must be finite")


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

    @pytest.mark.parametrize("grid", ["-3", "0"])
    def test_empty_grid_is_an_error(self, capsys, grid):
        code, out, err = run_cli(capsys, "constants", "--grid", grid)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: grid_points must be at least 1, got {grid}")


class TestOde:
    def test_fit_reports_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "ode", "--gamma", "0.5", "--alpha0",
                               "0.25", "--cos-forcing", "3", "--m", "512",
                               "--fit")
        assert code == 0
        values = printed_values(out)
        # v(0) = f(0) - lam u0, the v column of ode.csv; "v0" is only the
        # echoed --v0 flag, u'(0)
        assert "v0" not in values
        assert float(values["v(0)"]) == pytest.approx(1.0 - 4.0)
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

    def test_fit_on_a_short_grid_prints_nothing(self, capsys, tmp_path):
        outdir = tmp_path / "out"
        code, out, err = run_cli(capsys, "ode", "--gamma", "0.5", "--m", "32", "--fit",
                                 "--outdir", str(outdir))
        assert code == 1
        assert out == ""
        assert err.startswith("error: fit window (4, 64) exceeds grid length 32")
        assert not outdir.exists()

    def test_nan_horizon_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "ode", "--gamma", "0.5", "--T", "nan")
        assert code == 1
        assert out == ""
        assert err.startswith("error: T must be positive and finite")

    @pytest.mark.parametrize("argv, message", [
        (["ode", "--alpha0", "nan"], "alpha0 must be positive and finite"),
        (["ode", "--alpha0", "inf"], "alpha0 must be positive and finite"),
        (["ode", "--lam", "nan"], "lam must be finite"),
        (["ode", "--u0", "nan"], "u0 must be finite"),
        (["ode", "--v0", "inf"], "v0 must be finite"),
        (["ode", "--cos-forcing", "nan"], "cos-forcing must be finite"),
        (["solve", "--case", "smooth1d", "--alpha0", "nan"],
         "alpha0 must be positive and finite"),
    ], ids=["ode-alpha0-nan", "ode-alpha0-inf", "ode-lam", "ode-u0", "ode-v0",
            "ode-cos-forcing", "solve-alpha0"])
    def test_non_finite_parameter_is_an_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--gamma", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")


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
        assert echo.startswith(f"# python = {platform.python_version()}\n"
                               f"# numpy = {np.__version__}\n"
                               f"# scipy = {scipy.__version__}\n"
                               f"# fracwave = {__version__}\n")
        rows = csv_rows(outdir / "convergence_smooth1d.csv")
        assert rows[0] == "level,h,kappa,error_energy,error_l2max"
        assert len(rows) == 4
        # the file repeats the table printed to stdout
        assert all(row in out.splitlines() for row in rows)

    def test_horizon_below_the_check_floor(self, capsys):
        # T below 0.05: the source check draws its times from (0.05 T, T)
        code, out, _ = run_cli(capsys, "convergence", "--case", "smooth1d", "--gamma",
                               "0.5", "--levels", "3", "--T", "0.03125")
        assert code == 0
        assert "rate_energy=" in out

    @pytest.mark.parametrize("coupling", ["0", "-6", "nan", "inf"])
    def test_bad_coupling_is_an_error(self, capsys, coupling):
        code, out, err = run_cli(capsys, "convergence", "--case", "smooth1d", "--gamma",
                                 "0.5", "--levels", "3", "--coupling", coupling)
        assert code == 1
        assert out == ""
        assert err.startswith("error: coupling must be positive and finite")

    @pytest.mark.parametrize("argv", [
        ("--case", "smooth1d", "--coupling", "1e9"),
        ("--case", "smooth2d", "--kappa0", "1"),
    ], ids=["coupling", "kappa0"])
    def test_mesh_under_two_cells_is_an_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "convergence", *argv, "--gamma", "0.5",
                                 "--levels", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: kappa = ")
        assert "fewer than 2 cells" in err

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
        norms, _ = run_level(case, 1.0 / 64, corrected=True)
        values = printed_values(out)
        assert float(values["h"]) == norms.system.mesh.h
        assert float(values["error_energy"]) == norms.energy
        assert float(values["error_l2max"]) == norms.l2
        mesh = level_system(case, 1.0 / 64).mesh
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

    def test_keeps_only_the_final_state(self, capsys, monkeypatch):
        # the error norms are accumulated as the run steps
        kept = []
        run = harness.run

        def recording_run(config, observe=None):
            traj = run(config, observe)
            kept.append((observe is not None, traj.us.shape, config.fem.ndof))
            return traj

        monkeypatch.setattr(harness, "run", recording_run)
        code, _, _ = run_cli(capsys, "solve", "--case", "smooth2d", "--gamma", "0.5",
                             "--kappa", "0.0125")
        assert code == 0
        assert kept == [(True, (1, 225), 225)]

    def test_one_assembly_per_mesh(self, capsys, monkeypatch, fresh_systems):
        # the command takes its system from harness.mesh_system
        assembled = []
        assemble = harness.assemble
        monkeypatch.setattr(harness, "assemble",
                            lambda mesh: assembled.append(mesh.h) or assemble(mesh))
        for corrected in ((), ("--corrected",)):
            code, _, _ = run_cli(capsys, "solve", "--case", "smooth1d", "--gamma",
                                 "0.5", "--kappa", "0.015625", *corrected)
            assert code == 0
        assert assembled == [1.0 / 11]

    def test_step_that_does_not_divide_T_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--case", "smooth1d", "--gamma",
                               "0.5", "--kappa", "0.007", "--T", "4")
        assert code == 1
        assert "T=4.0" in err
        assert "kappa=0.007" in err

    def test_step_too_coarse_for_two_cells_is_an_error(self, capsys):
        # h = coupling * kappa = 6 * 0.5 on (0, 1)
        code, out, err = run_cli(capsys, "solve", "--case", "smooth1d", "--gamma",
                                 "0.5", "--kappa", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: kappa = 0.5 and coupling = 6.0 give h =")
        assert "fewer than 2 cells on (0.0, 1.0)" in err

    @pytest.mark.parametrize("flag", ["--T", "--kappa"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_horizon_or_step_is_an_error(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "solve", "--case", "smooth1d", "--gamma", "0.5",
                               flag, value)
        assert code == 1
        assert err.startswith("error: ")
        assert "kappa must be positive and finite" in err


class TestConfigFile:
    @pytest.mark.parametrize("joined", [False, True])
    def test_file_presets_flags(self, capsys, tmp_path, joined):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 1\nkappa = 1\nn = 4\n")
        flag = [f"--config={cfg}"] if joined else ["--config", str(cfg)]
        code, out, _ = run_cli(capsys, *flag, "weights")
        assert code == 0
        assert "1.5" in out

    def test_abbreviated_flag_is_refused(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 1\n")
        with pytest.raises(SystemExit):
            main([f"--conf={cfg}", "weights", "--gamma", "0.5"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 5\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "constants",
                               "--grid", "3")
        rows = [line for line in out.splitlines()
                if line and not line.startswith(("#", "gamma"))]
        assert code == 0
        assert len(rows) == 3

    @pytest.mark.parametrize("argv, unset", [
        (["convergence", "--case", "smooth1d", "--gamma", "0.5", "--levels", "3"],
         "coupling = None"),
        (["ode", "--gamma", "0.5", "--m", "16"], "cos_forcing = None"),
    ])
    def test_config_echo_replays(self, capsys, tmp_path, argv, unset):
        code, out, _ = run_cli(capsys, *argv, "--outdir", str(tmp_path))
        echo = tmp_path / "config_echo.txt"
        assert code == 0
        assert f"command = {argv[0]}" in echo.read_text()
        assert unset in echo.read_text()
        code, replayed, err = run_cli(capsys, "--config", str(echo), argv[0])
        assert (code, err) == (0, "")
        assert replayed == out

    def test_echo_of_another_subcommand_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = ode\ngamma = 0.5\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "weights")
        assert code == 1
        assert "'ode'" in err and "'weights'" in err

    def test_unknown_key_lists_valid_ones(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "weights",
                               "--gamma", "0.5")
        assert code == 1
        assert "unknown key" in err
        assert "gamma" in err

    @pytest.mark.parametrize("argv, message", [
        ([], "error: --config requires a file path"),
        (["{empty}"], "error: --config requires a subcommand"),
        (["{empty}", "bogus"], "error: unknown subcommand 'bogus'"),
    ])
    def test_expansion_errors(self, capsys, tmp_path, argv, message):
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        code, out, err = run_cli(capsys, "--config",
                                 *(arg.format(empty=empty) for arg in argv))
        assert (code, out) == (1, "")
        assert err == message + "\n"


# Each subcommand's least valid command line and every value it parses to.
_MINIMAL = {
    "weights": (["--gamma", "0.5"],
                {"gamma": 0.5, "kappa": 1.0, "n": 16}),
    "ode": (["--gamma", "0.5"],
            {"gamma": 0.5, "alpha0": 1.0, "lam": 4.0, "u0": 1.0, "v0": 0.0,
             "cos_forcing": None, "T": 1.0, "m": 1024, "fit": False, "outdir": None}),
    "convergence": (["--case", "smooth1d", "--gamma", "0.5"],
                    {"case": "smooth1d", "corrected": False, "gamma": 0.5,
                     "alpha0": 1.0, "levels": 4, "coupling": None, "kappa0": None,
                     "T": 1.0, "outdir": None}),
    "damping": ([], {"gammas": "0.25,0.75,-0.25,-0.75", "n": 32, "T": 2.0,
                     "outdir": None}),
    "constants": ([], {"grid": 99, "outdir": None}),
    "solve": (["--case", "smooth1d", "--gamma", "0.5"],
              {"case": "smooth1d", "corrected": False, "gamma": 0.5, "alpha0": 1.0,
               "kappa": 1.0 / 128, "T": 1.0, "outdir": None}),
    "acceptance": ([], {"criteria": None, "assert_": False}),
}


class TestParser:
    @pytest.mark.parametrize("command", list(_MINIMAL))
    def test_flags_and_defaults(self, command):
        flags, values = _MINIMAL[command]
        args = vars(build_parser().parse_args([command, *flags]))
        del args["func"]
        assert args == {"command": command, "config": None, **values}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (flags, _) in _MINIMAL.items()
        for flag in flags if flag.startswith("--")])
    def test_required_flag_left_out(self, capsys, command, flag):
        flags = _MINIMAL[command][0]
        at = flags.index(flag)
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, *flags[:at], *flags[at + 2:]])
        assert f"required: {flag}" in capsys.readouterr().err


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
