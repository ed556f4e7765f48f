"""CLI surface: CSV formats, exit codes, determinism, config files."""

import os
import subprocess
import sys

import numpy as np
import pytest

import spinquench
from spinquench import central, cli
from spinquench.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a small decohere run; a flag given again after it overrides its value
DECOHERE = ("decohere", "--n-spins", "8", "--delta", "0.01", "--tau", "10", "--a", "0.9",
            "--t0", "0", "--t1", "1", "--dt", "0.5")


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestMeasures:
    def test_row_format(self, capsys):
        code, out, err = run_cli(
            capsys, "measures", "--protocol", "ising", "--gamma", "1", "--tau", "5", "--n", "2"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "n", "beta0", "beta2", "beta4", "beta6", "I", "C", "Q", "Cnc"]
        assert len(rows) == 1
        assert rows[0][0] == 5.0
        # floats carry 12 significant digits in scientific notation
        cell = out.strip().split("\n")[1].split(",")[2]
        assert "e" in cell and len(cell.split("e")[0].replace(".", "").lstrip("-")) == 12

    def test_each_moment_computed_once(self, capsys, monkeypatch):
        # the printed beta0 .. beta6 also feed the measures: all four come
        # from one grid pair (M and M/2) of the moment kernel
        import spinquench.kernels as kernels

        calls = []
        real = kernels._grid_moments

        def counted(kind, tau, gamma, j3, m, ns):
            calls.append((m, tau.tolist(), tuple(ns)))
            return real(kind, tau, gamma, j3, m, ns)

        monkeypatch.setattr(kernels, "_grid_moments", counted)
        code, _, _ = run_cli(
            capsys, "measures", "--protocol", "multicritical", "--tau", "30", "--n", "4"
        )
        assert code == 0
        assert sorted(calls) == [(256, [30.0], (0, 2, 4, 6)), (512, [30.0], (0, 2, 4, 6))]

    def test_sudden_limit_zero_discord(self, capsys):
        code, out, _ = run_cli(
            capsys, "measures", "--protocol", "ising", "--gamma", "1", "--tau", "1e-12", "--n", "2"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][header.index("Q")] <= 1e-9

    def test_three_spin_j3_zero_equals_ising(self, capsys):
        _, out_ts, _ = run_cli(
            capsys, "measures", "--protocol", "three-spin", "--j3", "0", "--tau", "5", "--n", "2"
        )
        _, out_ising, _ = run_cli(
            capsys, "measures", "--protocol", "ising", "--gamma", "1", "--tau", "5", "--n", "2"
        )
        assert out_ts == out_ising

    def test_reruns_byte_identical(self, capsys):
        args = ("measures", "--protocol", "multicritical", "--tau", "3", "--n", "4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_newlines_and_header(self, capsys):
        _, out, _ = run_cli(
            capsys, "measures", "--protocol", "ising", "--gamma", "0.5", "--tau", "1", "--n", "2"
        )
        assert "\r" not in out
        assert out.startswith("tau,")
        assert out.endswith("\n")


class TestSweep:
    def test_three_point_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--protocol", "ising", "--gamma", "1", "--n", "2",
            "--tau-min", "1", "--tau-max", "4", "--tau-points", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "n", "beta0", "I", "C", "Q", "Cnc"]
        assert len(rows) == 3
        assert [r[0] for r in rows] == [1.0, 2.0, 4.0]

    def test_workers_byte_identical(self, capsys):
        base = (
            "sweep", "--protocol", "ising", "--gamma", "1", "--n", "2",
            "--tau-min", "0.5", "--tau-max", "8", "--tau-points", "4",
        )
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out4, _ = run_cli(capsys, *base, "--workers", "4")
        assert out1 == out4

    def test_j3_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--protocol", "three-spin", "--tau", "2", "--n", "2",
            "--j3-min", "0", "--j3-max", "1", "--j3-points", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["j3", "Q", "Cnc"]
        assert [r[0] for r in rows] == [0.0, 0.5, 1.0]

    def test_j3_grid_requires_three_spin(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--protocol", "ising", "--gamma", "1", "--n", "2",
            "--j3-min", "0", "--j3-max", "1",
        )
        assert code == 2
        assert "three-spin" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--protocol", "ising", "--tau", "5", "--tau-min", "1", "--tau-max", "10"),
            ("--protocol", "three-spin", "--j3", "0.3", "--tau", "10",
             "--j3-min", "0", "--j3-max", "1"),
        ],
        ids=["tau-with-tau-grid", "j3-with-j3-grid"],
    )
    def test_fixed_abscissa_with_its_grid_rejected(self, capsys, argv):
        # the grid supplies the abscissa, so a fixed value of it would be ignored
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["measures", "sweep"])
    def test_bad_separation_exits_2_with_the_library_message(self, capsys, command):
        grid = ("--tau", "1") if command == "measures" else ("--tau-min", "1", "--tau-max", "4")
        code, out, err = run_cli(capsys, command, "--protocol", "ising", "--n", "3", *grid)
        assert (code, out) == (2, "")
        assert err == "error: separation n must be one of (2, 4, 6), got 3\n"

    def test_one_point_tau_grid_rejected(self, capsys):
        # one point would drop --tau-max, as one j3 point would drop --j3-max
        code, out, err = run_cli(
            capsys, "sweep", "--protocol", "ising", "--tau-min", "1", "--tau-max", "10",
            "--tau-points", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: bad grid spec (1.0, 10.0, 1)\n"

    def test_missing_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--protocol", "ising", "--gamma", "1")
        assert code == 2
        assert "sweep needs" in err

    def test_workers_validated(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--protocol", "ising", "--gamma", "1", "--n", "2",
            "--tau-min", "0.5", "--tau-max", "8", "--workers", "0",
        )
        assert code == 2
        assert "--workers" in err


class TestFit:
    def _write_sweep(self, path, slope=-0.5):
        x = np.geomspace(1.0, 1e4, 12)
        lines = ["tau,Q"] + [f"{t:.11e},{3.0 * t**slope:.11e}" for t in x]
        path.write_text("\n".join(lines) + "\n")

    def test_synthetic_power_law(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        self._write_sweep(csv)
        code, out, _ = run_cli(
            capsys, "fit", "--input", str(csv), "--column", "Q",
            "--window-min", "1", "--window-max", "1e4",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["slope", "intercept", "r_squared", "window_min", "window_max", "n_points"]
        assert rows[0][0] == pytest.approx(-0.5, abs=1e-10)
        assert rows[0][2] == pytest.approx(1.0, abs=1e-10)

    def test_nonpositive_value_names_row(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text(
            "tau,Q\n1.0,1.0\n2.0,0.5\n4.0,-0.25\n8.0,0.125\n16.0,0.0625\n32.0,0.03125\n"
        )
        code, _, err = run_cli(
            capsys, "fit", "--input", str(csv), "--column", "Q",
            "--window-min", "1", "--window-max", "32",
        )
        assert code == 2
        assert "rows [2]" in err

    def test_missing_column(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        self._write_sweep(csv)
        code, _, err = run_cli(capsys, "fit", "--input", str(csv), "--column", "nope")
        assert code == 2
        assert "nope" in err

    @pytest.mark.parametrize("text", ["", "tau,Q\n"], ids=["empty", "header_only"])
    def test_input_without_data_rows_exits_2(self, tmp_path, capsys, text):
        csv = tmp_path / "sweep.csv"
        csv.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--input", str(csv), "--column", "Q")
        assert (code, out) == (2, "")
        assert err == f"error: {csv} has no data rows\n"


class TestDecohere:
    def test_delta_zero_unit_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decohere", "--n-spins", "8", "--delta", "0", "--tau", "10", "--a", "0.9",
            "--t0", "0", "--t1", "10", "--dt", "5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "h", "D", "Q", "Cnc"]
        assert len(rows) == 3
        assert all(r[2] == 1.0 for r in rows)

    def test_grid_stops_at_t1(self, capsys):
        # 1 / 0.35 is not an integer: the last time is 0.7, not 1.05
        code, out, _ = run_cli(capsys, *DECOHERE, "--dt", "0.35")
        assert code == 0
        assert [r[0] for r in parse_csv(out)[1]] == [0.0, 0.35, 0.7]

    def test_several_weights_march_once(self, capsys, monkeypatch):
        marches = []
        real = central.trace_run

        def counted(config):
            marches.append(config.a)
            return real(config)

        monkeypatch.setattr(central, "trace_run", counted)
        code, out, _ = run_cli(capsys, *DECOHERE, "--a", "0.3", "0.9")
        assert code == 0
        assert marches == [0.3]
        assert out.split("\n")[0] == "t,h,D,Q_a0.3,Cnc_a0.3,Q_a0.9,Cnc_a0.9"

    @pytest.mark.parametrize("weights, passes", [(("0.9",), 0), (("0.3", "0.9"), 1)])
    def test_first_weight_measured_by_the_march_alone(self, capsys, monkeypatch, weights, passes):
        # trace_run measures the first weight; cli measures each other weight once
        calls = []
        real = cli.correlations

        def counted(states):
            calls.append(len(states))
            return real(states)

        monkeypatch.setattr(cli, "correlations", counted)
        code, _, _ = run_cli(capsys, *DECOHERE, "--a", *weights)
        assert code == 0
        assert len(calls) == passes

    def test_each_weight_matches_its_one_weight_run(self, capsys):
        # byte for byte: the shared t, h, D cells and each weight's Q and Cnc
        _, out, _ = run_cli(capsys, *DECOHERE, "--a", "0.3", "0.5", "0.9")
        lines = [ln.split(",") for ln in out.strip().split("\n")]
        header, rows = lines[0], lines[1:]
        for a in ("0.3", "0.5", "0.9"):
            code, single, _ = run_cli(capsys, *DECOHERE, "--a", a)
            assert code == 0
            picked = [header.index(c) for c in ("t", "h", "D", f"Q_a{a}", f"Cnc_a{a}")]
            expected = "t,h,D,Q,Cnc\n" + "".join(
                ",".join(row[i] for i in picked) + "\n" for row in rows
            )
            assert single == expected

    @pytest.mark.parametrize(
        "weights", [("0.9", "0.9"), ("0.3", "1.5")], ids=["repeated", "out-of-range"]
    )
    def test_bad_weight_exits_2_before_the_march(self, capsys, monkeypatch, weights):
        marches = []
        monkeypatch.setattr(central, "trace_run", marches.append)
        code, out, err = run_cli(capsys, *DECOHERE, "--a", *weights)
        assert (code, out, marches) == (2, "", [])
        assert err.startswith("error:")

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(
            capsys,
            "decohere", "--n-spins", "8", "--delta", "0", "--tau", "10", "--a", "0.9",
            "--t0", "10", "--t1", "0", "--dt", "1",
        )
        assert code == 2

    def test_invalid_physics_config(self, capsys):
        code, _, err = run_cli(
            capsys,
            "decohere", "--n-spins", "7", "--delta", "0", "--tau", "10", "--a", "0.9",
            "--t0", "0", "--t1", "10", "--dt", "5",
        )
        assert code == 2
        assert "even" in err

    def test_step_diagnostics_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys,
            "decohere", "--n-spins", "20", "--delta", "0.05", "--tau", "2", "--a", "0.9",
            "--t0", "0", "--t1", "8", "--dt", "2",
        )
        assert code == 0
        assert "magnus" not in out
        assert (
            "adiabatic: 168 steps to t = -3.40005; magnus: 116 steps of at most 0.1, "
            "error estimate of D"
        ) in err

    # tau = 0.25 with the smallest h_start allowed: the default step misses
    # the error tolerance there and the propagator must refine it
    FAST = (
        "decohere", "--n-spins", "20", "--delta", "0.05", "--tau", "0.25", "--a", "0.9",
        "--h-start", "21", "--t0", "0", "--t1", "8", "--dt", "2",
    )

    def test_fast_sweep_refines_the_step(self, capsys):
        code, out, err = run_cli(capsys, *self.FAST)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 5
        assert min(r[2] for r in rows) < 0.5

    def test_missed_error_estimate_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(central, "_MAX_HALVINGS", 0)
        code, out, err = run_cli(capsys, *self.FAST)
        assert code == 3
        assert "error estimate" in err


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol=ising\ngamma=1\ntau=5\nn=2\n# comment line\n")
        code, out_cfg, _ = run_cli(capsys, "measures", "--config", str(cfg))
        assert code == 0
        _, out_flag, _ = run_cli(capsys, "measures", "--config", str(cfg), "--tau", "1")
        _, out_direct, _ = run_cli(
            capsys, "measures", "--protocol", "ising", "--gamma", "1", "--tau", "1", "--n", "2"
        )
        assert out_flag == out_direct
        assert out_cfg != out_flag

    def test_abbreviated_flag_reads_the_file(self, tmp_path, capsys):
        # argparse takes --conf for --config, so the file must be read too
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\n")
        code, out, _ = run_cli(
            capsys, "measures", "--protocol", "ising", "--tau", "5", "--conf", str(cfg)
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][header.index("n")] == 4

    def test_prefix_of_two_flags_is_ambiguous(self, capsys):
        # fit also has --column, so its parser takes --co for neither flag
        code, out, err = run_cli(capsys, "fit", "--input", "s.csv", "--co", "Q")
        assert (code, out) == (2, "")
        assert "ambiguous option: --co could match --config, --column" in err

    def test_second_config_file_rejected(self, tmp_path, capsys):
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("protocol=ising\ntau=5\n")
        second.write_text("n=4\n")
        code, out, err = run_cli(capsys, "measures", "--config", str(first), "--conf", str(second))
        assert (code, out) == (2, "")
        assert "a run reads one config file" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol=ising\nbogus=1\n")
        code, _, err = run_cli(capsys, "measures", "--config", str(cfg), "--tau", "1")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "argv", [("measures", "--tau", "1"), ("sweep", "--tau-min", "1", "--tau-max", "10")],
        ids=["measures", "sweep"],
    )
    def test_choices_checked_on_file_values(self, tmp_path, capsys, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol = ising\nn = 8\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        # the separation is the sweeps' rule: the file's n = 8 fails as --n 8 does
        assert err == "error: separation n must be one of (2, 4, 6), got 8\n"

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "row.csv"
        code, out, _ = run_cli(
            capsys,
            "measures", "--protocol", "ising", "--gamma", "1", "--tau", "2", "--n", "2",
            "--output", str(out_path),
        )
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("tau,")
        assert "\r" not in text


class TestExitCodes:
    def test_numerical_failure_leaves_nan_row_and_exit_3(self, capsys, monkeypatch):
        import spinquench.scaling as scaling

        real = scaling.states_from_moments

        def flaky(moments, n):
            states, errors = real(moments, n)
            return states, errors | {1: "synthetic blowup"}  # the tau = 2 row

        # states_from_moments builds and checks every row of a sweep; rows are
        # computed in this process whatever --workers says, so the monkeypatch
        # reaches it
        monkeypatch.setattr(scaling, "states_from_moments", flaky)
        code, out, err = run_cli(
            capsys,
            "sweep", "--protocol", "ising", "--gamma", "1", "--n", "2",
            "--tau-min", "1", "--tau-max", "4", "--tau-points", "3",
            "--workers", "2",
        )
        assert code == 3
        assert "row 1 failed" in err
        header, rows = parse_csv(out)
        assert len(rows) == 3
        assert np.isnan(rows[1][header.index("Q")])
        assert np.isfinite(rows[0][header.index("Q")])
        # n is an input of the row: the failed row keeps it, as an integer
        assert out.split("\n")[2].split(",")[1] == "2"

    def test_failed_measures_row_is_written_and_exits_3(self, capsys, monkeypatch):
        # measures runs the sweeps' rows: a state with a negative eigenvalue
        # fails its row as in a sweep, it is no configuration error
        import spinquench.scaling as scaling
        from conftest import put_state
        from spinquench.xstate import XStateDensityMatrix

        bad = XStateDensityMatrix(a_plus=0.3, a_minus=0.3, a_zero=0.2, b2=0.2 + 5e-10)
        real = scaling.states_from_moments
        monkeypatch.setattr(
            scaling, "states_from_moments",
            lambda moments, n: (put_state(real(moments, n)[0], 0, bad), {}),
        )
        code, out, err = run_cli(
            capsys, "measures", "--protocol", "ising", "--gamma", "1", "--tau", "5", "--n", "2"
        )
        assert code == 3
        header, rows = parse_csv(out)
        assert header == ["tau", "n", "beta0", "beta2", "beta4", "beta6", "I", "C", "Q", "Cnc"]
        assert len(rows) == 1 and rows[0][0] == 5.0
        assert all(np.isnan(rows[0][header.index(c)]) for c in ("I", "C", "Q"))
        assert out.split("\n")[1].split(",")[1] == "2"
        assert "numerical failure: row 0 failed" in err

    def test_unresolvable_moment_exits_3(self, capsys):
        # past the midpoint rule's node cap
        code, out, err = run_cli(
            capsys, "measures", "--protocol", "multicritical", "--tau", "1e14"
        )
        assert code == 3
        assert "numerical failure" in err

    def test_gamma_with_three_spin(self, capsys):
        code, _, err = run_cli(
            capsys, "measures", "--protocol", "three-spin", "--gamma", "1", "--tau", "1"
        )
        assert code == 2

    def test_j3_with_ising(self, capsys):
        code, _, err = run_cli(
            capsys, "measures", "--protocol", "ising", "--gamma", "1", "--j3", "0.5", "--tau", "1"
        )
        assert code == 2

    def test_bad_tau(self, capsys):
        code, _, _ = run_cli(
            capsys, "measures", "--protocol", "ising", "--gamma", "1", "--tau", "-3"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag,value",
        [("--j3", "inf"), ("--j3", "nan"), ("--delta", "nan"), ("--tau", "inf"), ("--h-start", "nan")],
    )
    def test_non_finite_input_is_a_config_error(self, capsys, flag, value):
        base = ("measures", "--protocol", "three-spin", "--tau", "1") if flag == "--j3" else DECOHERE
        code, out, err = run_cli(capsys, *base, flag, value)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "finite" in err and flag[2:].replace("-", "_") in err


class TestRuntimeDependencies:
    def test_no_scipy_module_is_imported(self):
        # a fresh interpreter: import the package and its CLI, then run Ising
        # reports on both sides of the moment kernel's series crossover
        script = "\n".join(
            [
                "import contextlib, io, sys",
                "import spinquench, spinquench.cli",
                "with contextlib.redirect_stdout(io.StringIO()):",
                "    for tau in ('5', '1e4'):",
                "        assert spinquench.cli.main(['measures', '--protocol', 'ising',",
                "                                    '--gamma', '1', '--tau', tau]) == 0",
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
            ]
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(spinquench.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"
