"""CLI surface: CSV formats, exit codes, determinism, config files."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinquench
from spinquench import central
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

        def counted(kind, protocols, m, ns):
            calls.append((m, [p.tau for p in protocols], tuple(ns)))
            return real(kind, protocols, m, ns)

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

    @pytest.mark.parametrize(
        "t0,t1,dt", [("-3.3", "7.1", "0.07"), ("0.1", "9.9", "0.3")], ids=["149-times", "33-times"]
    )
    def test_script_observes_the_cli_grid(self, capsys, monkeypatch, tmp_path, t0, t1, dt):
        # scripts/decoherence_trace.py and `decohere` hand trace_run the same
        # times, which t0 + k dt and a running sum of dt do not always give
        grids = []

        class Recorded(Exception):
            pass

        def record(config):
            grids.append(config.t_grid)
            raise Recorded

        flags = ["--n-spins", "8", "--delta", "0.01", "--tau", "10", "--t0", t0, "--t1", t1,
                 "--dt", dt]
        monkeypatch.setattr(central, "trace_run", record)
        with pytest.raises(Recorded):
            main(["decohere", *flags, "--a", "0.9"])
        monkeypatch.setattr(spinquench, "trace_run", record)
        script = Path(__file__).resolve().parents[1] / "scripts" / "decoherence_trace.py"
        monkeypatch.setattr(sys, "argv", [str(script), *flags, "--outdir", str(tmp_path)])
        with pytest.raises(Recorded):
            runpy.run_path(str(script), run_name="__main__")
        assert grids[0] == grids[1] == central.observation_grid(float(t0), float(t1), float(dt))

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
        assert "argument --n: invalid choice: 8" in err

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

        calls = {"count": 0}
        real = scaling.state_from_betas

        def flaky(betas, n):
            calls["count"] += 1
            if calls["count"] == 2:  # the tau = 2 row
                raise RuntimeError("synthetic blowup")
            return real(betas, n)

        # state_from_betas is the per-row step of a sweep; rows are computed
        # in this process whatever --workers says, so the monkeypatch reaches it
        monkeypatch.setattr(scaling, "state_from_betas", flaky)
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

    def test_failed_measures_row_is_written_and_exits_3(self, capsys, monkeypatch):
        # measures runs the sweeps' rows: a state with a negative eigenvalue
        # fails its row as in a sweep, it is no configuration error
        import spinquench.scaling as scaling
        from spinquench.xstate import XStateDensityMatrix

        bad = XStateDensityMatrix(a_plus=0.3, a_minus=0.3, a_zero=0.2, b2=0.2 + 5e-10)
        monkeypatch.setattr(scaling, "state_from_betas", lambda betas, n: bad)
        code, out, err = run_cli(
            capsys, "measures", "--protocol", "ising", "--gamma", "1", "--tau", "5", "--n", "2"
        )
        assert code == 3
        header, rows = parse_csv(out)
        assert header == ["tau", "n", "beta0", "beta2", "beta4", "beta6", "I", "C", "Q", "Cnc"]
        assert len(rows) == 1 and rows[0][0] == 5.0
        assert all(np.isnan(rows[0][header.index(c)]) for c in ("I", "C", "Q"))
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
