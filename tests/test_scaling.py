"""Sweep tables, power-law fits, and peak detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NEGATIVE_EIGENVALUE, POLARIZATION_OVERSHOOT
import spinquench.kernels as kernels
import spinquench.scaling as scaling
from spinquench.kernels import QuenchProtocol
from spinquench.quench import measure_state
from spinquench.scaling import (
    ScalingFit,
    SweepTable,
    fit_loglog,
    peak_location,
    sweep_j3,
    sweep_tau,
)


def synthetic_table(x, y, name="tau", column="Q"):
    data = np.column_stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    return SweepTable(columns=(name, column), data=data)


class TestFitLogLog:
    def test_exact_power_law(self):
        x = np.geomspace(1.0, 1e4, 25)
        fit = fit_loglog(synthetic_table(x, 3.0 * x**-0.5), "Q", (1.0, 1e4))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 25

    @given(
        exponent=st.floats(-3.0, 3.0),
        coef=st.floats(0.01, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_recovers_random_power_laws(self, exponent, coef):
        x = np.geomspace(0.1, 1e3, 12)
        fit = fit_loglog(synthetic_table(x, coef * x**exponent), "Q", (0.1, 1e3))
        assert fit.slope == pytest.approx(exponent, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_window_restricts_points(self):
        x = np.geomspace(1.0, 1e4, 20)
        y = x**-1.0
        y[:5] = 1e3  # garbage outside the window
        fit = fit_loglog(synthetic_table(x, y), "Q", (x[5], 1e4))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.n_points == 15

    def test_too_few_points(self):
        x = np.geomspace(1.0, 10.0, 4)
        with pytest.raises(ValueError, match="need >= 5"):
            fit_loglog(synthetic_table(x, x), "Q", (1.0, 10.0))

    def test_nonpositive_values_named(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        y = np.array([1.0, 0.5, 0.0, 0.125, -0.2, 0.03125])
        with pytest.raises(ValueError, match=r"rows \[2, 4\]"):
            fit_loglog(synthetic_table(x, y), "Q", (1.0, 32.0))

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            ScalingFit(slope=1.0, intercept=0.0, r_squared=0.5, window=(1, 10), n_points=3)


class TestSweepTau:
    def test_single_point(self):
        t = sweep_tau(QuenchProtocol.ising(1.0, 1.0), 2, [2.0])
        assert t.data.shape == (1, len(scaling.TAU_COLUMNS))
        assert t.column("tau")[0] == 2.0
        assert t.errors == ()

    def test_grid_validation(self):
        proto = QuenchProtocol.ising(1.0, 1.0)
        with pytest.raises(ValueError):
            sweep_tau(proto, 2, [2.0, 1.0])
        with pytest.raises(ValueError):
            sweep_tau(proto, 2, [-1.0, 2.0])

    def test_rows_in_grid_order(self):
        grid = [0.5, 1.0, 4.0]
        t = sweep_tau(QuenchProtocol.ising(1.0, 1.0), 2, grid)
        assert np.array_equal(t.column("tau"), grid)
        assert np.all(np.isfinite(t.data))

    def test_failed_rows_marked_and_sweep_continues(self, monkeypatch):
        calls = {"count": 0}
        real = scaling.state_from_betas

        def flaky(betas, n):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("synthetic row failure")
            return real(betas, n)

        # state_from_betas is the per-row step of a sweep
        monkeypatch.setattr(scaling, "state_from_betas", flaky)
        t = sweep_tau(QuenchProtocol.ising(1.0, 1.0), 2, [0.5, 1.0, 2.0])
        assert len(t.errors) == 1
        assert t.errors[0][0] == 1
        assert "synthetic" in t.errors[0][1]
        assert np.isnan(t.column("Q")[1])
        assert np.isfinite(t.column("Q")[[0, 2]]).all()

    def test_programming_error_is_no_failed_row(self, monkeypatch):
        # a row fails on a ValueError or RuntimeError of its moments or state;
        # a wrong call is a fault of the program and propagates
        calls = {"count": 0}
        real = scaling.state_from_betas

        def miscalled(betas, n):
            calls["count"] += 1
            return real(betas) if calls["count"] == 2 else real(betas, n)

        monkeypatch.setattr(scaling, "state_from_betas", miscalled)
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'n'"):
            sweep_tau(QuenchProtocol.ising(1.0, 1.0), 2, [0.5, 1.0, 2.0])

    def test_polarization_overshoot_is_named_as_the_cause(self, monkeypatch):
        # |z| > 1 + 1e-12 with eigenvalues 1 + 5e-11, 0, 0, 0: the row's error
        # and measure_state's ValueError name the polarization, not an eigenvalue
        calls = {"count": 0}
        real = scaling.state_from_betas

        def bad_second_row(betas, n):
            calls["count"] += 1
            return POLARIZATION_OVERSHOOT if calls["count"] == 2 else real(betas, n)

        monkeypatch.setattr(scaling, "state_from_betas", bad_second_row)
        t = sweep_tau(QuenchProtocol.ising(1.0, 1.0), 2, [0.5, 1.0, 2.0])
        assert [i for i, _ in t.errors] == [1]
        assert "polarization" in t.errors[0][1] and "eigenvalue" not in t.errors[0][1]
        with pytest.raises(ValueError, match="polarization") as exc:
            measure_state(POLARIZATION_OVERSHOOT)
        assert "eigenvalue" not in str(exc.value)

    def test_negative_eigenvalue_fails_only_its_own_row(self, monkeypatch):
        # the batched measures give NaN for that state alone, and its row
        # is listed as failed
        calls = {"count": 0}
        real = scaling.state_from_betas

        def bad_second_row(betas, n):
            calls["count"] += 1
            return NEGATIVE_EIGENVALUE if calls["count"] == 2 else real(betas, n)

        monkeypatch.setattr(scaling, "state_from_betas", bad_second_row)
        grid = [0.5, 1.0, 2.0]
        t = sweep_tau(QuenchProtocol.ising(1.0, 1.0), 2, grid)
        assert [i for i, _ in t.errors] == [1]
        assert "negative eigenvalue" in t.errors[0][1]
        # the inputs stay: tau and n; every value is NaN
        assert t.data[1, 1] == 2 and np.isnan(t.data[1, 2:]).all()
        monkeypatch.undo()
        clean = sweep_tau(QuenchProtocol.ising(1.0, 1.0), 2, grid)
        assert t.data[[0, 2]].tobytes() == clean.data[[0, 2]].tobytes()

    def test_unresolvable_row_listed_alone(self):
        # beta_n at multicritical tau = 1e14 needs more midpoint nodes than
        # the cap (QuadratureError); only that row fails, and the rest equal
        # the sweep without it bit for bit
        proto = QuenchProtocol.multicritical(1.0)
        grid = [1e2, 1e3, 1e4, 1e14]
        t = sweep_tau(proto, 2, grid)
        assert [i for i, _ in t.errors] == [3]
        assert "midpoint nodes" in t.errors[0][1]
        assert t.data[3, 0] == 1e14 and t.data[3, 1] == 2 and np.isnan(t.data[3, 2:]).all()
        assert t.data[:3].tobytes() == sweep_tau(proto, 2, grid[:3]).data.tobytes()

    def test_each_moment_computed_once_per_row(self, monkeypatch):
        # every row's moments, beta0 included, come from exactly one grid pair
        # (M and M/2) of the moment kernel, not from a second beta_n call
        calls = []
        real = kernels._grid_moments

        def counted(kind, protocols, m, ns):
            calls.append((m, [p.tau for p in protocols], tuple(ns)))
            return real(kind, protocols, m, ns)

        monkeypatch.setattr(kernels, "_grid_moments", counted)
        t = sweep_tau(QuenchProtocol.ising(1.0, 1.0), 4, [0.5, 1.0, 2.0])
        assert sorted(calls) == [
            (256, [0.5, 1.0, 2.0], (0, 2, 4)),
            (512, [0.5, 1.0, 2.0], (0, 2, 4)),
        ]
        assert t.column("beta0").tolist() == [
            kernels.beta_n(QuenchProtocol.ising(1.0, tau), 0) for tau in (0.5, 1.0, 2.0)
        ]

    def test_chunked_and_rerun_sweeps_are_bitwise_identical(self):
        # a row depends only on its own grid point: the sweep over the whole
        # grid equals the stacked sweeps over its two halves, and a rerun
        proto = QuenchProtocol.ising(1.0, 1.0)
        grid = [0.3, 0.9, 2.0, 8.0, 40.0, 300.0]
        whole = sweep_tau(proto, 2, grid)
        halves = np.vstack([sweep_tau(proto, 2, grid[:3]).data, sweep_tau(proto, 2, grid[3:]).data])
        assert whole.data.tobytes() == halves.tobytes()
        assert whole.data.tobytes() == sweep_tau(proto, 2, grid).data.tobytes()


@pytest.mark.parametrize(
    "run",
    [lambda n: sweep_tau(QuenchProtocol.ising(1.0, 1.0), n, [1.0, 2.0]),
     lambda n: sweep_j3(2.0, n, [0.0, 0.5]),
     lambda n: scaling.measure_table(QuenchProtocol.ising(1.0, 1.0), n)],
    ids=["sweep_tau", "sweep_j3", "measure_table"],
)
@pytest.mark.parametrize("n", [3, 8])
def test_bad_separation_raises_before_any_moment(monkeypatch, run, n):
    # no table of NaN rows: the separation is checked once, before the kernel runs
    calls = []
    monkeypatch.setattr(kernels, "_grid_moments", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=rf"separation n must be one of \(2, 4, 6\), got {n}"):
        run(n)
    assert calls == []


class TestSweepJ3:
    def test_j3_zero_matches_ising(self):
        t = sweep_j3(2.0, 2, [0.0, 0.5])
        ising = sweep_tau(QuenchProtocol.ising(1.0, 1.0), 2, [2.0])
        assert t.column("Q")[0] == pytest.approx(ising.column("Q")[0], abs=1e-10)
        assert t.column("Cnc")[0] == pytest.approx(ising.column("Cnc")[0], abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_j3(2.0, 2, [0.5, 0.2])


class TestPeakLocation:
    def test_recovers_synthetic_log_parabola(self):
        x = np.geomspace(0.1, 100.0, 41)
        y = np.exp(-((np.log(x) - np.log(3.0)) ** 2))
        xp, yp = peak_location(synthetic_table(x, y), "Q")
        assert xp == pytest.approx(3.0, rel=1e-3)
        assert yp == pytest.approx(1.0, abs=1e-3)

    def test_boundary_peak_returned_as_is(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = np.array([4.0, 3.0, 2.0, 1.0])
        xp, yp = peak_location(synthetic_table(x, y), "Q")
        assert (xp, yp) == (1.0, 4.0)

    def test_linear_grid_with_zero(self):
        x = np.linspace(0.0, 1.0, 11)
        y = 1.0 - (x - 0.42) ** 2
        xp, _ = peak_location(synthetic_table(x, y, name="j3"), "Q")
        assert xp == pytest.approx(0.42, abs=1e-9)


class TestSweepTableValidation:
    def test_columns_must_match(self):
        with pytest.raises(ValueError):
            SweepTable(columns=("tau", "Q"), data=np.zeros((3, 3)))

    def test_abscissa_monotone(self):
        with pytest.raises(ValueError):
            synthetic_table([2.0, 1.0], [1.0, 1.0])

    def test_column_accessor(self):
        t = synthetic_table([1.0, 2.0], [5.0, 6.0])
        assert np.array_equal(t.column("Q"), [5.0, 6.0])
        assert np.array_equal(t.abscissa, [1.0, 2.0])
        with pytest.raises(ValueError):
            t.column("nope")
