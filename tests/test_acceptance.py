"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line in the terminal summary via
conftest.record_criterion.  Some sub-checks of criteria 2, 4 and 8 fail and
are kept failing with their targets unchanged; README.md ("Deliberately
failing acceptance checks") lists each with its cause.  In short: the
discord slopes and the multicritical concurrence do not follow the quoted
power laws, the tau window of criterion 4 also holds the sudden-quench hump
below the point where beta_0 = 1/2, and the weak-coupling decoherence factor
at the quoted parameters is 0.979, not 0.7025, by two independent routes.

Criterion 3 compares the optimizing pipeline with the better of the two
axis closed forms at n = 2: the printed transverse one and the polar one
(conftest.closed_form_C_polar_n2).
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import ive

from conftest import (
    branch_hamiltonian,
    closed_form_C_polar_n2,
    evolve_mode,
    initial_mode_state,
    random_x_state,
    record_criterion,
    weak_coupling_D,
)
from spinquench.central import CentralConfig, concurrence_werner, qubit_state, trace_run
from spinquench.cli import main as cli_main
from spinquench.kernels import QuenchProtocol, beta_n, compute_betas
from spinquench.quench import closed_form_C_n2, closed_form_I_n2, measures
from spinquench.scaling import SweepTable, fit_loglog, peak_location, sweep_j3, sweep_tau
from spinquench.xstate import concurrence_wootters, concurrence_xstate

ISING = QuenchProtocol.ising(1.0, 1.0)
MCP = QuenchProtocol.multicritical(1.0)


class Checks:
    """Collects sub-check outcomes for one criterion."""

    def __init__(self):
        self.items: list[tuple[str, bool]] = []

    def check(self, ok: bool, label: str):
        self.items.append((label, bool(ok)))

    def finish(self, name: str):
        failed = [label for label, ok in self.items if not ok]
        n_ok = sum(ok for _, ok in self.items)
        detail = f"{n_ok}/{len(self.items)} sub-checks"
        if failed:
            detail += "; failed: " + "; ".join(failed)
        record_criterion(name, not failed, detail)
        assert not failed, f"{name}: {detail}"


@pytest.fixture(scope="session")
def ising_sweeps():
    start = time.perf_counter()
    grid = np.geomspace(0.1, 1e4, 48)
    tables = {n: sweep_tau(ISING, n, grid) for n in (2, 4, 6)}
    return tables, time.perf_counter() - start


@pytest.fixture(scope="session")
def mcp_sweep():
    start = time.perf_counter()
    grid = np.geomspace(1e2, 1e5, 13)
    return sweep_tau(MCP, 2, grid), time.perf_counter() - start


@pytest.fixture(scope="session")
def weak_coupling_trace():
    start = time.perf_counter()
    cfg = CentralConfig(
        n_spins=500, delta=1e-4, tau=250.0, a=0.9, t_grid=(100.0, 175.0, 251.0)
    )
    return cfg, trace_run(cfg), time.perf_counter() - start


@pytest.fixture(scope="session")
def revival_trace():
    start = time.perf_counter()
    cfg = CentralConfig(
        n_spins=500,
        delta=0.01,
        tau=250.0,
        a=0.9,
        t_grid=tuple(np.arange(-100.0, 751.0, 2.5)),
    )
    return cfg, trace_run(cfg), time.perf_counter() - start


def test_criterion_1_kibble_zurek_defect_slopes():
    c = Checks()
    start = time.perf_counter()

    def beta0_fit(proto, lo, hi):
        grid = np.geomspace(lo, hi, 9)
        vals = [beta_n(dataclasses.replace(proto, tau=t), 0) for t in grid]
        table = SweepTable(columns=("tau", "beta0"), data=np.column_stack([grid, vals]))
        return fit_loglog(table, "beta0", (lo, hi))

    fit_ising = beta0_fit(ISING, 1e2, 1e4)
    c.check(abs(fit_ising.slope - (-0.5)) <= 0.02, f"ising slope {fit_ising.slope:+.4f} = -0.5+-0.02")
    fit_mcp = beta0_fit(MCP, 1e2, 1e5)
    c.check(
        abs(fit_mcp.slope - (-1.0 / 6.0)) <= 0.02,
        f"multicritical slope {fit_mcp.slope:+.4f} = -1/6+-0.02",
    )
    elapsed = time.perf_counter() - start
    c.check(elapsed < 10.0, f"runtime {elapsed:.1f}s < 10s")
    c.finish("1. Kibble-Zurek defect-density slopes")


def test_criterion_2_discord_scaling(ising_sweeps, mcp_sweep):
    tables, t_ising = ising_sweeps
    mcp_table, t_mcp = mcp_sweep
    c = Checks()
    for n in (2, 4, 6):
        fit = fit_loglog(tables[n], "Q", (1e2, 1e4))
        c.check(
            abs(abs(fit.slope) - 0.5) <= 0.05,
            f"ising n={n} |Q slope| {abs(fit.slope):.4f} = 0.5+-0.05",
        )
    fit_q = fit_loglog(mcp_table, "Q", (1e2, 1e5))
    c.check(
        abs(fit_q.slope - (-0.19)) <= 0.04,
        f"multicritical Q slope {fit_q.slope:+.4f} = -0.19+-0.04",
    )
    try:
        fit_c = fit_loglog(mcp_table, "Cnc", (1e2, 1e5))
        c.check(
            abs(fit_c.slope - (-0.13)) <= 0.04,
            f"multicritical Cnc slope {fit_c.slope:+.4f} = -0.13+-0.04",
        )
    except ValueError as exc:
        c.check(False, f"multicritical Cnc slope unfit: {exc}")
    elapsed = t_ising + t_mcp
    c.check(elapsed < 300.0, f"sweep runtime {elapsed:.0f}s < 300s")
    c.finish("2. discord/concurrence scaling slopes")


def test_criterion_3_closed_form_equivalence():
    c = Checks()
    diffs = {"I": 0.0, "C": 0.0, "Q": 0.0}
    for tau in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0):
        proto = dataclasses.replace(ISING, tau=tau)
        betas = compute_betas(proto, 2)
        rep = measures(proto, 2)
        i_cf = closed_form_I_n2(betas[0], betas[2])
        # the optimum over all projective measurements is the better of the
        # two axis closed forms: transverse (the printed one) and polar.
        # That the optimum lies on an axis for these states is known only
        # numerically (optimizer vs. both forms at 15 tau from 0.1 to 1e4,
        # agreement 1e-15); a failure here may be an off-axis optimum
        # rather than a regression.
        c_cf = max(closed_form_C_n2(betas[0], betas[2]), closed_form_C_polar_n2(betas[0], betas[2]))
        diffs["I"] = max(diffs["I"], abs(rep.mutual_information - i_cf))
        diffs["C"] = max(diffs["C"], abs(rep.classical_correlation - c_cf))
        diffs["Q"] = max(diffs["Q"], abs(rep.discord - (i_cf - c_cf)))
    c.check(diffs["I"] < 1e-6, f"I matches closed form (max diff {diffs['I']:.2e})")
    c.check(diffs["C"] < 1e-6, f"C matches closed form (max diff {diffs['C']:.2e})")
    c.check(diffs["Q"] < 1e-6, f"Q matches closed form (max diff {diffs['Q']:.2e})")
    c.finish("3. closed-form oracle equivalence at n=2")


def test_criterion_4_discord_vs_tau_shape(ising_sweeps):
    tables, _ = ising_sweeps
    c = Checks()
    peaks = {}
    for n in (2, 4, 6):
        table = tables[n]
        mask = table.abscissa <= 1e3
        q = table.column("Q")[mask]
        interior_maxima = sum(
            1
            for i in range(1, len(q) - 1)
            if q[i] > q[i - 1] + 1e-9 and q[i] > q[i + 1] + 1e-9
        )
        c.check(interior_maxima == 1, f"n={n} Q unimodal ({interior_maxima} interior maxima)")
        peaks[n] = peak_location(table, "Q")
    c.check(
        peaks[2][0] < peaks[4][0] < peaks[6][0],
        f"peak location increases with n ({peaks[2][0]:.2f}, {peaks[4][0]:.2f}, {peaks[6][0]:.2f})",
    )
    c.check(
        peaks[2][1] > peaks[4][1] > peaks[6][1],
        f"peak height decreases with n ({peaks[2][1]:.4f}, {peaks[4][1]:.4f}, {peaks[6][1]:.4f})",
    )
    table2 = tables[2]
    cnc = table2.column("Cnc")
    q2 = table2.column("Q")
    zero_band = cnc <= 1e-12
    c.check(
        zero_band[0] and not zero_band[-1] and np.all(q2[zero_band] > 1e-9),
        "threshold tau below which Cnc = 0 while Q > 0",
    )
    c.finish("4. discord-vs-tau qualitative shape")


def test_criterion_5_three_spin():
    c = Checks()
    max_cnc = 0.0
    for j3 in (0.55, 0.6, 0.8, 1.0, 1.5):
        for tau in (0.5, 2.0, 5.0, 20.0, 100.0, 1000.0):
            rep = measures(QuenchProtocol.three_spin(j3, tau), 2)
            max_cnc = max(max_cnc, rep.concurrence)
    c.check(max_cnc == 0.0, f"Cnc = 0 for all J3 > 0.5 (max {max_cnc:.2e})")

    j3_grid = np.linspace(0.0, 1.0, 21)
    distances, contrast = [], []
    for tau in (2.0, 10.0, 50.0, 150.0):
        table = sweep_j3(tau, 2, j3_grid)
        xp, yp = peak_location(table, "Q")
        distances.append(abs(xp - 0.5))
        # sharpness as the peak's dominance over the J3 = 0 edge: a flat or
        # monotone profile scores ~1, an isolated spike scores high
        contrast.append(yp / table.column("Q")[0])
    c.check(
        all(b < a + 1e-12 for a, b in zip(distances, distances[1:])),
        f"discord peak approaches J3=0.5 (distances {[f'{d:.3f}' for d in distances]})",
    )
    c.check(
        all(b > a for a, b in zip(contrast, contrast[1:])),
        f"peak sharpens with tau (peak/edge contrast {[f'{s:.2f}' for s in contrast]})",
    )
    c.finish("5. three-spin concurrence threshold and discord peak")


def test_criterion_6_bessel_identity():
    # the program's Ising moments (its midpoint rule at these tau) against
    # scipy's ive, an independent evaluation of the Bessel closed form
    c = Checks()
    worst = 0.0
    for tau in (0.1, 1.0, 10.0):
        a = math.pi * tau
        for n in (0, 2, 4, 6):
            diff = abs(
                beta_n(dataclasses.replace(ISING, tau=tau), n) - float(ive(n // 2, a / 2.0))
            )
            worst = max(worst, diff)
    c.check(worst < 1e-8, f"beta_n matches e^-a/2 I_n/2(a/2) (max diff {worst:.2e})")
    c.finish("6. Bessel identity for the Ising moments")


def test_criterion_7_concurrence_oracles():
    c = Checks()
    rng = np.random.default_rng(7)
    worst_x = max(
        abs(concurrence_xstate(s) - concurrence_wootters(s.to_matrix()))
        for s in (random_x_state(rng) for _ in range(1000))
    )
    c.check(worst_x < 1e-9, f"X-state shortcut == spin-flip formula (max diff {worst_x:.2e})")
    worst_w = max(
        abs(concurrence_werner(a, d) - concurrence_wootters(qubit_state(a, d).to_matrix()))
        for a in np.linspace(0.0, 1.0, 20)
        for d in np.linspace(0.0, 1.0, 20)
    )
    c.check(worst_w < 1e-9, f"Werner closed form == spin-flip formula (max diff {worst_w:.2e})")
    c.check(
        concurrence_werner(1.0 / 3.0, 1.0) == 0.0
        and concurrence_werner(1.0 / 3.0 + 1e-9, 1.0) > 0.0,
        "separability threshold exactly at a = 1/3",
    )
    c.finish("7. concurrence oracle agreement")


def test_criterion_8_decoherence(weak_coupling_trace, revival_trace):
    c = Checks()
    cfg0 = CentralConfig(n_spins=8, delta=0.0, tau=10.0, a=0.9, t_grid=(0.0, 5.0, 10.0))
    tr0 = trace_run(cfg0)
    c.check(np.allclose(tr0.decoherence, 1.0, atol=1e-12), "delta = 0 gives D == 1")

    _, weak_tr, t_weak = weak_coupling_trace
    d251 = weak_tr.decoherence[-1]
    c.check(abs(d251 - 0.7025) <= 0.05, f"D(t=251) = {d251:.4f} vs 0.7025+-0.05")
    cnc = concurrence_werner(0.9, d251)
    c.check(abs(cnc - 0.704) <= 0.03, f"Cnc(a=0.9) = {cnc:.4f} vs 0.704+-0.03")

    _, rev_tr, t_rev = revival_trace
    inside = (np.abs(rev_tr.h) < 0.95) & (rev_tr.t > 30.0)
    beyond = rev_tr.h < -1.05
    d_in_max = rev_tr.decoherence[inside].max()
    d_in_min = rev_tr.decoherence[inside].min()
    d_out_max = rev_tr.decoherence[beyond].max()
    c.check(
        d_in_max >= 0.9 and d_in_min <= 0.2,
        f"full revivals inside |h|<1 (max {d_in_max:.3f}, min {d_in_min:.3f})",
    )
    c.check(
        d_out_max <= min(0.7, d_in_max - 0.05),
        f"only partial revivals beyond h=-1 (max {d_out_max:.3f})",
    )
    q_in_max = rev_tr.discord[inside].max()
    q_out_max = rev_tr.discord[beyond].max()
    c.check(q_out_max < q_in_max, f"discord revivals mirror D ({q_out_max:.3f} < {q_in_max:.3f})")
    elapsed = t_weak + t_rev
    c.check(elapsed < 300.0, f"runtime {elapsed:.0f}s < 300s at N=500")
    c.finish("8. central-qubit decoherence")


def test_criterion_9_numerical_hygiene(weak_coupling_trace):
    c = Checks()
    cfg, tr, _ = weak_coupling_trace
    c.check(
        tr.max_step_drift < 1e-8, f"mode-norm drift {tr.max_step_drift:.2e} < 1e-8"
    )
    worst = 0.0
    for t, d in zip(tr.t, tr.decoherence):
        ratio = math.log(d) / math.log(weak_coupling_D(t, cfg))
        worst = max(worst, abs(ratio - 1.0))
    c.check(worst <= 0.10, f"exact vs weak-coupling ln D within 10% (worst {worst:.4f})")

    frozen = CentralConfig(n_spins=8, delta=0.2, tau=1e12, a=0.5, t_grid=(0.0,))
    worst_rk = 0.0
    for k in (0.4, 1.5, 2.8):
        st0 = initial_mode_state(k, "+", frozen)
        st1 = evolve_mode(k, "+", frozen, 0.0, 7.0, st0)
        exact = expm(-1j * branch_hamiltonian(k, 0.0, "+", frozen) * 7.0) @ st0
        worst_rk = max(worst_rk, float(np.abs(st1 - exact).max()))
    c.check(worst_rk < 1e-8, f"integrator matches matrix exponential (diff {worst_rk:.2e})")
    c.finish("9. numerical hygiene")


def test_criterion_10_determinism(tmp_path, capsys):
    c = Checks()
    outputs = {}
    for workers in (1, 4):
        path = tmp_path / f"sweep_w{workers}.csv"
        code = cli_main(
            [
                "sweep", "--protocol", "ising", "--gamma", "1", "--n", "2",
                "--tau-min", "0.5", "--tau-max", "50", "--tau-points", "6",
                "--workers", str(workers), "--output", str(path),
            ]
        )
        assert code == 0
        outputs[workers] = path.read_bytes()
    c.check(outputs[1] == outputs[4], "sweep CSV byte-identical for workers 1 and 4")
    c.finish("10. deterministic parallel output")
