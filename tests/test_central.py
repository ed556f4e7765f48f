"""Central-qubit decoherence: integrator accuracy, oracles, and trace behavior.

Oracles for the Magnus propagator: the matrix exponential of a frozen
Hamiltonian, scipy's DOP853 at tight tolerance on a small chain swept through
both critical points (also for fast sweeps, where the step must be refined),
and the fourth-order step-halving ratio.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from spinquench import central
from spinquench.central import (
    CentralConfig,
    IntegrationError,
    ModeEnsemble,
    ModeState,
    approx_Fk,
    branch_hamiltonian,
    concurrence_werner,
    decoherence_factor,
    evolve_mode,
    initial_mode_state,
    mode_momenta,
    qubit_state,
    trace_run,
    weak_coupling_D,
)
from conftest import assert_matches_oracle
from spinquench.kernels import QuenchProtocol, excitation_probability
from spinquench.xstate import concurrence_wootters, discord, mutual_information


def small_config(**kw) -> CentralConfig:
    defaults = dict(n_spins=8, delta=0.01, tau=10.0, a=0.9, t_grid=(0.0,), h_start=10.0)
    defaults.update(kw)
    return CentralConfig(**defaults)


class TestModeMomenta:
    def test_four_sites(self):
        assert np.allclose(mode_momenta(4), [np.pi / 4.0, 3.0 * np.pi / 4.0])

    def test_large_chain(self):
        k = mode_momenta(500)
        assert len(k) == 250
        assert k.max() < np.pi
        assert k.min() > 0.0

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            mode_momenta(7)

    def test_midpoint_sum_second_order_convergence(self):
        # (2/N) sum f(k_m) -> (1/pi) int f dk at O(N^-2) for smooth aperiodic f
        exact = np.pi**2 / 3.0  # (1/pi) int_0^pi k^2 dk
        err = []
        for n in (100, 200):
            s = (2.0 / n) * np.sum(mode_momenta(n) ** 2)
            err.append(abs(s - exact))
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.2)


class TestBranchHamiltonian:
    def test_delta_zero_branches_identical(self):
        cfg = small_config(delta=0.0)
        h_plus = branch_hamiltonian(0.7, 3.0, "+", cfg)
        h_minus = branch_hamiltonian(0.7, 3.0, "-", cfg)
        assert np.array_equal(h_plus, h_minus)

    def test_traceless(self):
        cfg = small_config()
        for k, t in [(0.1, -5.0), (2.0, 3.0), (3.0, 12.0)]:
            assert np.trace(branch_hamiltonian(k, t, "-", cfg)) == 0.0

    def test_gap_at_diagonal_zero(self):
        # h(t) + delta + cos k = 0 leaves the off-diagonal gap 4 gamma
        cfg = small_config(delta=0.1)
        t = cfg.tau * (1.0 + cfg.delta)  # h(t) = -delta, cos(pi/2) = 0
        h = branch_hamiltonian(np.pi / 2.0, t, "+", cfg)
        assert h[0, 0] == pytest.approx(0.0, abs=1e-12)
        eigs = np.linalg.eigvalsh(h)
        assert eigs[1] - eigs[0] == pytest.approx(4.0 * cfg.gamma, abs=1e-12)

    def test_branch_labels(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            branch_hamiltonian(1.0, 0.0, "up", cfg)


class TestInitialModeState:
    def test_dominant_field_limit(self):
        st = initial_mode_state(0.5, "+", small_config(h_start=200.0, tau=10.0))
        assert abs(st.v) ** 2 == pytest.approx(1.0, abs=1e-4)
        assert st.u.real >= 0.0
        assert st.u.imag == 0.0

    def test_zero_offdiagonal_is_sz_eigenstate(self):
        st = initial_mode_state(0.0, "+", small_config())
        assert abs(st.u) == 0.0
        assert abs(st.v) == 1.0

    def test_eigenvector_residual(self):
        cfg = small_config()
        for k in (0.3, 1.2, 2.8):
            st = initial_mode_state(k, "-", cfg)
            h = branch_hamiltonian(k, cfg.t_start, "-", cfg)
            vec = np.array([st.u, st.v])
            lam = np.linalg.eigvalsh(h)[0]
            assert np.linalg.norm(h @ vec - lam * vec) < 1e-12


class TestEvolveMode:
    def test_matches_matrix_exponential_on_frozen_hamiltonian(self):
        # tau so large the sweep is frozen over the integration span
        cfg = small_config(tau=1e12, delta=0.2)
        for k in (0.4, 2.2):
            st0 = initial_mode_state(k, "+", cfg)
            st1 = evolve_mode(k, "+", cfg, 0.0, 5.0, st0)
            h = branch_hamiltonian(k, 0.0, "+", cfg)
            exact = expm(-1j * h * 5.0) @ np.array([st0.u, st0.v])
            assert np.abs(np.array([st1.u, st1.v]) - exact).max() < 1e-8

    def test_delta_zero_branch_overlap_stays_one(self):
        cfg = small_config(delta=0.0, t_grid=(0.0, 5.0, 15.0, 25.0))
        ens = ModeEnsemble(cfg)
        for t in cfg.t_grid:
            ens.advance(t)
            assert ens.decoherence_factor() == pytest.approx(1.0, abs=1e-12)

    def test_landau_zener_asymptotics(self):
        # the factor-2 Hamiltonian doubles the effective sweep exponent, so
        # the oracle is the closed-form probability at 2 tau; excitation is
        # read by projecting on the instantaneous excited eigenstate
        tau = 25.0
        cfg = small_config(delta=0.0, tau=tau, h_start=4.0)
        t_end = 4.0 * tau  # h = -3, well past every crossing
        for k in (0.12, 0.2, np.pi - 0.15):
            st0 = initial_mode_state(k, "+", cfg)
            st1 = evolve_mode(k, "+", cfg, cfg.t_start, t_end, st0)
            h = branch_hamiltonian(k, t_end, "+", cfg)
            eigs, vecs = np.linalg.eigh(h)
            excited = vecs[:, 1]
            p = abs(np.vdot(excited, np.array([st1.u, st1.v]))) ** 2
            oracle = excitation_probability(QuenchProtocol.ising(1.0, 2.0 * tau), k)
            assert p == pytest.approx(oracle, rel=0.05)

    def test_norm_preserved_along_trajectory(self):
        cfg = small_config(tau=5.0)
        st = initial_mode_state(1.0, "-", cfg)
        st = evolve_mode(1.0, "-", cfg, cfg.t_start, 20.0, st)
        assert abs(abs(st.u) ** 2 + abs(st.v) ** 2 - 1.0) < 1e-8

    def test_backwards_integration_rejected(self):
        cfg = small_config()
        st = initial_mode_state(1.0, "+", cfg)
        with pytest.raises(ValueError):
            evolve_mode(1.0, "+", cfg, 5.0, 1.0, st)

    def test_mode_state_norm_validated(self):
        with pytest.raises(ValueError):
            ModeState(1.0, 1.0)


def dop853_decoherence(config: CentralConfig) -> np.ndarray:
    """D at every config.t_grid time from scipy's DOP853 on all mode pairs."""
    ks = mode_momenta(config.n_spins)
    pairs = [(k, br) for br in ("+", "-") for k in ks]
    # the Hamiltonian is linear in t: H(t) = H(0) + t (H(1) - H(0))
    h0 = np.array([branch_hamiltonian(k, 0.0, br, config) for k, br in pairs])
    h1 = np.array([branch_hamiltonian(k, 1.0, br, config) for k, br in pairs]) - h0
    y0 = np.array(
        [[st.u, st.v] for st in (initial_mode_state(k, br, config) for k, br in pairs)]
    )

    def rhs(t, y):
        return (-1j * np.einsum("mij,mj->mi", h0 + t * h1, y.reshape(-1, 2))).ravel()

    sol = solve_ivp(
        rhs, (config.t_start, config.t_grid[-1]), y0.ravel(), method="DOP853",
        t_eval=config.t_grid, rtol=1e-12, atol=1e-13,
    )
    assert sol.success
    n = len(ks)
    out = []
    for y in sol.y.T:
        y = y.reshape(-1, 2)
        out.append(np.prod(np.abs(np.sum(y[:n].conj() * y[n:], axis=1)) ** 2))
    return np.array(out)


class TestMagnusPropagator:
    # N = 20 chain swept through h = 1 (t = 0) and h = -1 (t = 2 tau = 4)
    GRID = (-2.0, 0.0, 2.0, 4.0, 6.0, 8.0)

    def config(self, **kw):
        return CentralConfig(**{"n_spins": 20, "delta": 0.05, "tau": 2.0, "a": 0.9,
                                "t_grid": self.GRID, **kw})

    def decoherence(self, config, **kw):
        ens = ModeEnsemble(config, **kw)
        return np.array([ens.advance(t).decoherence_factor() for t in config.t_grid]), ens

    def test_matches_dop853_through_both_critical_points(self):
        oracle = dop853_decoherence(self.config())
        assert oracle.min() < 0.5  # the run does decohere
        fine, _ = self.decoherence(self.config(), step=0.0125)
        assert np.abs(fine - oracle).max() < 1e-8

    def test_error_estimate_bounds_the_dop853_error(self):
        oracle = dop853_decoherence(self.config())
        d, ens = self.decoherence(self.config())
        err = np.abs(d - oracle).max()
        assert 1e-10 < err <= ens.error_estimate <= 3.0 * err
        assert ens.error_estimate <= central.TOL

    def test_step_halving_fourth_order(self):
        d = [
            self.decoherence(self.config(), step=h, tol=math.inf)[0]
            for h in (0.05, 0.025, 0.0125)
        ]
        ratio = np.abs(d[0] - d[1]).max() / np.abs(d[1] - d[2]).max()
        assert ratio == pytest.approx(16.0, rel=0.15)

    def test_norm_defect_is_measured(self):
        _, ens = self.decoherence(self.config())
        assert 0.0 < ens.max_step_drift < 1e-12
        assert ens.steps == 2 * round((self.GRID[-1] - self.config().t_start) / 0.1)

    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.25])
    def test_fast_sweep_refines_the_step(self, tau):
        # the smallest h_start allowed; the default step misses TOL at these rates
        cfg = self.config(
            tau=tau, h_start=1.0 + 10.0 / math.sqrt(tau) + 1e-9, t_grid=self.GRID[1:]
        )
        oracle = dop853_decoherence(cfg)
        assert oracle.min() < 0.5
        fixed, coarse = self.decoherence(cfg, tol=math.inf)
        assert coarse.error_estimate > central.TOL
        d, ens = self.decoherence(cfg)
        assert ens.steps > coarse.steps
        assert ens.error_estimate <= central.TOL
        assert np.abs(d - oracle).max() <= ens.error_estimate

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(central, "_MAX_HALVINGS", 1)
        with pytest.raises(IntegrationError, match="smallest step"):
            trace_run(self.config(tau=0.1, h_start=33.0))
        monkeypatch.setattr(central, "_MAX_HALVINGS", 2)
        assert trace_run(self.config(tau=0.1, h_start=33.0)).error_estimate <= central.TOL


class TestDecoherenceFactor:
    def test_delta_zero_unity(self):
        assert decoherence_factor(small_config(delta=0.0), 10.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_before_crossing_near_unity(self):
        # h(t) = 5 is far above the first critical point
        cfg = small_config(n_spins=20, delta=0.01, tau=10.0)
        d = decoherence_factor(cfg, -40.0)
        assert d == pytest.approx(1.0, abs=1e-2)
        assert d <= 1.0


class TestApproxFk:
    def test_t_zero(self):
        assert approx_Fk(0.05, 0.0, 1e-3, 250.0) == 1.0

    def test_large_k(self):
        assert approx_Fk(3.0, 100.0, 1e-3, 250.0) == pytest.approx(1.0, abs=1e-12)

    def test_maximal_depletion_at_half_excitation(self):
        # g(x) = x - x^2 peaks at x = 1/2, giving F = 1 - sin^2(4 t delta)
        tau, t, delta = 250.0, 60.0, 1e-3
        k_half = math.sqrt(math.log(2.0) / (2.0 * math.pi * tau))
        expected = 1.0 - math.sin(4.0 * t * delta) ** 2
        assert approx_Fk(k_half, t, delta, tau) == pytest.approx(expected, abs=1e-12)
        ks = np.linspace(0.0, 0.2, 2001)
        vals = [approx_Fk(k, t, delta, tau) for k in ks]
        assert min(vals) == pytest.approx(expected, abs=1e-6)

    def test_exact_per_mode_overlap_in_depleted_band(self):
        # documents the approximation's regime: relative error of 1 - F_k
        # below 20% for delta <= 1e-3, tau = 250, k in the depleted band
        delta, tau = 1e-3, 250.0
        cfg = CentralConfig(
            n_spins=500, delta=delta, tau=tau, a=0.9, t_grid=(150.0,), h_start=3.0
        )
        ens = ModeEnsemble(cfg)
        ens.advance(150.0)
        f_exact = ens.mode_overlaps()
        k = mode_momenta(cfg.n_spins)
        # the band excited at the h = +1 crossing sits near k = pi
        for idx in (-1, -2, -3):
            q = np.pi - k[idx]
            f_approx = approx_Fk(q, 150.0, delta, tau)
            depletion_exact = 1.0 - f_exact[idx]
            depletion_approx = 1.0 - f_approx
            assert depletion_exact > 1e-5
            assert depletion_approx == pytest.approx(depletion_exact, rel=0.2)


class TestWeakCouplingD:
    def test_t_zero(self):
        assert weak_coupling_D(0.0, small_config()) == 1.0

    def test_delta_squared_scaling(self):
        cfg1 = small_config(delta=0.001, n_spins=100)
        cfg2 = small_config(delta=0.002, n_spins=100)
        ln1 = math.log(weak_coupling_D(50.0, cfg1))
        ln2 = math.log(weak_coupling_D(50.0, cfg2))
        assert ln2 == pytest.approx(4.0 * ln1, rel=1e-12)


class TestQubitState:
    def test_a_zero_maximally_mixed(self):
        for d in (0.0, 0.4, 1.0):
            rho = qubit_state(0.0, d).to_matrix()
            assert np.allclose(rho, np.eye(4) / 4.0, atol=1e-15)

    def test_pure_bell_limit(self):
        rho = qubit_state(1.0, 1.0).to_matrix()
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / math.sqrt(2.0)
        assert np.allclose(rho, np.outer(v, v), atol=1e-15)

    def test_eigenvalues_match_dense_solver(self):
        a, d = 0.9, 0.7025
        state = qubit_state(a, d)
        dense = np.sort(np.linalg.eigvalsh(state.to_matrix()))
        expected = np.sort(
            [
                (1.0 - a) / 4.0,
                (1.0 - a) / 4.0,
                (1.0 + a) / 4.0 + a * math.sqrt(d) / 2.0,
                (1.0 + a) / 4.0 - a * math.sqrt(d) / 2.0,
            ]
        )
        assert np.allclose(dense, expected, atol=1e-12)
        assert np.allclose(np.sort(state.eigenvalues()), expected, atol=1e-12)


class TestConcurrenceWerner:
    def test_pure_bell(self):
        assert concurrence_werner(1.0, 1.0) == 1.0

    def test_separable_threshold(self):
        for a in (0.0, 0.2, 1.0 / 3.0):
            for d in (0.0, 0.5, 1.0):
                assert concurrence_werner(a, d) == 0.0

    def test_reference_point(self):
        val = concurrence_werner(0.9, 0.7025)
        assert val == pytest.approx(0.70434, abs=5e-5)
        assert val == pytest.approx(
            concurrence_wootters(qubit_state(0.9, 0.7025).to_matrix()), abs=1e-9
        )

    def test_matches_wootters_on_grid(self):
        for a in np.linspace(0.0, 1.0, 20):
            for d in np.linspace(0.0, 1.0, 20):
                assert concurrence_werner(a, d) == pytest.approx(
                    concurrence_wootters(qubit_state(a, d).to_matrix()), abs=1e-9
                )

    def test_discord_monotone_in_decoherence_factor(self):
        for a in (0.25, 0.5, 0.75, 0.9):
            q = [discord(qubit_state(a, d)) for d in np.linspace(0.0, 1.0, 9)]
            assert all(b >= c - 1e-9 for b, c in zip(q[1:], q[:-1]))

    def test_discord_bounded_by_mutual_information(self):
        for a, d in ((0.3, 0.2), (0.9, 0.7), (0.6, 1.0)):
            rho = qubit_state(a, d)
            assert 0.0 <= discord(rho) <= mutual_information(rho) + 1e-12


def luo_discord(c1: float, c2: float, c3: float) -> float:
    """Discord of the Bell-diagonal state with correlations (c1, c2, c3), in bits.

    Luo, PRA 77, 042303 (2008): I = 2 + sum lam log2 lam over the four
    eigenvalues and C = 1 - h((1 + c)/2) with c = max |c_i|.
    """

    def xlog2(x):
        return x * math.log2(x) if x > 0.0 else 0.0

    lam = (
        (1 - c1 - c2 - c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 - c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
    )
    c = max(abs(c1), abs(c2), abs(c3))
    return 2.0 + sum(xlog2(x) for x in lam) - 0.5 * (xlog2(1 - c) + xlog2(1 + c))


class TestQubitDiscord:
    GRID = [(a, d) for a in np.linspace(0.0, 1.0, 6) for d in np.linspace(0.0, 1.0, 6)]

    def test_matches_luo_closed_form(self):
        # the reduced state is Bell-diagonal with c1 = -c2 = a sqrt(d), c3 = a
        for a in np.linspace(0.0, 1.0, 11):
            for d in np.linspace(0.0, 1.0, 11):
                root = a * math.sqrt(d)
                assert discord(qubit_state(a, d)) == pytest.approx(
                    luo_discord(root, -root, a), abs=1e-12
                )

    @pytest.mark.parametrize("a,d", GRID)
    def test_against_general_oracle(self, a, d):
        assert_matches_oracle(qubit_state(a, d))


class TestTraceRun:
    def test_delta_zero_constant_measures(self):
        cfg = small_config(delta=0.0, a=0.9, t_grid=(0.0, 4.0, 8.0))
        tr = trace_run(cfg)
        assert np.allclose(tr.decoherence, 1.0, atol=1e-12)
        assert np.allclose(tr.discord, tr.discord[0], atol=1e-9)
        assert np.allclose(tr.concurrence, 0.9 * 1.5 - 0.5, atol=1e-12)

    def test_below_entanglement_threshold(self):
        # a < 1/3: concurrence identically zero, discord strictly positive
        cfg = small_config(n_spins=20, delta=0.02, a=0.3, t_grid=(0.0, 10.0, 20.0, 30.0))
        tr = trace_run(cfg)
        assert np.all(tr.concurrence == 0.0)
        assert np.all(tr.discord > 1e-4)

    def test_discord_column_is_discord_at_each_time(self):
        # the trace measures all its states in one batch; each row must equal
        # the discord of that time's state measured on its own, bit for bit
        cfg = small_config(n_spins=20, delta=0.02, a=0.8, t_grid=tuple(np.linspace(-5.0, 30.0, 8)))
        tr = trace_run(cfg)
        alone = np.array([discord(qubit_state(cfg.a, d)) for d in tr.decoherence])
        assert tr.discord.tobytes() == alone.tobytes()
        assert len(set(tr.decoherence)) == len(tr.decoherence)

    def test_rows_in_time_order_with_h_column(self):
        cfg = small_config(delta=0.005, t_grid=(-5.0, 0.0, 5.0))
        tr = trace_run(cfg)
        assert np.all(np.diff(tr.t) > 0.0)
        assert np.allclose(tr.h, 1.0 - tr.t / cfg.tau)
        assert tr.max_step_drift < 1e-8


class TestConfigValidation:
    def test_odd_n_spins(self):
        with pytest.raises(ValueError):
            small_config(n_spins=9)

    def test_h_start_too_low(self):
        with pytest.raises(ValueError):
            small_config(tau=0.01, h_start=1.5)

    def test_unsorted_grid(self):
        with pytest.raises(ValueError):
            small_config(t_grid=(1.0, 0.5))

    def test_grid_before_start(self):
        with pytest.raises(ValueError):
            small_config(t_grid=(-1e6,))

    def test_werner_weight_range(self):
        with pytest.raises(ValueError):
            small_config(a=1.2)
