"""Central-qubit decoherence: integrator accuracy, oracles, and trace behavior.

Oracles for the Magnus propagator: the matrix exponential of a frozen
Hamiltonian, scipy's DOP853 at tight tolerance on a small chain swept through
both critical points (also for fast sweeps, where the step must be refined)
and over one step, the exact finite-time Landau-Zener solution in Weber
functions (also at tau = 1e-3, where DOP853 drifts by 1e-9 and more), and the
sixth-order step-halving ratio.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from spinquench import central
from spinquench.central import (
    CentralConfig,
    IntegrationError,
    ModeEnsemble,
    mode_momenta,
    qubit_state,
    trace_run,
)
from conftest import (
    approx_Fk,
    assert_matches_oracle,
    branch_hamiltonian,
    concurrence_werner,
    evolve_mode,
    excitation_probability,
    initial_mode_state,
    landau_zener_decoherence,
    weak_coupling_D,
)
from spinquench.kernels import QuenchProtocol
from spinquench.xstate import concurrence_wootters, concurrence_xstate, discord, mutual_information


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
        u, v = initial_mode_state(0.5, "+", small_config(h_start=200.0, tau=10.0))
        assert abs(v) ** 2 == pytest.approx(1.0, abs=1e-4)
        assert u.real >= 0.0
        assert u.imag == 0.0

    def test_zero_offdiagonal_is_sz_eigenstate(self):
        u, v = initial_mode_state(0.0, "+", small_config())
        assert abs(u) == 0.0
        assert abs(v) == 1.0

    def test_eigenvector_residual(self):
        cfg = small_config()
        for k in (0.3, 1.2, 2.8):
            vec = initial_mode_state(k, "-", cfg)
            h = branch_hamiltonian(k, cfg.t_start, "-", cfg)
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
            exact = expm(-1j * h * 5.0) @ st0
            assert np.abs(st1 - exact).max() < 1e-8

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
            p = abs(np.vdot(excited, st1)) ** 2
            oracle = excitation_probability(QuenchProtocol.ising(1.0, 2.0 * tau), k)
            assert p == pytest.approx(oracle, rel=0.05)

    def test_norm_preserved_along_trajectory(self):
        cfg = small_config(tau=5.0)
        u, v = evolve_mode(1.0, "-", cfg, cfg.t_start, 20.0, initial_mode_state(1.0, "-", cfg))
        assert abs(abs(u) ** 2 + abs(v) ** 2 - 1.0) < 1e-8


def dop853_decoherence(config: CentralConfig) -> np.ndarray:
    """D at every config.t_grid time from scipy's DOP853 on all mode pairs."""
    ks = mode_momenta(config.n_spins)
    pairs = [(k, br) for br in ("+", "-") for k in ks]
    # the Hamiltonian is linear in t: H(t) = H(0) + t (H(1) - H(0))
    h0 = np.array([branch_hamiltonian(k, 0.0, br, config) for k, br in pairs])
    h1 = np.array([branch_hamiltonian(k, 1.0, br, config) for k, br in pairs]) - h0
    y0 = np.array([initial_mode_state(k, br, config) for k, br in pairs])

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

    def decoherence(self, config, step=central.STEP):
        """D at every observation time from one ensemble at a fixed step, and the ensemble."""
        ens = ModeEnsemble(config, step)
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

    def test_trace_matches_exact_landau_zener_solution(self):
        cfg = self.config()
        exact = landau_zener_decoherence(cfg)
        assert exact.min() < 0.5
        tr = trace_run(cfg)
        assert np.abs(tr.decoherence - exact).max() <= tr.error_estimate <= central.TOL

    def test_fastest_sweep_matches_exact_solution(self):
        # tau = 1e-3 from the smallest h_start allowed: about 4e3 radians of
        # phase to t = 2, where DOP853 at rtol 1e-12 is off by 1.0e-9 and
        # takes 4 times as long as this oracle and the trace together
        cfg = self.config(tau=1e-3, delta=0.3, h_start=1.0 + 10.0 / math.sqrt(1e-3) + 1e-9,
                          t_grid=(0.0, 2.0))
        exact = landau_zener_decoherence(cfg)
        assert exact.min() < 0.99
        assert np.abs(trace_run(cfg).decoherence - exact).max() <= central.TOL

    def test_step_halving_sixth_order(self):
        d = [
            self.decoherence(self.config(), step=h)[0]
            for h in (0.05, 0.025, 0.0125)
        ]
        ratio = np.abs(d[0] - d[1]).max() / np.abs(d[1] - d[2]).max()
        assert ratio == pytest.approx(64.0, rel=0.15)

    def test_single_step_local_error_seventh_order(self):
        # one step for one pair swept fast (a1 = -10, tau = 0.2): the h^5
        # terms of the generator are what makes the local error fall as h^7
        a0, b, a1, t0 = np.array([3.0]), np.array([1.0]), -10.0, 0.3
        y0 = np.array([0.6, 0.8j])

        def rhs(t, y):
            a = a0[0] + a1 * t
            return -1j * np.array([a * y[0] + b[0] * y[1], b[0] * y[0] - a * y[1]])

        err = []
        for h in (0.2, 0.1, 0.05, 0.025):
            sol = solve_ivp(rhs, (t0, t0 + h), y0, method="DOP853", rtol=1e-13, atol=1e-15)
            y = central._magnus(a0, b, a1, y0[:, None], t0, t0 + h, 1)[:, 0]
            err.append(np.abs(y - sol.y[:, -1]).max())
        assert err[-1] > 1e-12  # well above the oracle's own error
        for coarse, fine in zip(err, err[1:]):
            assert coarse / fine == pytest.approx(128.0, rel=0.1)

    def test_norm_defect_is_measured(self):
        _, ens = self.decoherence(self.config())
        assert 0.0 < ens.max_step_drift < 1e-12
        # adiabatic steps up to where the largest g / E reaches COUPLING, then
        # pairs of Magnus steps no longer than 0.1 over each interval
        assert ens.adiabatic_steps == 168
        assert ens.handoff == pytest.approx(-3.40005, abs=1e-5)
        assert ens.steps == 2 * (8 + 5 * 10) == 116

    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.25])
    def test_fast_sweep_refines_the_step(self, tau):
        # the smallest h_start allowed; the default Magnus step misses TOL at
        # these rates.  Observing from t_start keeps the whole run on the
        # Magnus path: with the adiabatic segment the default step meets TOL
        # at tau = 1 (TestAdiabaticSegment covers refinement through both).
        h_start = 1.0 + 10.0 / math.sqrt(tau) + 1e-9
        cfg = self.config(
            tau=tau, h_start=h_start, t_grid=(-tau * (h_start - 1.0),) + self.GRID[1:]
        )
        oracle = dop853_decoherence(cfg)
        assert oracle.min() < 0.5
        _, coarse = self.decoherence(cfg)
        assert coarse.error_estimate > central.TOL
        tr = trace_run(cfg)
        assert tr.adiabatic_steps == 0
        assert tr.step < central.STEP and tr.steps > coarse.steps
        assert tr.error_estimate <= central.TOL
        assert np.abs(tr.decoherence - oracle).max() <= tr.error_estimate

    def test_halving_rerecords_every_observation(self):
        # the default step meets TOL at t = 0 and misses it at t = 2; D(0)
        # must come from the halved step too, not stay at the rejected one
        # (which was off by 1.5e-6 against the oracle)
        cfg = self.config(tau=0.01, delta=1.0, h_start=101.0, t_grid=(0.0, 2.0))
        tr = trace_run(cfg)
        assert tr.step < central.STEP
        assert np.abs(tr.decoherence - dop853_decoherence(cfg)).max() <= central.TOL

    def test_delta_zero_branch_overlap_stays_one(self):
        cfg = small_config(delta=0.0, t_grid=(0.0, 5.0, 15.0, 25.0))
        ens = ModeEnsemble(cfg)
        for t in cfg.t_grid:
            ens.advance(t)
            assert ens.decoherence_factor() == pytest.approx(1.0, abs=1e-12)

    def test_backwards_integration_rejected(self):
        ens = ModeEnsemble(small_config()).advance(5.0)
        with pytest.raises(ValueError):
            ens.advance(1.0)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(central, "_MAX_HALVINGS", 1)
        with pytest.raises(IntegrationError, match="smallest step"):
            trace_run(self.config(tau=0.1, h_start=33.0))
        monkeypatch.setattr(central, "_MAX_HALVINGS", 2)
        assert trace_run(self.config(tau=0.1, h_start=33.0)).error_estimate <= central.TOL


def magnus_reference(config: CentralConfig, step: float) -> np.ndarray:
    """D at every config.t_grid time from `central._magnus` alone, in `step`s from t_start."""
    ks = mode_momenta(config.n_spins)
    pairs = [(k, br) for br in ("+", "-") for k in ks]
    a0 = np.array([branch_hamiltonian(k, 0.0, br, config)[0, 0] for k, br in pairs])
    b = np.array([branch_hamiltonian(k, 0.0, br, config)[0, 1] for k, br in pairs])
    y = np.array([initial_mode_state(k, br, config) for k, br in pairs]).T
    out, t0 = [], config.t_start
    for t in config.t_grid:
        y = central._magnus(a0, b, -2.0 / config.tau, y, t0, t, math.ceil((t - t0) / step - 1e-9))
        inner = np.sum(y[:, : len(ks)].conj() * y[:, len(ks):], axis=0)
        out.append(np.prod(np.abs(inner) ** 2))
        t0 = t
    return np.array(out)


def hermite_cubic(f0, d0, f1, d1):
    """The cubic on s in [0, 1] with values f0, f1 and derivatives d0, d1 at the ends."""
    return np.polynomial.Polynomial(
        [f0, d0, 3.0 * (f1 - f0) - 2.0 * d0 - d1, 2.0 * (f0 - f1) + d0 + d1]
    )


class TestAdiabaticSegment:
    """The adiabatic-frame segment from t_start to the hand-off, and its hand-over to Magnus."""

    GRID = TestMagnusPropagator.GRID
    config = TestMagnusPropagator.config
    decoherence = TestMagnusPropagator.decoherence

    @pytest.mark.parametrize("span", [0.3, 2.0, 17.0])
    def test_filon_terms_exact_for_a_cubic(self, span):
        # quadrature of Omega_1 and Omega_2 for the coupling that the step
        # interpolates: f(Phi_0 + L s) = P(s), a cubic
        phi0, f0, f1, df0, df1 = 123.4, 0.008, 0.011, 2e-3 / span, 7e-3 / span
        start = (np.array([phi0]), np.exp(2j * np.array([phi0])), np.array([f0]), np.array([df0]))
        end = (np.array([phi0 + span]), np.exp(2j * np.array([phi0 + span])),
               np.array([f1]), np.array([df1]))
        w, phi2 = central._filon_terms(start, end)
        p = hermite_cubic(f0, span * df0, f1, span * df1)
        re = quad(lambda x: p(x / span) * math.cos(2.0 * x), 0.0, span, epsabs=1e-15, limit=200)[0]
        im = quad(lambda x: p(x / span) * math.sin(2.0 * x), 0.0, span, epsabs=1e-15, limit=200)[0]
        assert abs(w[0] - np.exp(2j * phi0) * (re + 1j * im)) < 1e-15
        # phi2 = int_0^L ds int_0^s dr p(s) p(r) sin(2 (s - r))
        inner = lambda s_: quad(  # noqa: E731
            lambda r: p(r / span) * math.sin(2.0 * (s_ - r)), 0.0, s_, epsabs=1e-15, limit=200
        )[0]
        ref = quad(lambda s_: p(s_ / span) * inner(s_), 0.0, span, epsabs=1e-16, limit=200)[0]
        assert phi2[0] == pytest.approx(ref, rel=1e-12)

    def test_handoff_with_every_pair_at_its_crossing(self):
        # N = 2, delta = 0: both pairs have a = 0 at t = tau, and at tau = 100
        # g / E never reaches COUPLING, so the segment ends there with no
        # coupling changing; its nodes are graded over the segment's length
        cfg = CentralConfig(n_spins=2, delta=0.0, tau=100.0, a=0.9, t_grid=(100.0, 110.0))
        d, ens = self.decoherence(cfg)
        assert ens.handoff == 100.0 and ens.adiabatic_steps == 70
        assert np.allclose(d, 1.0, atol=1e-12)

    def test_handoff_is_where_the_largest_coupling_reaches_threshold(self):
        cfg = self.config()
        ens = ModeEnsemble(cfg)
        t_h = central._handoff(ens._a0, ens._b, ens._a1, cfg.t_start, math.inf)
        t = np.linspace(cfg.t_start, 0.0, 200001)
        a = ens._a0[:, None] + ens._a1 * t[None, :]
        b = ens._b[:, None]
        coupling = np.max(-b * ens._a1 / (2.0 * np.hypot(a, b) ** 3), axis=0)
        first = t[np.argmax(coupling >= central.COUPLING)]
        assert first - (t[1] - t[0]) <= t_h <= first
        # the first observation time comes first when it is earlier
        assert central._handoff(ens._a0, ens._b, ens._a1, cfg.t_start, -5.0) == -5.0

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"gamma": 0.1},
         {"tau": 0.25, "h_start": 1.0 + 10.0 / math.sqrt(0.25) + 1e-9, "t_grid": GRID[1:]}],
        ids=["defaults", "small-gamma", "fast-sweep"],
    )
    def test_error_estimate_bounds_the_dop853_error(self, overrides):
        cfg = self.config(**overrides)
        oracle = dop853_decoherence(cfg)
        assert oracle.min() < 0.5
        tr = trace_run(cfg)
        assert tr.adiabatic_steps > 0 and tr.handoff > cfg.t_start
        assert np.abs(tr.decoherence - oracle).max() <= tr.error_estimate <= central.TOL

    def test_fast_sweep_refines_both_segments(self):
        # at tau = 0.25 the default step misses TOL: both segments are refined
        cfg = self.config(tau=0.25, h_start=1.0 + 10.0 / math.sqrt(0.25) + 1e-9,
                          t_grid=self.GRID[1:])
        _, fixed = self.decoherence(cfg)
        assert fixed.error_estimate > central.TOL
        tr = trace_run(cfg)
        assert tr.handoff == fixed.handoff
        assert tr.adiabatic_steps >= 2 * fixed.adiabatic_steps - 2
        assert tr.steps > fixed.steps

    def test_observation_at_t_start_is_the_magnus_path(self):
        self.assert_magnus_path(self.config(t_grid=(self.config().t_start,) + self.GRID))

    def test_handoff_at_t_start_is_the_magnus_path(self, monkeypatch):
        # a threshold every pair exceeds from the start leaves nothing adiabatic
        monkeypatch.setattr(central, "COUPLING", 1e-12)
        self.assert_magnus_path(self.config())

    def assert_magnus_path(self, cfg):
        # with every step on the Magnus path the estimate at STEP is 1.35e-6
        # at t = 4, so the run halves the step once and marches it again
        tr = trace_run(cfg)
        assert tr.adiabatic_steps == 0 and tr.handoff == cfg.t_start
        assert tr.step == central.STEP / 2.0 and tr.error_estimate <= central.TOL
        assert tr.decoherence.tobytes() == self.magnus_path(cfg, tr.step).tobytes()

    @staticmethod
    def magnus_path(cfg, step: float) -> np.ndarray:
        """D from `central._magnus` marched as ModeEnsemble marches it at `step` with no
        adiabatic segment."""
        ens = ModeEnsemble(cfg)
        y, t0, out = ens._fine, cfg.t_start, []
        for t in cfg.t_grid:
            h = central._step_length(ens._a0, ens._b, ens._a1, t0, t, step)
            pairs = max(math.ceil((t - t0) / (2.0 * h) - 1e-9), 0)
            y = central._magnus(ens._a0, ens._b, ens._a1, y, t0, t, 2 * pairs)
            out.append(central._overlap_product(central._branch_overlaps(y, ens._n_modes)))
            t0 = t
        return np.array(out)

    def test_fixed_step_halving_order(self, monkeypatch):
        # only the adiabatic step changes; the Magnus steps after the hand-off
        # are the same in every run.  The Filon error of a step carries the
        # phase of its nodes, so single halving ratios scatter (7 to 150
        # here); over four halvings D converges at the fourth order of
        # Omega_1 + Omega_2.
        d = []
        for log_step in (0.08, 0.04, 0.02, 0.01, 0.005):
            monkeypatch.setattr(central, "LOG_STEP", log_step)
            d.append(self.decoherence(self.config())[0])
        diffs = [np.abs(a - b).max() for a, b in zip(d, d[1:])]
        order = math.log2(diffs[0] / diffs[-1]) / (len(diffs) - 1)
        assert 3.5 <= order <= 5.5
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_revival_matches_all_magnus_reference(self):
        # the benchmark's N = 500 revival trace through both critical points
        cfg = CentralConfig(
            n_spins=500, delta=0.01, tau=50.0, a=0.9, h_start=4.0,
            t_grid=tuple(-18.125 + 2.5 * i for i in range(69)),
        )
        ens = ModeEnsemble(cfg)
        d = [ens.advance(cfg.t_grid[0]).decoherence_factor()]
        # the 2 638 Magnus steps before the first observation time become
        # at most a tenth as many adiabatic and Magnus steps
        assert ens.adiabatic_steps + ens.steps <= 264
        d += [ens.advance(t).decoherence_factor() for t in cfg.t_grid[1:]]
        ref = magnus_reference(cfg, 0.0125)
        assert ref.min() < 0.2 and ref.max() > 0.9
        assert np.abs(np.array(d) - ref).max() <= 1e-7


class TestDecoherenceFactor:
    def test_before_crossing_near_unity(self):
        # h(t) = 5 is far above the first critical point
        cfg = small_config(n_spins=20, delta=0.01, tau=10.0)
        d = ModeEnsemble(cfg).advance(-40.0).decoherence_factor()
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


def werner_concurrence(a: float, d: float) -> float:
    """The program's concurrence of the dephased Werner state, the one the trace records."""
    return concurrence_xstate(qubit_state(a, d))


class TestConcurrenceWerner:
    def test_pure_bell(self):
        assert werner_concurrence(1.0, 1.0) == 1.0

    def test_separable_threshold(self):
        for a in (0.0, 0.2, 1.0 / 3.0):
            for d in (0.0, 0.5, 1.0):
                assert werner_concurrence(a, d) == 0.0
        assert werner_concurrence(1.0 / 3.0 + 1e-9, 1.0) > 0.0

    def test_reference_point(self):
        val = werner_concurrence(0.9, 0.7025)
        assert val == pytest.approx(0.70434, abs=5e-5)
        assert val == pytest.approx(
            concurrence_wootters(qubit_state(0.9, 0.7025).to_matrix()), abs=1e-9
        )

    def test_matches_wootters_on_grid(self):
        # the closed form max[a (sqrt d + 1/2) - 1/2, 0] is the oracle too
        for a in np.linspace(0.0, 1.0, 20):
            for d in np.linspace(0.0, 1.0, 20):
                val = werner_concurrence(a, d)
                assert val == pytest.approx(
                    concurrence_wootters(qubit_state(a, d).to_matrix()), abs=1e-9
                )
                assert val == pytest.approx(concurrence_werner(a, d), abs=1e-15)

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
