"""X-state measures against dense linear-algebra oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_matches_oracle,
    basis_value,
    oracle_classical_correlation,
    oracle_discord,
    random_product_state,
    random_x_state,
)
from spinquench.kernels import QuenchProtocol
from spinquench.quench import correlators
from spinquench.xstate import (
    CorrelationReport,
    CorrelatorSet,
    MeasurementBasis,
    XStateDensityMatrix,
    build_xstate,
    classical_correlation,
    concurrence_wootters,
    concurrence_xstate,
    conditional_entropy,
    conditional_state,
    discord,
    mutual_information,
    subsystem_entropy,
    von_neumann_entropy,
    xstate_eigenvalues,
)

MAXMIX = CorrelatorSet(0.0, 0.0, 0.0, 0.0)
BELL_PHI = CorrelatorSet(c1=1.0, c2=-1.0, c3=1.0, c4=0.0)  # (|uu> + |dd>)/sqrt 2


def _bell_matrix() -> np.ndarray:
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v).astype(complex)


class TestBuildXState:
    def test_maximally_mixed(self):
        s = build_xstate(MAXMIX)
        assert s.a_plus == s.a_minus == s.a_zero == 0.25
        assert s.b1 == s.b2 == 0.0

    def test_fully_polarized(self):
        s = build_xstate(CorrelatorSet(0.0, 0.0, 1.0, 1.0))
        assert s.a_plus == 1.0
        assert s.a_minus == s.a_zero == 0.0

    def test_eigenvalues_match_dense_solver(self):
        s = build_xstate(CorrelatorSet(0.2, 0.2, 0.04, 0.1))
        dense = np.sort(np.linalg.eigvalsh(s.to_matrix()))
        closed = np.sort(s.eigenvalues())
        assert np.allclose(dense, closed, atol=1e-12)

    def test_inconsistent_correlators_rejected(self):
        with pytest.raises(ValueError):
            build_xstate(CorrelatorSet(0.0, 0.0, 0.0, 1.0))  # a_minus = -1/4

    def test_correlator_range_validated(self):
        with pytest.raises(ValueError):
            CorrelatorSet(1.5, 0.0, 0.0, 0.0)


class TestEigenvalues:
    def test_maximally_mixed(self):
        assert np.allclose(xstate_eigenvalues(MAXMIX), 0.25)

    def test_polarized_half(self):
        # c4 = 1/2, all else zero: (1/4)[1 +- sqrt(4 c4^2)] and (1/4)[1 +- 0]
        eigs = xstate_eigenvalues(CorrelatorSet(0.0, 0.0, 0.0, 0.5))
        assert np.allclose(np.sort(eigs), [0.0, 0.25, 0.25, 0.5], atol=1e-15)

    def test_random_states_match_dense_solver(self, rng):
        for _ in range(50):
            s = random_x_state(rng)
            dense = np.sort(np.linalg.eigvalsh(s.to_matrix()))
            assert np.allclose(np.sort(xstate_eigenvalues(s)), dense, atol=1e-12)

    def test_correlator_form_matches_dense_solver(self, rng):
        # quenched-family correlator sets exercise the printed expressions
        for tau in (0.3, 1.0, 4.0):
            c = correlators(QuenchProtocol.ising(1.0, tau), 2)
            dense = np.sort(np.linalg.eigvalsh(build_xstate(c).to_matrix()))
            assert np.allclose(np.sort(xstate_eigenvalues(c)), dense, atol=1e-12)


class TestEntropies:
    def test_subsystem_entropy_values(self):
        assert subsystem_entropy(0.0) == 1.0
        assert subsystem_entropy(1.0) == 0.0
        assert subsystem_entropy(-1.0) == 0.0
        assert subsystem_entropy(0.5) == pytest.approx(0.8112781244591328, abs=1e-14)

    def test_subsystem_entropy_domain(self):
        with pytest.raises(ValueError):
            subsystem_entropy(1.5)

    def test_von_neumann_negative_eigenvalue_raises(self):
        bad = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            von_neumann_entropy(bad)


class TestMutualInformation:
    def test_maximally_mixed(self):
        assert mutual_information(build_xstate(MAXMIX)) == 0.0

    def test_pure_product(self):
        assert mutual_information(build_xstate(CorrelatorSet(0.0, 0.0, 1.0, 1.0))) == 0.0

    def test_bell_state_two_bits(self):
        assert mutual_information(build_xstate(BELL_PHI)) == pytest.approx(2.0, abs=1e-12)
        assert mutual_information(_bell_matrix()) == pytest.approx(2.0, abs=1e-12)


class TestConditionalState:
    def test_maximally_mixed_any_basis(self, rng):
        rho = np.eye(4, dtype=complex) / 4.0
        basis = MeasurementBasis(1.1, 2.3)
        for outcome in ("+", "-"):
            p, post = conditional_state(rho, basis, outcome)
            assert p == pytest.approx(0.5, abs=1e-12)
            red_a = np.einsum("abcb->ac", post.reshape(2, 2, 2, 2))
            assert np.allclose(red_a, np.eye(2) / 2.0, atol=1e-12)

    def test_outcome_labeling_polar_basis(self):
        # |uu> measured along theta = 0: "+" is the |0>-side projector
        rho = build_xstate(CorrelatorSet(0.0, 0.0, 1.0, 1.0))
        p_plus, _ = conditional_state(rho, MeasurementBasis(0.0, 0.0), "+")
        p_minus, _ = conditional_state(rho, MeasurementBasis(0.0, 0.0), "-")
        assert p_plus == pytest.approx(1.0, abs=1e-12)
        assert p_minus == pytest.approx(0.0, abs=1e-15)

    def test_zero_probability_outcome_flagged(self):
        rho = build_xstate(CorrelatorSet(0.0, 0.0, 1.0, 1.0))
        p, post = conditional_state(rho, MeasurementBasis(0.0, 0.0), "-")
        assert p == 0.0
        assert np.all(np.isnan(post.real))

    def test_outcomes_recompose_dephased_state(self, rng):
        # p+ rho+ + p- rho- must equal sum_k (I x B_k) rho (I x B_k)
        for _ in range(25):
            s = random_x_state(rng)
            rho = s.to_matrix()
            basis = MeasurementBasis(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            w_plus, w_minus = basis.vectors()
            dephased = np.zeros((4, 4), dtype=complex)
            for w in (w_plus, w_minus):
                proj = np.kron(np.eye(2), np.outer(w, w.conj()))
                dephased += proj @ rho @ proj
            total = np.zeros((4, 4), dtype=complex)
            for outcome in ("+", "-"):
                p, post = conditional_state(rho, basis, outcome)
                if p > 0.0:
                    total += p * post
            assert np.allclose(total, dephased, atol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        s = random_x_state(rng)
        basis = MeasurementBasis(0.7, 4.0)
        p1, post1 = conditional_state(s, basis, "+")
        p2, post2 = conditional_state(s, basis, "-")
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)
        assert np.trace(post1) == pytest.approx(1.0, abs=1e-12)
        assert np.trace(post2) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_outcome(self):
        with pytest.raises(ValueError):
            conditional_state(np.eye(4) / 4.0, MeasurementBasis(0.0, 0.0), "x")


class TestClassicalCorrelation:
    def test_product_state_zero(self):
        c_val, _ = classical_correlation(build_xstate(CorrelatorSet(0.0, 0.0, 0.36, 0.6)))
        assert c_val == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_zero(self):
        c_val, _ = classical_correlation(build_xstate(MAXMIX))
        assert c_val == pytest.approx(0.0, abs=1e-12)
        dense = np.eye(4, dtype=complex) / 4.0
        assert oracle_classical_correlation(dense) == pytest.approx(0.0, abs=1e-12)

    def test_x_state_path_builds_no_dense_matrix(self, monkeypatch):
        def no_matrix(self):
            raise AssertionError("the X-state path built the 4x4 matrix")

        state = random_x_state(np.random.default_rng(3))
        monkeypatch.setattr(XStateDensityMatrix, "to_matrix", no_matrix)
        classical_correlation(state)
        mutual_information(state)
        discord(state)

    def test_dense_input_rejected(self):
        with pytest.raises(ValueError):
            classical_correlation(np.eye(4, dtype=complex) / 4.0)
        with pytest.raises(ValueError):
            discord(_bell_matrix())

    def test_bell_state_one_bit(self):
        c_val, _ = classical_correlation(build_xstate(BELL_PHI))
        assert c_val == pytest.approx(1.0, abs=1e-9)

    def test_phi_invariance_when_c1_equals_c2(self):
        rho = build_xstate(correlators(QuenchProtocol.ising(1.0, 5.0), 2)).to_matrix()
        values = [
            conditional_entropy(rho, 0.9, phi) for phi in np.linspace(0.0, 2.0 * np.pi, 17)
        ]
        assert max(values) - min(values) < 1e-9

    def test_grid_and_refined_agree_on_quenched_family(self):
        # the optimum for these states sits on the polar axis, which the
        # dense theta scan contains exactly
        for tau in (0.4, 5.0, 40.0):
            state = build_xstate(correlators(QuenchProtocol.ising(1.0, tau), 2))
            rho = state.to_matrix()
            tt = np.linspace(0.0, np.pi, 64)
            grid_best = min(conditional_entropy(rho, th, 0.0) for th in tt)
            c_val, _ = classical_correlation(state)
            rho_a = np.einsum("abcb->ac", rho.reshape(2, 2, 2, 2))
            s_a = von_neumann_entropy(rho_a)
            assert (s_a - grid_best) == pytest.approx(c_val, abs=1e-8)

    def test_basis_canonicalized(self):
        _, basis = classical_correlation(build_xstate(BELL_PHI))
        assert 0.0 <= basis.theta <= np.pi
        assert 0.0 <= basis.phi < 2.0 * np.pi

    def test_phi_just_below_zero_wraps_into_range(self):
        # arg b2 - arg b1 = -2e-17 puts the best azimuth at -1e-17 before it
        # is wrapped; -1e-17 % (2 pi) rounds to exactly 2 pi, outside the
        # basis range, so the wrap must not be taken modulo 2 pi
        state = XStateDensityMatrix(
            a_plus=0.3, a_minus=0.2, a_zero=0.25, b1=0.1, b2=complex(0.1, -2e-18)
        )
        assert np.angle(state.b2) - np.angle(state.b1) == -2e-17
        c_val, basis = classical_correlation(state)
        assert 0.0 <= basis.phi < 2.0 * np.pi
        assert basis_value(state, basis) == pytest.approx(c_val, abs=1e-12)

    def test_interior_optimum_next_to_polar_axis(self):
        # draw 8822 of random_x_state(default_rng(7)); a dense 721x720
        # (theta, phi) scan refined by Nelder-Mead puts the optimum at
        # cos theta = 0.99133, phi = 1.02812 with C = 0.152186158675666,
        # 6.4e-8 above the polar-axis value 0.152186094821297
        state = XStateDensityMatrix(
            a_plus=0.6296309423983517,
            a_minus=0.16474426073926177,
            a_zero=0.10281239843119325,
            b1=0.062156823057212436 + 0.1835055160146407j,
            b2=-0.021990267891769104 - 0.0035230190118743913j,
        )
        c_val, basis = classical_correlation(state)
        assert c_val >= 0.152186158675 - 1e-12
        assert math.cos(basis.theta) == pytest.approx(0.99133, abs=1e-5)
        assert basis.phi == pytest.approx(1.02812, abs=1e-5)
        assert basis_value(state, basis) == pytest.approx(c_val, abs=1e-12)


class TestOracleAgreement:
    def test_random_complex_x_states(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            assert_matches_oracle(random_x_state(rng))

    @pytest.mark.parametrize(
        "proto",
        [QuenchProtocol.ising(g, tau) for g in (1.0, 0.3) for tau in (0.2, 3.0, 100.0)]
        + [QuenchProtocol.multicritical(tau) for tau in (1e2, 1e4)]
        + [QuenchProtocol.three_spin(j3, 50.0) for j3 in (0.2, 0.5, 0.8)],
        ids=lambda p: f"{p.kind.value}-tau{p.tau:g}-gamma{p.gamma}-j3{p.j3}",
    )
    def test_quench_states(self, proto):
        for n in (2, 4, 6):
            assert_matches_oracle(build_xstate(correlators(proto, n)))


class TestDiscord:
    def test_maximally_mixed(self):
        assert discord(build_xstate(MAXMIX)) == pytest.approx(0.0, abs=1e-12)
        dense = np.eye(4, dtype=complex) / 4.0
        assert oracle_discord(dense) == pytest.approx(0.0, abs=1e-12)

    def test_pure_product(self):
        assert discord(build_xstate(CorrelatorSet(0.0, 0.0, 1.0, 1.0))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_product_state_fuzz(self, rng):
        # discord vanishes for every product state; the general oracle must
        # reach C = I (both are zero here)
        for _ in range(100):
            rho = random_product_state(rng)
            assert oracle_discord(rho) <= 1e-8

    def test_bell_state(self):
        assert discord(build_xstate(BELL_PHI)) == pytest.approx(1.0, abs=1e-9)

    def test_classical_state_zero_discord(self):
        # diagonal in a product basis: all correlation is classical
        rho = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
        assert oracle_discord(rho) == pytest.approx(0.0, abs=1e-10)


class TestConcurrence:
    def test_maximally_mixed(self):
        assert concurrence_xstate(build_xstate(MAXMIX)) == 0.0

    def test_inner_bell_state(self):
        s = XStateDensityMatrix(a_plus=0.0, a_minus=0.0, a_zero=0.5, b1=0.0, b2=0.5)
        assert concurrence_xstate(s) == pytest.approx(1.0, abs=1e-15)
        assert concurrence_wootters(s.to_matrix()) == pytest.approx(1.0, abs=1e-9)

    def test_product_states_unentangled(self, rng):
        for _ in range(50):
            assert concurrence_wootters(random_product_state(rng)) <= 1e-9

    def test_werner_concurrence_law(self):
        bell = _bell_matrix()
        for a in np.linspace(0.0, 1.0, 21):
            rho = (1.0 - a) / 4.0 * np.eye(4, dtype=complex) + a * bell
            expected = max(0.0, (3.0 * a - 1.0) / 2.0)
            assert concurrence_wootters(rho) == pytest.approx(expected, abs=1e-9)

    def test_werner_threshold_exact(self):
        bell = _bell_matrix()
        rho = (2.0 / 3.0) / 4.0 * np.eye(4, dtype=complex) + (1.0 / 3.0) * bell
        assert concurrence_wootters(rho) == pytest.approx(0.0, abs=1e-9)

    def test_xstate_shortcut_matches_wootters(self, rng):
        for _ in range(1000):
            s = random_x_state(rng)
            assert concurrence_xstate(s) == pytest.approx(
                concurrence_wootters(s.to_matrix()), abs=1e-9
            )

    def test_scaling_coherences_down_never_raises_concurrence(self, rng):
        for _ in range(30):
            s = random_x_state(rng)
            values = [
                concurrence_xstate(
                    XStateDensityMatrix(
                        a_plus=s.a_plus,
                        a_minus=s.a_minus,
                        a_zero=s.a_zero,
                        b1=s.b1 * f,
                        b2=s.b2 * f,
                    )
                )
                for f in (1.0, 0.75, 0.5, 0.25, 0.0)
            ]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestTypesValidation:
    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            XStateDensityMatrix(a_plus=0.5, a_minus=0.5, a_zero=0.25)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            XStateDensityMatrix(a_plus=0.5, a_minus=0.5, a_zero=0.0, b2=0.3)
        with pytest.raises(ValueError):
            XStateDensityMatrix(a_plus=0.5, a_minus=0.25, a_zero=0.125, b1=0.49)

    def test_measurement_basis_ranges(self):
        with pytest.raises(ValueError):
            MeasurementBasis(-0.1, 0.0)
        with pytest.raises(ValueError):
            MeasurementBasis(0.5, 6.5)

    def test_report_invariants(self):
        basis = MeasurementBasis(0.0, 0.0)
        with pytest.raises(ValueError):
            CorrelationReport(
                mutual_information=1.0,
                classical_correlation=-0.2,
                discord=1.2,
                concurrence=0.0,
                argmax_basis=basis,
            )
        with pytest.raises(ValueError):
            CorrelationReport(
                mutual_information=1.0,
                classical_correlation=0.5,
                discord=0.5,
                concurrence=1.5,
                argmax_basis=basis,
            )

    def test_matrix_input_validation(self):
        with pytest.raises(ValueError):
            mutual_information(np.eye(3) / 3.0)
        with pytest.raises(ValueError):
            mutual_information(np.eye(4))  # trace 4

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_x_states_are_states(self, seed):
        s = random_x_state(np.random.default_rng(seed))
        eigs = np.linalg.eigvalsh(s.to_matrix())
        assert np.all(eigs >= -1e-12)
        assert np.trace(s.to_matrix()).real == pytest.approx(1.0, abs=1e-12)
        assert mutual_information(s) >= 0.0
