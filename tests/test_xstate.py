"""X-state measures against dense linear-algebra oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NEGATIVE_EIGENVALUE,
    POLARIZATION_OVERSHOOT,
    assert_matches_oracle,
    basis_value,
    basis_vectors,
    conditional_state,
    correlator_eigenvalues,
    dense_mutual_information,
    oracle_classical_correlation,
    oracle_discord,
    random_product_state,
    random_x_state,
    von_neumann_entropy,
)
from spinquench import xstate
from spinquench.kernels import QuenchProtocol, moment_table
from spinquench.quench import correlators, measure_state, states_from_moments
from spinquench.xstate import (
    CorrelationReport,
    CorrelatorSet,
    MeasurementBasis,
    XStateBatch,
    XStateDensityMatrix,
    build_xstate,
    build_xstates,
    classical_correlation,
    concurrence_wootters,
    concurrence_xstate,
    conditional_entropy,
    correlations,
    discord,
    mutual_information,
    subsystem_entropy,
)

MAXMIX = CorrelatorSet(0.0, 0.0, 0.0, 0.0)
BELL_PHI = CorrelatorSet(c1=1.0, c2=-1.0, c3=1.0, c4=0.0)  # (|uu> + |dd>)/sqrt 2
# draw 8822 of random_x_state(default_rng(7)): the optimum lies inside (0, 1)
# in cos(theta), next to the polar axis
INTERIOR_OPTIMUM = XStateDensityMatrix(
    a_plus=0.6296309423983517,
    a_minus=0.16474426073926177,
    a_zero=0.10281239843119325,
    b1=0.062156823057212436 + 0.1835055160146407j,
    b2=-0.021990267891769104 - 0.0035230190118743913j,
)


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
        assert np.allclose(correlator_eigenvalues(MAXMIX), 0.25)

    def test_polarized_half(self):
        # c4 = 1/2, all else zero: (1/4)[1 +- sqrt(4 c4^2)] and (1/4)[1 +- 0]
        eigs = correlator_eigenvalues(CorrelatorSet(0.0, 0.0, 0.0, 0.5))
        assert np.allclose(np.sort(eigs), [0.0, 0.25, 0.25, 0.5], atol=1e-15)

    def test_random_states_match_dense_solver(self, rng):
        for _ in range(50):
            s = random_x_state(rng)
            dense = np.sort(np.linalg.eigvalsh(s.to_matrix()))
            assert np.allclose(np.sort(s.eigenvalues()), dense, atol=1e-12)

    def test_correlator_form_matches_dense_solver(self, rng):
        # quenched-family correlator sets exercise the printed expressions
        for tau in (0.3, 1.0, 4.0):
            c = correlators(QuenchProtocol.ising(1.0, tau), 2)
            dense = np.sort(np.linalg.eigvalsh(build_xstate(c).to_matrix()))
            assert np.allclose(np.sort(correlator_eigenvalues(c)), dense, atol=1e-12)


class TestEntropies:
    def test_subsystem_entropy_values(self):
        assert subsystem_entropy(0.0) == 1.0
        assert subsystem_entropy(1.0) == 0.0
        assert subsystem_entropy(-1.0) == 0.0
        assert subsystem_entropy(0.5) == pytest.approx(0.8112781244591328, abs=1e-14)

    def test_pure_polarization_entropy_is_positive_zero(self):
        # -0.0 == 0.0, so the sign is read: the CLI prints it as -0.00000000000e+00
        for value in (subsystem_entropy(1.0), subsystem_entropy(-1.0),
                      classical_correlation(XStateDensityMatrix(1.0, 0.0, 0.0))[0]):
            assert math.copysign(1.0, value) == 1.0

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
        assert dense_mutual_information(_bell_matrix()) == pytest.approx(2.0, abs=1e-12)


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
            w_plus, w_minus = basis_vectors(basis)
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
        with pytest.raises(ValueError):
            mutual_information(_bell_matrix())

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
        state = INTERIOR_OPTIMUM
        c_val, basis = classical_correlation(state)
        assert c_val >= 0.152186158675 - 1e-12
        assert math.cos(basis.theta) == pytest.approx(0.99133, abs=1e-5)
        assert basis.phi == pytest.approx(1.02812, abs=1e-5)
        assert basis_value(state, basis) == pytest.approx(c_val, abs=1e-12)


def mixed_batch() -> list[XStateDensityMatrix]:
    """Quench states of every protocol and separation, limits, degenerate and
    random states, and one interior optimum, in one list."""
    states = [
        build_xstate(correlators(proto, n))
        for proto in (
            QuenchProtocol.ising(1.0, 5.0),
            QuenchProtocol.multicritical(300.0),
            QuenchProtocol.three_spin(0.5, 50.0),
        )
        for n in (2, 4, 6)
    ]
    states += [build_xstate(correlators(QuenchProtocol.ising(1.0, t), 2)) for t in (0.0, 1e9)]
    states += [
        XStateDensityMatrix(a_plus=0.5, a_minus=0.2, a_zero=0.15),  # b1 = b2 = 0
        XStateDensityMatrix(a_plus=0.3, a_minus=0.3, a_zero=0.2, b1=0.1j, b2=-0.05),  # z = 0
        build_xstate(MAXMIX),
        INTERIOR_OPTIMUM,
    ]
    rng = np.random.default_rng(13)
    states += [random_x_state(rng) for _ in range(50)]
    return states


def loop_best_cos_theta(state) -> tuple[float, float]:
    """The cos(theta) search written for one state: grid samples, every local
    minimum zoomed over the rounds, the first minimum in the order grid,
    rounds, brackets, samples, and the endpoint rule."""
    z = state.a_plus - state.a_minus
    zz = state.a_plus + state.a_minus - 2.0 * state.a_zero
    t = 2.0 * (abs(state.b1) + abs(state.b2))
    grid = xstate._COS_GRID
    grid_vals = xstate._polar_entropies(z, zz, t, grid)
    cs, vals = [grid], [grid_vals]
    for k in range(len(grid)):
        if (k > 0 and grid_vals[k] > grid_vals[k - 1]) or (
            k < len(grid) - 1 and grid_vals[k] > grid_vals[k + 1]
        ):
            continue
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        for r in range(xstate._ZOOM_ROUNDS):
            pts = lo + (hi - lo) * xstate._ZOOM
            pv = xstate._polar_entropies(z, zz, t, pts)
            j = int(np.argmin(pv))
            lo, hi = pts[max(j - 1, 0)], pts[min(j + 1, len(pts) - 1)]
            cs.append((r, k, pts))
            vals.append((r, k, pv))
    # order the zoom samples by round, then bracket
    zoom = sorted(range(1, len(cs)), key=lambda i: cs[i][:2])
    all_c = np.concatenate([grid] + [cs[i][2] for i in zoom])
    all_v = np.concatenate([grid_vals] + [vals[i][2] for i in zoom])
    best = int(np.argmin(all_v))
    end = 0 if grid_vals[0] <= grid_vals[-1] else -1
    if all_v[best] < grid_vals[end] - xstate._ROUNDOFF:
        return float(all_c[best]), float(all_v[best])
    return float(grid[end]), float(grid_vals[end])


KEYS = ("I", "C", "Q", "Cnc", "theta", "phi")


def rows(got) -> np.ndarray:
    """The six arrays of `correlations`, one row per state."""
    return np.column_stack([got[key] for key in KEYS])


def same_bits(a, b) -> bool:
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


class TestBatchInvariance:
    """A state's result depends on that state alone, bit for bit."""

    def test_batch_equals_batches_of_one(self):
        states = mixed_batch()
        got = rows(correlations(states))
        for k, state in enumerate(states):
            assert same_bits(got[k], rows(correlations([state]))[0]), k
            c_val, basis = classical_correlation(state)
            # the single-state C is the search's own; correlations clamps it to I
            assert same_bits((min(c_val, got[k, 0]), basis.theta, basis.phi), got[k, [1, 4, 5]]), k

    def test_batch_exercises_an_interior_bracket(self):
        states = mixed_batch()
        theta = correlations(states)["theta"]
        c = np.cos(theta[states.index(INTERIOR_OPTIMUM)])
        assert 0.99 < c < 0.999

    def test_nan_row_and_order_move_no_other_row(self):
        states = mixed_batch()
        nan_state = XStateDensityMatrix(a_plus=math.nan, a_minus=0.25, a_zero=0.25)
        got = rows(correlations(states))
        with_nan = rows(correlations(states[:7] + [nan_state] + states[7:]))
        assert same_bits(np.delete(with_nan, 7, axis=0), got)
        assert same_bits(with_nan[7], rows(correlations([nan_state]))[0])
        assert same_bits(rows(correlations(states[::-1]))[::-1], got)

    def test_batch_matches_the_search_written_per_state(self):
        rng = np.random.default_rng(17)
        states = mixed_batch() + [random_x_state(rng) for _ in range(300)]
        got = correlations(states)
        for k, state in enumerate(states):
            c_best, s_min = loop_best_cos_theta(state)
            c_val = max(subsystem_entropy(state.a_plus - state.a_minus) - s_min, 0.0)
            assert same_bits(got["theta"][k], math.acos(c_best)), k
            assert same_bits(classical_correlation(state)[0], c_val), k
            assert same_bits(got["C"][k], min(c_val, got["I"][k])), k

    def test_correlations_equal_batches_of_one_and_the_report(self):
        states = mixed_batch()
        got = correlations(states)
        assert set(got) == set(KEYS)
        for k, state in enumerate(states):
            alone = correlations([state])
            assert same_bits([got[key][k] for key in KEYS], [alone[key][0] for key in KEYS]), k
            rep = measure_state(state)
            report = (
                rep.mutual_information, rep.classical_correlation, rep.discord,
                rep.concurrence, rep.argmax_basis.theta, rep.argmax_basis.phi,
            )
            assert same_bits([got[key][k] for key in KEYS], report), k
            assert same_bits(got["Q"][k], discord(state)), k

    def test_empty_batch(self):
        got = correlations([])
        assert all(got[key].shape == (0,) for key in KEYS)

    def test_polar_entropies_equal_the_two_pass_form(self):
        # both outcomes in one pass sum as 0 + (+1) + (-1), as two passes do,
        # and the masked x log2 x equals the np.where form: bit for bit on
        # random states, pure polarizations z = +-1, t = 0, and eigenvalue
        # arguments that round below 0
        def xlog2(x):
            return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)

        def two_pass(z, zz, t, c):
            transverse = t * t * (1.0 - c * c)
            total, low = 0.0, []
            for sign in (1.0, -1.0):
                p = 0.5 * (1.0 + sign * z * c)
                half = 0.25 * np.sqrt((z + sign * zz * c) ** 2 + transverse)
                total = total + (-xlog2(0.5 * p + half) - xlog2(0.5 * p - half) + xlog2(p))
                low.append(0.5 * p - half)
            return total, min(np.min(v) for v in low)

        rng = np.random.default_rng(23)
        states = mixed_batch() + [random_x_state(rng) for _ in range(500)]
        # pure states cos a |uu> + sin a |dd>: their conditional states are
        # pure, and the smaller eigenvalue rounds to either side of 0
        a = rng.uniform(0.0, np.pi / 2.0, 100)
        z = np.concatenate([[s.a_plus - s.a_minus for s in states], np.cos(2.0 * a),
                            [1.0, -1.0, 0.3]])
        zz = np.concatenate([[s.a_plus + s.a_minus - 2.0 * s.a_zero for s in states],
                             np.ones(100), [1.0, 1.0, 0.1]])
        t = np.concatenate([[2.0 * (abs(s.b1) + abs(s.b2)) for s in states], np.sin(2.0 * a),
                            [0.0, 0.0, 0.0]])
        z, zz, t = z[:, None], zz[:, None], t[:, None]
        zoom = rng.uniform(0.0, 1.0, (len(z), 1)) + np.linspace(0.0, 1e-3, 17)
        for c in (xstate._COS_GRID, np.clip(zoom, 0.0, 1.0)):
            want, lowest = two_pass(z, zz, t, c)
            assert lowest < 0.0  # an argument _xlog2 must read as 0
            assert xstate._polar_entropies(z, zz, t, c).tobytes() == want.tobytes()

    def test_quench_batch_reads_as_its_list_of_states(self):
        # b1 = 0 and a real b2: the batch's numpy read equals the libm read
        # of the same states one by one, bit for bit
        protos = [QuenchProtocol.ising(1.0, t) for t in (0.0, 0.3, 5.0, 400.0, 1e8)]
        protos += [QuenchProtocol.multicritical(t) for t in (0.7, 300.0, 1e5)]
        protos += [QuenchProtocol.three_spin(j3, 50.0) for j3 in (0.5, 0.8, 1.5)]
        table = moment_table(protos, (0, 2, 4, 6))
        for n in (2, 4, 6):
            batch, failed = states_from_moments(table, n)
            assert failed == {}
            listed = [
                XStateDensityMatrix(*(float(getattr(batch, k)[i]) for k in
                                      ("a_plus", "a_minus", "a_zero")),
                                    b1=complex(batch.b1[i]), b2=complex(batch.b2[i]))
                for i in range(len(protos))
            ]
            got, want = correlations(batch), correlations(listed)
            assert same_bits([got[key] for key in KEYS], [want[key] for key in KEYS]), n


class TestBuildXStates:
    """The batch applies the one-state rules as masks, in their order: a row
    that breaks one fails alone with the one-state message, and the other
    rows keep their bits."""

    @staticmethod
    def build_with(row):
        # rows 0 and 2 are valid quench-like correlators, row 1 is given
        cs = np.array([(0.1, 0.1, 0.2, 0.3), row, (-0.05, -0.05, 0.5, -0.2)]).T
        return build_xstates(*cs)

    @pytest.mark.parametrize("row, message", [
        ((1.5, 1.5, 0.0, 0.0), "c1 = 1.5 outside [-1, 1]"),
        ((0.0, 0.0, -1.0, 3.9e-10),
         f"correlators give a_minus = {(1.0 + -1.0 - 2.0 * 3.9e-10) / 4.0}; not a density matrix"),
        ((0.0, 0.0, -1.0 - 3.6e-10, 0.0),
         f"trace = {0.0 + 0.0 + 2.0 * ((1.0 + 1.0 + 3.6e-10) / 4.0)}, expected 1"),
        ((0.5, -0.5, -0.9, 0.0), "positivity violated: |b1| > sqrt(a_plus a_minus)"),
        ((0.5, 0.5, 0.9, 0.0), "positivity violated: |b2| > a_zero"),
    ], ids=["correlator_range", "clamp", "trace", "b1_positivity", "b2_positivity"])
    def test_row_breaking_a_rule_fails_alone(self, row, message):
        x, failed = self.build_with(row)
        assert failed == {1: message}
        with pytest.raises(ValueError) as exc:
            build_xstate(CorrelatorSet(*row))
        assert str(exc.value) == message
        clean, _ = self.build_with((0.0, 0.0, 0.0, 0.0))
        for name in ("a_plus", "a_minus", "a_zero", "b1", "b2"):
            got, want = getattr(x, name), getattr(clean, name)
            assert np.isnan(got[1]), name
            assert got[[0, 2]].tobytes() == want[[0, 2]].tobytes(), name

    def test_first_broken_rule_names_the_row(self):
        # c1 out of range and a population below the clamp: the range check
        # comes first, as in CorrelatorSet before build_xstate
        _, failed = self.build_with((1.5, 1.5, -1.0, 3.9e-10))
        assert failed == {1: "c1 = 1.5 outside [-1, 1]"}

    def test_state_masks_give_the_constructors_verdicts(self):
        # XStateDensityMatrix runs _state_failures on its batch of one: a state
        # in a batch fails with the message it gets alone, or passes, either way
        rng = np.random.default_rng(5)
        rows = [(0.3, 0.3, 0.2, 0.0, 0.2 + 2e-9), (0.5, 0.5, 0.0, 0.0, 0.0),
                (0.5, 0.3, -1e-11, 0.0, 0.0), (0.6, 0.4, -2e-12, 0.0, 0.0),
                (0.25, 0.25, 0.25, 0.3, 0.0), (1.0 + 5e-11, 0.0, 0.0, 0.0, 0.0)]
        for _ in range(200):
            w = rng.dirichlet(np.ones(3))
            rows.append((w[0], w[1], w[2] / 2.0, rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3)))
        got = xstate._state_failures(XStateBatch(*np.array(rows).T))
        for i, row in enumerate(rows):
            try:
                XStateDensityMatrix(*row)
                want = None
            except ValueError as exc:
                want = str(exc)
            assert got.get(i) == want, row
        assert 0 < len(got) < len(rows)


def mutual_information_per_state(state) -> float:
    """The X-state mutual information written for one state."""
    joint = xstate._entropy_bits(state.eigenvalues())
    return max(2.0 * subsystem_entropy(state.a_plus - state.a_minus) - joint, 0.0)


def concurrence_per_state(state) -> float:
    """The X-state concurrence closed form written for one state."""
    inner = 2.0 * (abs(state.b2) - math.sqrt(max(state.a_plus * state.a_minus, 0.0)))
    return max(0.0, inner, 2.0 * (abs(state.b1) - state.a_zero))


class TestBatchedClosedForms:
    """Mutual information and concurrence of a batch in one array pass, each
    entry bit for bit the per-state value, and one failure rule for I, C, Q."""

    def states(self):
        rng = np.random.default_rng(23)
        return mixed_batch() + [random_x_state(rng) for _ in range(2000)]

    def test_mutual_informations_equal_the_per_state_formula(self):
        states = self.states()
        got = correlations(states)["I"]
        assert same_bits(got, [mutual_information_per_state(s) for s in states])
        assert same_bits(got, [mutual_information(s) for s in states])

    def test_concurrences_equal_the_per_state_formula(self):
        states = self.states()
        got = correlations(states)["Cnc"]
        assert same_bits(got, [concurrence_per_state(s) for s in states])
        assert same_bits(got, [concurrence_xstate(s) for s in states])

    def test_negative_eigenvalue_fails_only_its_own_entry(self):
        states = mixed_batch()
        got = correlations(states[:5] + [NEGATIVE_EIGENVALUE] + states[5:])["I"]
        assert np.isnan(got[5])
        assert same_bits(np.delete(got, 5), correlations(states)["I"])
        with pytest.raises(ValueError, match="eigenvalue below"):
            mutual_information(NEGATIVE_EIGENVALUE)

    def test_negative_eigenvalue_is_nan_in_i_c_q_only(self):
        self.assert_nan_in_i_c_q_only(NEGATIVE_EIGENVALUE, "eigenvalue below")

    def test_polarization_beyond_one_is_nan_in_i_c_q_only(self):
        # |z| > 1 passes the constructor but not the failure rule, alone and
        # with a_minus = -1e-12 (an eigenvalue of -1.00009e-12); the rest of
        # the batch keeps its values
        # the error names the part of the rule that fired: here the
        # polarization alone, then both parts
        self.assert_nan_in_i_c_q_only(POLARIZATION_OVERSHOOT, "^the polarization")
        self.assert_nan_in_i_c_q_only(
            XStateDensityMatrix(a_plus=1.0 + 5e-11, a_minus=-1e-12, a_zero=0.0),
            "eigenvalue below .*; the polarization",
        )

    def assert_nan_in_i_c_q_only(self, bad, match):
        states = mixed_batch()
        middle = len(states) // 2
        got = correlations(states[:middle] + [bad] + states[middle:])
        clean, alone = correlations(states), correlations([bad])
        for key in KEYS:
            assert same_bits(np.delete(got[key], middle), clean[key]), key
            assert same_bits(got[key][middle], alone[key][0]), key
            assert np.isnan(got[key][middle]) == (key in ("I", "C", "Q")), key
        for single in (mutual_information, classical_correlation, concurrence_xstate, discord):
            with pytest.raises(ValueError, match=match):
                single(bad)
        assert xstate.failure(states[0]) is None

    def test_c_above_i_raises_and_roundoff_is_clamped(self, monkeypatch):
        # an optimizer that overshoots I by more than 1e-9 is a bug; an
        # overshoot below it is roundoff, clamped to C = I and Q = 0
        states = mixed_batch()
        i_vals = correlations(states)["I"]
        real = xstate._classical

        def overshoot(by):
            def patched(fields):
                value, theta = real(fields)
                value = value.copy()
                value[3] = i_vals[3] + by
                return value, theta
            return patched

        monkeypatch.setattr(xstate, "_classical", overshoot(2e-9))
        with pytest.raises(RuntimeError, match="state 3: optimizer produced C > I"):
            correlations(states)
        monkeypatch.setattr(xstate, "_classical", overshoot(5e-10))
        got = correlations(states)
        assert got["C"][3] == got["I"][3] == i_vals[3]
        assert got["Q"][3] == 0.0

    def test_empty_batch(self):
        fields = xstate._fields([])
        assert fields["eigs"].shape == (0, 4)
        assert xstate._mutual(fields).shape == xstate._concurrence(fields).shape == (0,)

    def test_dense_input_rejected(self):
        with pytest.raises(ValueError):
            correlations([_bell_matrix()])
        for single in (mutual_information, classical_correlation, concurrence_xstate, discord):
            with pytest.raises(ValueError):
                single(_bell_matrix())


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
        for bad in (np.eye(3) / 3.0, np.eye(4)):  # wrong shape, trace 4
            with pytest.raises(ValueError):
                mutual_information(bad)
            with pytest.raises(ValueError):
                concurrence_wootters(bad)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_x_states_are_states(self, seed):
        s = random_x_state(np.random.default_rng(seed))
        eigs = np.linalg.eigvalsh(s.to_matrix())
        assert np.all(eigs >= -1e-12)
        assert np.trace(s.to_matrix()).real == pytest.approx(1.0, abs=1e-12)
        assert mutual_information(s) >= 0.0
