"""Correlator assembly and the closed-form cross-checks.

The printed closed-form classical correlation equals the transverse-basis
conditional value exactly, and conftest.closed_form_C_polar_n2 equals the
polar-basis one; the tests below check both by a second route.  The
optimizing pipeline finds the polar basis whenever it is better, which for
these states is everywhere away from beta_0 = 1/2; the acceptance suite
(criterion 3) checks that it returns the larger of the two axis values.

The n = 2, 4, 6 correlators c1 are the Toeplitz determinants of
G_r = 2 beta_r - delta_r0 (odd moments zero) times one common constant;
TestCorrelators checks that ratio with numpy's determinant.
"""

import math

import numpy as np
import pytest

from spinquench.kernels import QuenchProtocol, compute_betas
from spinquench.quench import (
    closed_form_C_n2,
    closed_form_I_n2,
    correlators,
    measures,
)
from spinquench.xstate import (
    build_xstate,
    conditional_entropy,
    mutual_information,
    subsystem_entropy,
)
from conftest import closed_form_C_polar_n2
from test_kernels import riemann_beta


class TestCorrelators:
    def test_sudden_limit_pure_down(self):
        c = correlators(QuenchProtocol.ising(1.0, 0.0), 2)
        assert (c.c4, c.c3, c.c1, c.c2) == (-1.0, 1.0, 0.0, 0.0)
        state = build_xstate(c)
        assert state.a_minus == 1.0

    def test_adiabatic_limit_pure_up(self):
        c = correlators(QuenchProtocol.ising(1.0, 1e9), 2)
        assert c.c4 == pytest.approx(1.0, abs=1e-4)
        assert build_xstate(c).a_plus == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_riemann_beta_composition(self, n):
        proto = QuenchProtocol.ising(1.0, 5.0)
        c = correlators(proto, n)
        b = {m: riemann_beta(proto, m, points=10**6) for m in (0, 2, 4, 6)}
        mfac = 1.0 - 2.0 * b[0]
        assert c.c4 == pytest.approx(mfac, abs=1e-8)
        assert c.c3 == pytest.approx(mfac**2 - 4.0 * b[n] ** 2, abs=1e-8)
        if n == 2:
            expected_c1 = 0.5 * b[2] * mfac
        elif n == 4:
            expected_c1 = (
                mfac**2 * b[2] ** 2
                - 4.0 * b[2] ** 4
                + 0.5 * b[4] * mfac**3
                - 2.0 * b[2] ** 2 * b[4] * mfac
            )
        else:
            expected_c1 = (
                -0.5
                * (2.0 * b[4] + mfac)
                * (8.0 * b[2] ** 2 + 2.0 * b[4] * mfac - mfac**2)
                * (
                    4.0 * b[2] ** 3
                    - 4.0 * b[2] ** 2 * b[6]
                    + 4.0 * b[2] * b[4] ** 2
                    + 4.0 * b[2] * b[4] * mfac
                    + b[6] * mfac**2
                )
            )
        assert c.c1 == pytest.approx(expected_c1, abs=1e-8)
        assert c.c1 == c.c2

    @pytest.mark.parametrize("tau", [0.3, 1.0, 5.0, 50.0, 500.0])
    def test_c1_is_one_constant_times_toeplitz_determinant(self, tau):
        # G_r = 2 beta_r - delta_r0 with beta_odd = 0; the n x n matrix
        # G_{i-j+1} is numpy's oracle for every separation at once, so a
        # slip in one branch shows as a ratio that differs from the others
        proto = QuenchProtocol.ising(1.0, tau)
        betas = compute_betas(proto, 6)

        def g(r):
            return 2.0 * betas[abs(r)] - (r == 0) if r % 2 == 0 else 0.0

        ratios = []
        for n in (2, 4, 6):
            toeplitz = np.array([[g(i - j + 1) for j in range(n)] for i in range(n)])
            ratios.append(correlators(proto, n).c1 / np.linalg.det(toeplitz))
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)
        assert ratios[2] == pytest.approx(ratios[0], rel=1e-9)

    def test_separation_validated(self):
        with pytest.raises(ValueError):
            correlators(QuenchProtocol.ising(1.0, 1.0), 3)
        with pytest.raises(ValueError):
            measures(QuenchProtocol.ising(1.0, 1.0), 8)


class TestClosedFormI:
    def test_maximally_mixed_point(self):
        # beta_0 = 1/2, beta_2 = 0 gives the maximally mixed state
        assert closed_form_I_n2(0.5, 0.0) == pytest.approx(0.0, abs=1e-14)
        rho = build_xstate(correlators(QuenchProtocol.ising(1.0, 0.0), 2))
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-14)

    def test_adiabatic_limit(self):
        assert closed_form_I_n2(0.0, 0.0) == 0.0
        assert closed_form_I_n2(1e-9, 0.5e-9) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0])
    def test_matches_pipeline_mutual_information(self, tau):
        proto = QuenchProtocol.ising(1.0, tau)
        betas = compute_betas(proto, 2)
        rho = build_xstate(correlators(proto, 2))
        assert closed_form_I_n2(betas[0], betas[2]) == pytest.approx(
            mutual_information(rho), abs=1e-6
        )

    def test_invalid_beta_pair(self):
        with pytest.raises(ValueError):
            closed_form_I_n2(0.3, 0.4)
        with pytest.raises(ValueError):
            closed_form_I_n2(1.2, 0.0)


class TestClosedFormC:
    def test_uncorrelated_points(self):
        assert closed_form_C_n2(0.5, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert closed_form_C_n2(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0])
    def test_equals_transverse_basis_value(self, tau):
        # dual-route check: the printed expression is exactly the
        # equatorial-measurement conditional value
        proto = QuenchProtocol.ising(1.0, tau)
        betas = compute_betas(proto, 2)
        c = correlators(proto, 2)
        rho = build_xstate(c).to_matrix()
        transverse = subsystem_entropy(c.c4) - conditional_entropy(rho, math.pi / 2.0, 0.0)
        assert closed_form_C_n2(betas[0], betas[2]) == pytest.approx(transverse, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0])
    def test_polar_form_equals_polar_basis_value(self, tau):
        # dual-route check of the polar companion: the z-axis measurement
        # conditional value from the density matrix
        proto = QuenchProtocol.ising(1.0, tau)
        betas = compute_betas(proto, 2)
        c = correlators(proto, 2)
        rho = build_xstate(c).to_matrix()
        polar = subsystem_entropy(c.c4) - conditional_entropy(rho, 0.0, 0.0)
        assert closed_form_C_polar_n2(betas[0], betas[2]) == pytest.approx(polar, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0])
    def test_optimized_pipeline_dominates_closed_form(self, tau):
        # the polar measurement extracts strictly more information than the
        # transverse one whenever beta_0 != 1/2, so the optimizing pipeline
        # exceeds the closed form (they are NOT equal; see module docstring)
        proto = QuenchProtocol.ising(1.0, tau)
        betas = compute_betas(proto, 2)
        rep = measures(proto, 2)
        assert rep.classical_correlation >= closed_form_C_n2(betas[0], betas[2]) - 1e-9

    def test_strictly_better_at_tau_5(self):
        proto = QuenchProtocol.ising(1.0, 5.0)
        betas = compute_betas(proto, 2)
        rep = measures(proto, 2)
        assert rep.classical_correlation > 10.0 * closed_form_C_n2(betas[0], betas[2])


class TestMeasures:
    def test_sudden_limit_uncorrelated(self):
        rep = measures(QuenchProtocol.ising(1.0, 1e-12), 2)
        assert rep.discord <= 1e-8
        assert rep.concurrence <= 1e-12

    def test_adiabatic_limit_decays_to_zero(self):
        # residual correlations scale with beta ~ tau^(-1/2): small and falling
        rep7 = measures(QuenchProtocol.ising(1.0, 1e7), 2)
        rep9 = measures(QuenchProtocol.ising(1.0, 1e9), 2)
        assert rep9.discord < rep7.discord < 1e-4
        assert rep9.concurrence < rep7.concurrence < 1e-4

    def test_report_invariants(self):
        rep = measures(QuenchProtocol.ising(1.0, 5.0), 2)
        assert rep.mutual_information >= rep.classical_correlation >= 0.0
        assert rep.discord >= 0.0
        assert 0.0 <= rep.concurrence <= 1.0

    def test_discord_zero_at_classical_point(self):
        # where beta_0 crosses 1/2 the state is diagonal in the z product
        # basis, so its discord vanishes identically
        from scipy.optimize import brentq
        from spinquench.kernels import defect_density
        import dataclasses

        proto = QuenchProtocol.ising(1.0, 1.0)
        tau_c = brentq(
            lambda t: defect_density(dataclasses.replace(proto, tau=t)) - 0.5, 0.1, 2.0
        )
        rep = measures(dataclasses.replace(proto, tau=tau_c), 2)
        assert rep.discord <= 1e-7
        assert rep.mutual_information > 1e-3  # correlated, but classically

    def test_three_spin_reduces_to_ising(self):
        for tau in (0.5, 5.0):
            a = measures(QuenchProtocol.three_spin(0.0, tau), 2)
            b = measures(QuenchProtocol.ising(1.0, tau), 2)
            assert a.mutual_information == pytest.approx(b.mutual_information, abs=1e-12)
            assert a.classical_correlation == pytest.approx(b.classical_correlation, abs=1e-10)
            assert a.discord == pytest.approx(b.discord, abs=1e-10)
            assert a.concurrence == pytest.approx(b.concurrence, abs=1e-12)

    def test_concurrence_threshold_with_positive_discord(self):
        # small tau: no entanglement yet the state carries discord
        rep_small = measures(QuenchProtocol.ising(1.0, 0.2), 2)
        assert rep_small.concurrence == 0.0
        assert rep_small.discord > 1e-4
        rep_large = measures(QuenchProtocol.ising(1.0, 50.0), 2)
        assert rep_large.concurrence > 0.0
