"""Excitation probabilities and their cosine moments against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from spinquench.kernels import (
    BetaSet,
    ProtocolKind,
    QuadratureError,
    QuenchProtocol,
    beta_n,
    compute_betas,
    defect_density,
    excitation_probability,
)


def riemann_beta(protocol: QuenchProtocol, n: int, points: int = 10**7) -> float:
    """Independent midpoint Riemann sum for beta_n (the quadrature oracle)."""
    k = (np.arange(points) + 0.5) * np.pi / points
    return float(np.mean(excitation_probability(protocol, k) * np.cos(n * k)))


class TestExcitationProbability:
    def test_ising_zero_momentum(self):
        assert excitation_probability(QuenchProtocol.ising(1.0, 5.0), 0.0) == 1.0

    def test_multicritical_band_edge(self):
        assert excitation_probability(QuenchProtocol.multicritical(7.0), np.pi) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_ising_midband(self):
        p = excitation_probability(QuenchProtocol.ising(1.0, 1.0), np.pi / 2.0)
        assert p == pytest.approx(math.exp(-math.pi), rel=1e-12)

    def test_three_spin_zero_momentum(self):
        assert excitation_probability(QuenchProtocol.three_spin(0.3, 2.0), 0.0) == 1.0

    def test_momentum_domain(self):
        with pytest.raises(ValueError):
            excitation_probability(QuenchProtocol.ising(1.0, 1.0), -0.5)
        with pytest.raises(ValueError):
            excitation_probability(QuenchProtocol.ising(1.0, 1.0), 4.0)

    @given(
        k=st.floats(0.0, math.pi),
        tau=st.floats(1e-6, 1e4),
        gamma=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_probability_range(self, k, tau, gamma):
        p = excitation_probability(QuenchProtocol.ising(gamma, tau), k)
        assert 0.0 <= p <= 1.0
        # p > 0 mathematically; exactly 0.0 only from exp underflow
        if p == 0.0:
            assert math.pi * tau * gamma**2 * math.sin(k) ** 2 > 700.0

    @given(k=st.floats(0.0, math.pi), tau=st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_ising_reflection_symmetry(self, k, tau):
        proto = QuenchProtocol.ising(1.0, tau)
        assert excitation_probability(proto, k) == pytest.approx(
            excitation_probability(proto, math.pi - k), rel=1e-12, abs=1e-300
        )

    @given(k=st.floats(0.01, math.pi - 0.01), tau=st.floats(0.1, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_tau(self, k, tau):
        proto_slow = QuenchProtocol.multicritical(2.0 * tau)
        proto_fast = QuenchProtocol.multicritical(tau)
        assert excitation_probability(proto_slow, k) <= excitation_probability(proto_fast, k)


class TestProtocolValidation:
    def test_negative_tau(self):
        with pytest.raises(ValueError):
            QuenchProtocol.ising(1.0, -1.0)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            QuenchProtocol.ising(0.0, 1.0)
        with pytest.raises(ValueError):
            QuenchProtocol.ising(1.5, 1.0)

    def test_j3_range(self):
        with pytest.raises(ValueError):
            QuenchProtocol.three_spin(-0.1, 1.0)

    def test_foreign_parameters_rejected(self):
        with pytest.raises(ValueError):
            QuenchProtocol(ProtocolKind.MULTICRITICAL, 1.0, gamma=0.5)
        with pytest.raises(ValueError):
            QuenchProtocol(ProtocolKind.ISING, 1.0, gamma=0.5, j3=0.2)


class TestBetaN:
    def test_sudden_limit_exact(self):
        proto = QuenchProtocol.ising(1.0, 0.0)
        assert beta_n(proto, 0) == 1.0
        assert beta_n(proto, 2) == 0.0

    def test_sudden_limit_small_tau(self):
        proto = QuenchProtocol.ising(1.0, 1e-12)
        assert beta_n(proto, 0) == pytest.approx(1.0, abs=1e-10)
        assert beta_n(proto, 2) == pytest.approx(0.0, abs=1e-10)

    def test_frozen_reference_value(self):
        # e^{-a/2} I_0(a/2) at a = pi, cross-computed with a 1e7-point
        # Riemann sum and the scaled Bessel series
        assert beta_n(QuenchProtocol.ising(1.0, 1.0), 0) == pytest.approx(
            0.357293821812, abs=1e-10
        )

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("n", [0, 2, 4, 6])
    def test_bessel_identity(self, tau, n):
        # (1/pi) int_0^pi e^{-a sin^2 k} cos(2mk) dk = e^{-a/2} I_m(a/2)
        a = math.pi * tau
        expected = float(ive(n // 2, a / 2.0))
        assert abs(beta_n(QuenchProtocol.ising(1.0, tau), n) - expected) < 1e-8

    @pytest.mark.parametrize("tau", [1e5, 1e6, 1e8])
    def test_bessel_identity_spike_regime(self, tau):
        # at large tau the integrand is two endpoint spikes of width
        # ~ tau^(-1/2)
        expected = float(ive(0, math.pi * tau / 2.0))
        got = beta_n(QuenchProtocol.ising(1.0, tau), 0)
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("tau", [1e6, 1e10])
    @pytest.mark.parametrize("n", [0, 6])
    def test_ising_spike_regime_riemann_oracle(self, tau, n):
        # independent of scipy's ive: tau = 1e10 is past the argument where
        # ive gives nan, so it checks the large-argument series
        proto = QuenchProtocol.ising(1.0, tau)
        assert abs(beta_n(proto, n) - riemann_beta(proto, n)) < 1e-12

    def test_extreme_tau_asymptote(self):
        # beyond the Bessel oracle's own range: beta_0 -> 1/(pi sqrt(tau))
        got = beta_n(QuenchProtocol.ising(1.0, 1e12), 0)
        assert got == pytest.approx(1.0 / (math.pi * 1e6), rel=1e-6)

    def test_saddle_point_asymptotic(self):
        # two gaussian saddles at k = 0, pi give beta_0 ~ 1/(pi gamma sqrt(tau))
        val = beta_n(QuenchProtocol.ising(1.0, 100.0), 0)
        assert val == pytest.approx(1.0 / (math.pi * 10.0), rel=0.1)

    @pytest.mark.parametrize(
        "protocol",
        [
            QuenchProtocol.ising(1.0, 1.0),
            QuenchProtocol.ising(0.5, 5.0),
            QuenchProtocol.multicritical(3.0),
            QuenchProtocol.three_spin(0.3, 2.0),
            QuenchProtocol.three_spin(0.8, 2.0),
        ],
        ids=["ising-1", "ising-g0.5", "mcp", "3spin-0.3", "3spin-0.8"],
    )
    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_riemann_oracle(self, protocol, n):
        assert abs(beta_n(protocol, n) - riemann_beta(protocol, n)) < 1e-8

    def test_riemann_oracle_sharp_interior_peak(self):
        # J3 > 1/2 puts a p_k = 1 peak inside (0, pi); the grid must
        # resolve it even at large tau
        proto = QuenchProtocol.three_spin(0.8, 1e4)
        assert abs(beta_n(proto, 0) - riemann_beta(proto, 0)) < 1e-8

    @pytest.mark.parametrize("tau", [1e6, 1e9])
    @pytest.mark.parametrize("j3", [None, 0.8, 1.0], ids=["mcp", "3spin-0.8", "3spin-1.0"])
    def test_no_false_convergence_at_large_tau(self, j3, tau):
        # a grid much coarser than the k = 0 or k = pi spike gives the same
        # wrong value at M and M/2; tau = 1e9 is the edge of the served range
        if j3 is None:
            proto = QuenchProtocol.multicritical(tau)
        else:
            proto = QuenchProtocol.three_spin(j3, tau)
        assert abs(beta_n(proto, 0) - riemann_beta(proto, 0)) < 1e-12

    def test_past_the_node_cap_raises(self):
        with pytest.raises(QuadratureError) as info:
            beta_n(QuenchProtocol.multicritical(1e14), 0)
        # the estimate misses at most the k = 0 spike, of mass 1/(4 pi 1e7)
        assert 1e-3 < info.value.estimate < 2e-3
        assert info.value.error_bound >= 1.0 / (4.0 * math.pi * 1e7)

    def test_odd_n_computed_not_assumed(self):
        # Ising p_k is k -> pi - k symmetric so odd moments vanish; the
        # multicritical sweep lacks that symmetry
        assert abs(beta_n(QuenchProtocol.ising(1.0, 2.0), 1)) < 1e-10
        assert abs(beta_n(QuenchProtocol.multicritical(2.0), 1)) > 1e-3

    def test_invalid_inputs(self):
        proto = QuenchProtocol.ising(1.0, 1.0)
        with pytest.raises(ValueError):
            beta_n(proto, -2)

    @given(tau=st.floats(1e-3, 1e3), n=st.sampled_from([0, 2, 4, 6]))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_beta0(self, tau, n):
        proto = QuenchProtocol.multicritical(tau)
        b0 = beta_n(proto, 0)
        assert 0.0 <= b0 <= 1.0 + 1e-12
        assert abs(beta_n(proto, n)) <= b0 + 1e-10


class TestComputeBetas:
    def test_betaset_contents(self):
        betas = compute_betas(QuenchProtocol.ising(1.0, 2.0), n_max=6)
        assert set(betas.values) == {0, 2, 4, 6}
        assert betas[0] == beta_n(QuenchProtocol.ising(1.0, 2.0), 0)

    def test_betaset_validation(self):
        with pytest.raises(ValueError):
            BetaSet(n_max=3, values={0: 0.5, 2: 0.1})
        with pytest.raises(ValueError):
            BetaSet(n_max=2, values={0: 0.1, 2: 0.5})
        with pytest.raises(ValueError):
            BetaSet(n_max=2, values={0: 1.2, 2: 0.1})


class TestDefectDensity:
    def test_sudden_limit(self):
        assert defect_density(QuenchProtocol.ising(1.0, 1e-12)) == pytest.approx(1.0, abs=1e-9)

    def test_equals_beta0(self):
        proto = QuenchProtocol.three_spin(0.4, 3.0)
        assert defect_density(proto) == beta_n(proto, 0)


def test_quadrature_error_carries_diagnostics():
    err = QuadratureError("no convergence", estimate=0.5, error_bound=1e-3)
    assert err.estimate == 0.5
    assert err.error_bound == 1e-3
    assert "0.5" in str(err)
