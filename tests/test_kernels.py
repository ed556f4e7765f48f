"""Excitation probabilities and their cosine moments against independent oracles.

The program computes every moment with its own midpoint rule or, for Ising
rows far on the adiabatic side, the large-argument Bessel series; scipy's
`ive` is used here only as an oracle for both.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

import spinquench.kernels as kernels
from spinquench.kernels import (
    MomentTable,
    ProtocolKind,
    QuadratureError,
    QuenchProtocol,
    beta_n,
    compute_betas,
    defect_density,
    moment_table,
)
from conftest import excitation_probability


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
        # (1/pi) int_0^pi e^{-a sin^2 k} cos(2mk) dk = e^{-a/2} I_m(a/2): the
        # program's midpoint rule against scipy's ive
        a = math.pi * tau
        expected = float(ive(n // 2, a / 2.0))
        assert abs(beta_n(QuenchProtocol.ising(1.0, tau), n) - expected) < 1e-8

    @pytest.mark.parametrize("tau", [1e5, 1e6, 1e8])
    def test_bessel_identity_spike_regime(self, tau):
        # at large tau the integrand is two endpoint spikes of width
        # ~ tau^(-1/2); the program's large-argument series against ive
        expected = float(ive(0, math.pi * tau / 2.0))
        got = beta_n(QuenchProtocol.ising(1.0, tau), 0)
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("tau", [1e6, 1e10])
    @pytest.mark.parametrize("n", [0, 6])
    def test_ising_spike_regime_riemann_oracle(self, tau, n):
        # independent of scipy's ive: tau = 1e10 is past the argument where
        # ive gives nan; both taus take the large-argument series
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
        assert set(betas) == {0, 2, 4, 6}
        assert betas[0] == beta_n(QuenchProtocol.ising(1.0, 2.0), 0)

    def test_betaset_validation(self):
        with pytest.raises(ValueError, match="even"):
            compute_betas(QuenchProtocol.ising(1.0, 2.0), n_max=3)

        def table_row(b0, b2):
            proto = QuenchProtocol.ising(1.0, 2.0)
            return MomentTable((proto,), (0, 2), np.array([[b0, b2]]), np.zeros((1, 2)), (0,),
                               (proto.tau,))

        assert table_row(0.5, 0.1).betas(0) == {0: 0.5, 2: 0.1}
        with pytest.raises(ValueError, match="exceeds beta_0"):
            table_row(0.1, 0.5).betas(0)
        with pytest.raises(ValueError, match="outside"):
            table_row(1.2, 0.1).betas(0)


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


def midpoint_reference(protocol: QuenchProtocol, n: int, m: int) -> float:
    """The midpoint rule written for one moment on m nodes."""
    k = (np.arange(m) + 0.5) * (np.pi / m)
    return float(np.mean(excitation_probability(protocol, k) * np.cos(n * k)))


def ising_at(x: float, gamma: float = 1.0) -> QuenchProtocol:
    """Ising protocol with pi tau gamma^2 / 2 = x."""
    return QuenchProtocol.ising(gamma, 2.0 * x / (math.pi * gamma**2))


EVEN_TO_58 = tuple(range(0, 59, 2))


class TestIsingMoments:
    """Ising moments on the midpoint rule and the large-argument series, with
    scipy's ive as the oracle."""

    @pytest.mark.parametrize("gamma", [0.3, 0.7, 1.0])
    def test_within_5e16_of_ive(self, gamma):
        taus = np.geomspace(1e-3, 1e5, 81)
        ns = (0, 2, 4, 6, 10, 20)
        table = moment_table([QuenchProtocol.ising(gamma, t) for t in taus], ns)
        x = 0.5 * math.pi * taus * gamma**2
        expected = ive(np.array(ns)[None, :] // 2, x[:, None])
        assert np.max(np.abs(table.values - expected)) <= 5e-16

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_either_side_of_the_crossover(self, gamma, side):
        proto = ising_at(kernels._X_SERIES * (1.0 + side * 1e-9), gamma)
        table = moment_table([proto], EVEN_TO_58)
        x = 0.5 * math.pi * proto.tau * gamma**2
        expected = ive(np.array(EVEN_TO_58) // 2, x)
        # below: the midpoint rule on 512 nodes; above: the series
        assert table.nodes == ((512,) if side < 0 else (0,))
        assert np.max(np.abs(table.values[0] / expected - 1.0)) <= 1e-13

    def test_crossover_is_where_the_first_omitted_term_meets_rounding(self):
        # the smallest integer x at which |t_K| <= eps |sum_k<K t_k| for every
        # n <= 58; the series reports |t_K| as the truncation part of its bound
        eps = np.finfo(float).eps
        big_k = kernels._SERIES_TERMS

        def first_omitted_within_rounding(x):
            n = np.array(EVEN_TO_58, dtype=float)[:, None]
            k = np.arange(1, big_k + 1)[None, :]
            t = np.cumprod(-(n * n - (2 * k - 1) ** 2) / (8 * k * x), axis=1)
            partial = 1.0 + t[:, :-1].sum(axis=1)
            return bool(np.all(np.abs(t[:, -1]) <= eps * np.abs(partial)))

        assert first_omitted_within_rounding(kernels._X_SERIES)
        assert not first_omitted_within_rounding(kernels._X_SERIES - 1.0)

    def test_series_within_1p3e14_relative_and_inside_its_bound(self):
        xs = np.concatenate([[kernels._X_SERIES], np.geomspace(kernels._X_SERIES, 1e8, 60)])  # ive is nan past ~1e9
        table = moment_table([ising_at(x) for x in xs], EVEN_TO_58)
        assert set(table.nodes) == {0}
        x = 0.5 * math.pi * np.array(table.taus)
        expected = ive(np.array(EVEN_TO_58)[None, :] // 2, x[:, None])
        err = np.abs(table.values - expected)
        assert np.max(err / expected) <= 1.3e-14
        assert np.all(err <= table.errors)
        assert np.all(table.errors <= kernels._TOL)

    def test_series_that_misses_tol_takes_the_midpoint_rule(self):
        # n = 200 is far past the n <= 58 the crossover was chosen for: the
        # alternating terms grow large and the series' bound misses _TOL
        proto = ising_at(1.5 * kernels._X_SERIES)
        table = moment_table([proto], (0, 200))
        assert table.nodes[0] > 0
        expected = ive(np.array([0, 100]), 0.5 * math.pi * proto.tau)
        assert np.max(np.abs(table.values[0] - expected)) <= 1e-15

    def test_odd_moments_exactly_zero_on_both_branches(self):
        table = moment_table([ising_at(10.0), ising_at(1e4)], (1, 3, 5))
        assert table.nodes[0] == 512 and table.nodes[1] == 0
        assert not table.values.any() and not table.errors.any()


def mixed_protocols() -> list[QuenchProtocol]:
    """Every branch of the kernel in one batch; the last row is past the cap."""
    protos = [ising_at(x) for x in (1.0, 0.9 * kernels._X_SERIES, 1.1 * kernels._X_SERIES, 1e9)]
    protos += [QuenchProtocol.ising(0.5, 0.0), QuenchProtocol.ising(0.5, 2.0)]
    protos += [QuenchProtocol.multicritical(t) for t in (0.5, 1e3, 1e5, 3e6)]
    protos += [QuenchProtocol.three_spin(j3, 40.0) for j3 in (0.0, 0.5, 0.8, 1.5)]
    protos += [QuenchProtocol.three_spin(0.8, 1e4), QuenchProtocol.multicritical(1e14)]
    return protos


class TestMomentTable:
    """One kernel for every protocol and every row of a batch."""

    def test_mixed_batch_equals_batches_of_one(self):
        protos = mixed_protocols()
        ns = (0, 2, 4, 6)
        table = moment_table(protos, ns)
        assert len({m for m in table.nodes if m}) >= 4  # several grid sizes
        for i, proto in enumerate(protos):
            alone = moment_table([proto], ns)
            assert table.values[i].tobytes() == alone.values[0].tobytes(), i
            assert table.errors[i].tobytes() == alone.errors[0].tobytes(), i
            assert table.nodes[i] == alone.nodes[0], i

    @pytest.mark.parametrize("proto, taus", [
        (QuenchProtocol.multicritical(1.0), np.geomspace(1.0, 1e5, 29)),
        (QuenchProtocol.three_spin(0.8, 1.0), np.geomspace(0.5, 1e4, 25)),
        (QuenchProtocol.ising(1.0, 1.0), np.geomspace(0.1, 1e4, 48)),
    ], ids=["multicritical", "three_spin", "ising"])
    def test_tau_sweep_rows_equal_batches_of_one(self, proto, taus):
        # a tau sweep makes no protocol per row, and each row keeps the bits
        # of its own batch
        ns = (0, 2, 4, 6)
        table = moment_table([proto], ns, taus=taus)
        listed = moment_table([dataclasses.replace(proto, tau=t) for t in taus], ns)
        if proto.kind is ProtocolKind.MULTICRITICAL:
            assert {m for m in table.nodes if m} == {2**k for k in range(9, 15)}
        for i, tau in enumerate(taus):
            alone = moment_table([dataclasses.replace(proto, tau=tau)], ns)
            for got in (table, listed):
                assert got.values[i].tobytes() == alone.values[0].tobytes(), tau
                assert got.errors[i].tobytes() == alone.errors[0].tobytes(), tau
                assert got.nodes[i] == alone.nodes[0], tau
            assert table.protocol(i) == alone.protocols[0]

    def test_tau_sweep_checks_each_tau(self):
        with pytest.raises(ValueError, match="tau must be finite and >= 0, got inf"):
            moment_table([QuenchProtocol.multicritical(1.0)], (0,), taus=[1.0, math.inf])
        with pytest.raises(ValueError, match="one protocol"):
            moment_table([QuenchProtocol.multicritical(1.0)] * 2, (0,), taus=[1.0])

    def test_only_the_row_past_the_cap_raises(self):
        protos = mixed_protocols()
        table = moment_table(protos, (0, 2, 4, 6))
        for i in range(len(protos) - 1):
            table.row(i)
        with pytest.raises(QuadratureError, match="midpoint nodes"):
            table.row(len(protos) - 1)
        assert table.nodes[-1] > kernels._M_CAP

    def test_midpoint_rows_equal_the_per_moment_rule(self):
        # same arithmetic as one moment on its own: bit for bit
        protos = [p for p in mixed_protocols()[:-1] if p.kind is not ProtocolKind.ISING]
        ns = (0, 1, 2, 4, 6)
        table = moment_table(protos, ns)
        for i, proto in enumerate(protos):
            m = table.nodes[i]
            assert m >= kernels._M_FLOOR
            got = [midpoint_reference(proto, n, m) for n in ns]
            assert table.values[i].tolist() == got, proto
            coarse = [midpoint_reference(proto, n, m // 2) for n in ns]
            assert table.errors[i].tolist() == np.abs(np.subtract(got, coarse)).tolist()

    def test_beta_n_and_compute_betas_are_batches_of_one(self):
        proto = QuenchProtocol.three_spin(0.8, 40.0)
        betas = compute_betas(proto, 6)
        row = moment_table([proto], (0, 2, 4, 6)).row(0)
        assert [betas[n] for n in (0, 2, 4, 6)] == row.tolist()
        assert beta_n(proto, 4) == moment_table([proto], (4,)).row(0)[0]

    def test_no_pass_holds_more_than_the_cap_in_grid_points(self, monkeypatch):
        calls = []
        real = kernels._grid_moments

        def counted(kind, tau, gamma, j3, m, ns):
            calls.append((len(tau), m))
            return real(kind, tau, gamma, j3, m, ns)

        monkeypatch.setattr(kernels, "_grid_moments", counted)
        taus = np.linspace(4e7, 5e7, 10)  # M = 2^19: 8 rows per pass
        table = moment_table([QuenchProtocol.multicritical(t) for t in taus], (0,))
        assert set(table.nodes) == {2**19}
        assert sorted(calls) == [(2, 2**18), (2, 2**19), (8, 2**18), (8, 2**19)]
        assert all(rows * m <= kernels._M_CAP for rows, m in calls)

    def test_rows_at_the_cap_peak_at_one_rows_arrays(self):
        # a batch at the cap runs one row per pass, so eight rows need no
        # more memory than one
        protos = [QuenchProtocol.multicritical(t) for t in np.linspace(3e9, 7e9, 8)]

        def peak(batch):
            tracemalloc.start()
            try:
                table = moment_table(batch, (0, 2))
                return tracemalloc.get_traced_memory()[1], table
            finally:
                tracemalloc.stop()

        one, alone = peak(protos[:1])
        eight, table = peak(protos)
        assert set(table.nodes) == {kernels._M_CAP}
        assert one >= 3 * 8 * kernels._M_CAP  # p_k, a product and k, at least
        assert eight <= one + 4096
        assert table.values[0].tobytes() == alone.values[0].tobytes()

    def test_rows_at_the_cap_peak_at_four_arrays(self):
        # what `measures` asks of a row at the cap, beta_0 .. beta_6, holds at
        # most four grid arrays at once: k, p_k, a cosine and its product
        protos = [QuenchProtocol.multicritical(t) for t in np.linspace(3e9, 7e9, 8)]
        tracemalloc.start()
        try:
            table = moment_table(protos, (0, 2, 4, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(table.nodes) == {kernels._M_CAP}
        assert peak <= 4 * 8 * kernels._M_CAP + 2**16
