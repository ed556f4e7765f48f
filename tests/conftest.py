"""Shared fixtures: random state generators, the polar-axis closed form, the
general measurement-search oracle, the dense 4x4 and single-mode oracles (the
library measures X states and propagates all modes at once), the exact
Landau-Zener decoherence factor, the closed-form excitation probability and
weak-coupling decoherence factor, and the acceptance-criterion report."""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize

from spinquench import central
from spinquench.kernels import ProtocolKind
from spinquench.xstate import (
    CorrelatorSet,
    MeasurementBasis,
    XStateDensityMatrix,
    _as_matrix,
    _entropy_bits,
    classical_correlation,
)

_CRITERION_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, ok: bool, detail: str = "") -> None:
    """Register one acceptance criterion outcome for the end-of-run summary."""
    _CRITERION_RESULTS.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in _CRITERION_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" — {detail}"
        terminalreporter.write_line(line)


def random_x_state(rng: np.random.Generator) -> XStateDensityMatrix:
    """A positive X state with random populations, coherences, and phases."""
    w = rng.dirichlet(np.ones(4))
    a_plus, a_minus = w[0], w[1]
    a_zero = (w[2] + w[3]) / 2.0
    b1 = (
        rng.uniform(0.0, 1.0)
        * np.sqrt(a_plus * a_minus)
        * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    )
    b2 = rng.uniform(0.0, 1.0) * a_zero * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return XStateDensityMatrix(
        a_plus=a_plus, a_minus=a_minus, a_zero=a_zero, b1=b1, b2=b2
    )


def random_qubit_state(rng: np.random.Generator) -> np.ndarray:
    """A random single-qubit density matrix (mixed, full support a.s.)."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_product_state(rng: np.random.Generator) -> np.ndarray:
    return np.kron(random_qubit_state(rng), random_qubit_state(rng))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1 - p) log2 (1 - p), with 0 log 0 = 0."""
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def closed_form_C_polar_n2(beta0: float, beta2: float) -> float:
    """Classical correlation at separation 2 for a polar (z-axis) measurement, in bits.

    C_z = h(b0) - (1 - b0) h(((1 - b0)^2 - b2^2) / (1 - b0)) - b0 h((b0^2 - b2^2) / b0),
    the companion of quench.closed_form_C_n2 (the transverse-axis value); a
    term whose outcome has zero weight contributes nothing.
    """

    def weighted(weight: float, joint: float) -> float:
        return weight * binary_entropy(joint / weight) if weight > 0.0 else 0.0

    return (
        binary_entropy(beta0)
        - weighted(1.0 - beta0, (1.0 - beta0) ** 2 - beta2**2)
        - weighted(beta0, beta0**2 - beta2**2)
    )


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density matrix of any dimension."""
    return _entropy_bits(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)))


def reduced_states(rho) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces (rho_A, rho_B) of a two-qubit state, dense or X."""
    r = _as_matrix(rho).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r), np.einsum("abad->bd", r)


def dense_mutual_information(rho) -> float:
    """I = s(rho_A) + s(rho_B) - s(rho) in bits of any two-qubit state."""
    val = sum(map(von_neumann_entropy, reduced_states(rho))) - von_neumann_entropy(_as_matrix(rho))
    return max(val, 0.0)


def correlator_eigenvalues(c: CorrelatorSet) -> np.ndarray:
    """The printed eigenvalues (1/4)[(1+c3) +- sqrt(4 c4^2 + (c1-c2)^2)] and
    (1/4)[(1-c3) +- (c1+c2)]."""
    outer, inner = math.sqrt(4.0 * c.c4**2 + (c.c1 - c.c2) ** 2), c.c1 + c.c2
    return 0.25 * np.array([1 + c.c3 + outer, 1 + c.c3 - outer, 1 - c.c3 + inner, 1 - c.c3 - inner])


def basis_vectors(basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """Measured states (w_plus, w_minus) of qubit B: the columns of MeasurementBasis's V."""
    ct, st = math.cos(basis.theta / 2.0), math.sin(basis.theta / 2.0)
    ph = np.exp(1j * basis.phi)
    return np.array([ct, st * ph]), np.array([st / ph, -ct])


def conditional_state(rho, basis: MeasurementBasis, outcome: str):
    """(probability, post-measurement 4x4 state) of outcome "+" (w_plus) or "-" of
    measuring qubit B; (0.0, NaNs) when the probability is below 1e-15."""
    if outcome not in ("+", "-"):
        raise ValueError(f"outcome must be '+' or '-', got {outcome!r}")
    w = basis_vectors(basis)[outcome == "-"]
    m = np.einsum("b,abcd,d->ac", w.conj(), _as_matrix(rho).reshape(2, 2, 2, 2), w)
    p = float(np.trace(m).real)
    if p < 1e-15:
        return 0.0, np.full((4, 4), np.nan, dtype=complex)
    return p, np.einsum("ac,b,d->abcd", m, w, w.conj()).reshape(4, 4) / p


def branch_hamiltonian(k: float, t: float, branch: str, config) -> np.ndarray:
    """The 2x2 Hamiltonian of mode k on branch "+" or "-" (spinquench.central docstring)."""
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    diag = 2.0 * (config.h_of_t(t) + (1.0 if branch == "+" else -1.0) * config.delta + math.cos(k))
    off = 2.0 * config.gamma * math.sin(k)
    return np.array([[diag, off], [off, -diag]])


def initial_mode_state(k: float, branch: str, config) -> np.ndarray:
    """Ground state (u, v) of the branch Hamiltonian at t_start, with u real and >= 0."""
    h = branch_hamiltonian(k, config.t_start, branch, config)
    a, b = h[0, 0], h[0, 1]
    u, v = b, -(a + math.hypot(a, b))
    nrm = math.hypot(u, v)
    if nrm < 1e-300:  # a < 0 and b = 0: ground state is exactly |0>
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([u / nrm, v / nrm], dtype=complex)


def evolve_mode(k: float, branch: str, config, t_from: float, t_to: float, y) -> np.ndarray:
    """(u, v) of one mode carried from t_from to t_to by `central._magnus`, in equal
    steps no longer than central.STEP that rotate it by at most pi/2."""
    h0 = branch_hamiltonian(k, 0.0, branch, config)
    a0, b, a1 = h0[:1, 0], h0[:1, 1], -2.0 / config.tau
    h = central._step_length(a0, b, a1, t_from, t_to, central.STEP)
    n_steps = max(math.ceil((t_to - t_from) / h - 1e-9), 0)
    y = np.asarray(y, dtype=complex)[:, None]
    return central._magnus(a0, b, a1, y, t_from, t_to, n_steps)[:, 0]


def landau_zener_decoherence(config, dps: int = 30) -> np.ndarray:
    """D at every config.t_grid time from the exact solution of every (mode, branch)
    pair, evaluated with mpmath at `dps` digits.

    A pair obeys i (u, v)' = (a sz + b sx) (u, v) with a = a1 s, s = t - t_c and
    a1 = -2 / tau (`branch_hamiltonian`).  Eliminating v gives Weber's equation
    u'' + (a1^2 s^2 + b^2 + i a1) u = 0, so u = c1 D_nu(kappa s) + c2 D_nu(-kappa s)
    with kappa^2 = 2i a1 and nu = b^2 / (2i a1) (Zener, Proc. R. Soc. A 137, 696
    (1932); Vitanov & Garraway, PRA 53, 4288 (1996)), and v = (i u' - a u) / b with
    D_nu'(z) = z D_nu(z) / 2 - D_{nu+1}(z).  c1 and c2 are fitted to the ground
    state at t_start (`initial_mode_state`).
    """
    n_modes = config.n_spins // 2
    with mpmath.workdps(dps):
        a1 = mpmath.mpf(-2) / config.tau
        kappa = mpmath.sqrt(2j * a1)
        states = []  # (u, v) per pair and time, the "+" branch's pairs first
        for branch in ("+", "-"):
            for k in central.mode_momenta(config.n_spins):
                h0 = branch_hamiltonian(k, 0.0, branch, config)
                a0, b = mpmath.mpf(h0[0, 0]), mpmath.mpf(h0[0, 1])
                nu = b * b / (2j * a1)

                def solutions(t):
                    # columns: the two Weber solutions; rows: u and v
                    s = t - (-a0 / a1)
                    m = mpmath.matrix(2, 2)
                    for col, sign in enumerate((1, -1)):
                        z = sign * kappa * s
                        d = mpmath.pcfd(nu, z)
                        du = sign * kappa * (z * d / 2 - mpmath.pcfd(nu + 1, z))
                        m[0, col], m[1, col] = d, (1j * du - a1 * s * d) / b
                    return m

                y0 = initial_mode_state(k, branch, config)
                c = mpmath.lu_solve(solutions(mpmath.mpf(config.t_start)), mpmath.matrix(y0))
                states.append([solutions(mpmath.mpf(t)) * c for t in config.t_grid])
        out = []
        for j in range(len(config.t_grid)):
            d = mpmath.mpf(1)
            for plus, minus in zip(states[:n_modes], states[n_modes:]):
                p, q = plus[j], minus[j]
                d *= abs(mpmath.conj(p[0]) * q[0] + mpmath.conj(p[1]) * q[1]) ** 2
            out.append(float(d))
    return np.array(out)


def concurrence_werner(a: float, d: float) -> float:
    """Concurrence max[a (sqrt d + 1/2) - 1/2, 0] of the Werner state of weight a
    dephased by the decoherence factor d (`central.qubit_state`)."""
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"a must be in [0, 1], got {a}")
    if not (0.0 <= d <= 1.0):
        raise ValueError(f"decoherence factor must be in [0, 1], got {d}")
    return max(a * (math.sqrt(d) + 0.5) - 0.5, 0.0)


def excitation_probability(protocol, k):
    """Probability that mode k in [0, pi] (scalar or array) is excited after the sweep:
    exp(-pi tau gamma^2 sin^2 k) for the Ising sweep, exp(-pi tau (1+cos k)^2 sin^2 k)
    along the multicritical path and exp(-pi tau (sin k - J3 sin 2k)^2) for the
    three-spin chain."""
    karr = np.asarray(k, dtype=float)
    if np.any(karr < -1e-12) or np.any(karr > np.pi + 1e-12):
        raise ValueError("k must lie in [0, pi]")
    if protocol.kind is ProtocolKind.ISING:
        expo = protocol.gamma**2 * np.sin(karr) ** 2
    elif protocol.kind is ProtocolKind.MULTICRITICAL:
        expo = (1.0 + np.cos(karr)) ** 2 * np.sin(karr) ** 2
    else:
        expo = (np.sin(karr) - protocol.j3 * np.sin(2.0 * karr)) ** 2
    out = np.exp(-np.pi * protocol.tau * expo)
    return float(out) if np.isscalar(k) else out


def weak_coupling_D(t: float, config) -> float:
    """Closed-form decoherence factor exp(-8 (sqrt 2 - 1) N delta^2 t^2 / (pi sqrt tau)),
    valid for delta -> 0 after the first critical crossing (t measured from it); the
    adiabatic-mode fidelity prefactor deviates from 1 only at O(N delta^2) and is
    taken as exactly 1."""
    expo = 8.0 * (math.sqrt(2.0) - 1.0) * config.n_spins * config.delta**2 * t**2
    return math.exp(-expo / (math.pi * math.sqrt(config.tau)))


def approx_Fk(k: float, t: float, delta: float, tau: float) -> float:
    """Weak-coupling per-mode overlap 1 - 4 sin^2(4 t delta) (e^{-2 pi tau k^2} -
    e^{-4 pi tau k^2}), k the momentum offset from the critical mode of the band
    excited at a crossing and t the time since that crossing."""
    g = math.exp(-2.0 * math.pi * tau * k * k) - math.exp(-4.0 * math.pi * tau * k * k)
    return min(max(1.0 - 4.0 * math.sin(4.0 * t * delta) ** 2 * g, 0.0), 1.0)


def _xlog2(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _basis_grid(n_theta: int, n_phi: int):
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    w = np.empty(tt.shape + (2,), dtype=complex)
    w[..., 0] = np.cos(tt / 2.0)
    w[..., 1] = np.sin(tt / 2.0) * np.exp(1j * pp)
    return tt, pp, w


_GRID = _basis_grid(64, 64)


def _grid_conditional_entropies(arr: np.ndarray, w: np.ndarray) -> np.ndarray:
    r = arr.reshape(2, 2, 2, 2)
    m = np.einsum("xyb,abcd,xyd->xyac", w.conj(), r, w)
    rho_a = np.einsum("abcb->ac", r)
    total = np.zeros(w.shape[:2])
    for mk in (m, rho_a[None, None] - m):
        p = np.einsum("xyaa->xy", mk).real
        half = 0.5 * (mk[..., 0, 0].real - mk[..., 1, 1].real)
        disc = np.hypot(half, np.abs(mk[..., 0, 1]))
        lam_hi = np.clip(0.5 * p + disc, 0.0, None)
        lam_lo = np.clip(0.5 * p - disc, 0.0, None)
        total += -_xlog2(lam_hi) - _xlog2(lam_lo) + _xlog2(p)
    return total


def scalar_conditional_entropy(rows: list, theta: float, phi: float) -> float:
    """Average entropy of qubit A after measuring B along (theta, phi), from the
    4x4 state as a nested list (`ndarray.tolist()`): `xstate.conditional_entropy`
    written with math and cmath, a few times faster for the Nelder-Mead
    objective.  Outcomes with probability below 1e-15 contribute zero."""
    w = (math.cos(theta / 2.0), math.sin(theta / 2.0) * cmath.exp(1j * phi))
    # m[a][c] = sum_bd conj(w_b) rho[2a + b][2c + d] w_d, the unnormalized
    # state of A for the outcome w; the other outcome leaves rho_A - m
    m = [
        [
            sum(w[b].conjugate() * rows[2 * a + b][2 * c + d] * w[d] for b in (0, 1) for d in (0, 1))
            for c in (0, 1)
        ]
        for a in (0, 1)
    ]
    rest = [[rows[2 * a][2 * c] + rows[2 * a + 1][2 * c + 1] - m[a][c] for c in (0, 1)] for a in (0, 1)]
    total = 0.0
    for mk in (m, rest):
        p = (mk[0][0] + mk[1][1]).real
        if p < 1e-15:
            continue
        disc = math.hypot(0.5 * (mk[0][0].real - mk[1][1].real), abs(mk[0][1]))
        lam = (max(0.5 * p + disc, 0.0) / p, max(0.5 * p - disc, 0.0) / p)
        total += p * -sum(x * math.log2(x) for x in lam if x > 0.0)
    return total


def oracle_classical_correlation(rho) -> float:
    """Classical correlation of any two-qubit state (dense or X), in bits.

    The general search over the Bloch sphere of measurements on B: a 64x64
    (theta, phi) grid of the dense conditional entropy, then Nelder-Mead
    (angle tolerance 1e-6) from the best grid point and from the polar,
    equatorial and diagonal axes.  It assumes nothing about the state, and a
    search can only undershoot the true maximum.
    """
    arr = rho.to_matrix() if isinstance(rho, XStateDensityMatrix) else np.asarray(rho)
    s_a = von_neumann_entropy(reduced_states(arr)[0])
    tt, pp, w = _GRID
    ent = _grid_conditional_entropies(arr, w)
    i, j = np.unravel_index(np.argmin(ent), ent.shape)
    starts = [(tt[i, j], pp[i, j]), (0.0, 0.0), (np.pi / 2.0, 0.0), (np.pi / 4.0, 0.0)]
    rows = arr.tolist()
    best = min(
        minimize(
            lambda x: scalar_conditional_entropy(rows, x[0], x[1]),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-14, "maxiter": 600},
        ).fun
        for x0 in starts
    )
    return max(s_a - float(best), 0.0)


def oracle_discord(rho) -> float:
    """Mutual information minus `oracle_classical_correlation`, in bits."""
    return dense_mutual_information(rho) - oracle_classical_correlation(rho)


def basis_value(state: XStateDensityMatrix, basis: MeasurementBasis) -> float:
    """Information about A that measuring B in `basis` yields, from the dense state."""
    rho = state.to_matrix()
    s_a = von_neumann_entropy(reduced_states(rho)[0])
    return s_a - scalar_conditional_entropy(rho.tolist(), basis.theta, basis.phi)


def assert_matches_oracle(state: XStateDensityMatrix) -> None:
    """The library's C is not below the oracle's (which can only undershoot),
    and the basis it returns achieves the value it reports."""
    c_val, basis = classical_correlation(state)
    assert c_val >= oracle_classical_correlation(state) - 1e-12
    assert basis_value(state, basis) == pytest.approx(c_val, abs=1e-12)
