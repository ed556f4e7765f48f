"""Decoherence of two central qubits globally coupled to a driven spin chain.

The qubits shift the chain's transverse field by +delta or -delta depending on
their joint polarization, so the environment evolves along two branches.  Each
momentum mode is a driven two-level problem

    i d/dt (u, v)^T = H_k^pm(t) (u, v)^T,
    H_k^pm(t) = 2 [[h(t) +- delta + cos k, gamma sin k],
                   [gamma sin k, -(h(t) +- delta + cos k)]],

with h(t) = 1 - t/tau, so the first critical point h = 1 is crossed at t = 0.
The decoherence factor D(t) is the squared overlap of the two branch wave
functions, a product over modes accumulated in log space.  The qubits start in
a Werner state; their reduced state, an X state, depends on time only
through D(t), and its discord and concurrence come from `xstate.correlations`.

Each (mode, branch) pair obeys i dy/dt = (a(t) sz + b sx) y with a(t) linear
in t.  From t_start every pair is carried in its adiabatic frame
(`_adiabatic`): with E = sqrt(a^2 + b^2) the dynamical phase Phi = int E dt
is known in closed form, and what is left is a slow coupling
w = g e^{2i Phi}, g = -b a1 / (2 E^2), between the instantaneous eigenstates.
Each step there is exp(Omega_1 + Omega_2), both Magnus terms integrated in
closed form in Phi (Filon) over a cubic in Phi of g / E, so the step is set
by how fast g changes, not by the phase.  The segment ends at the first
observation time, or earlier where the largest g / E of any pair reaches
COUPLING; from there on every pair is propagated with the sixth-order
Magnus step written out in closed form for a Hamiltonian linear in t
(`_magnus`).

Both steps are unitary, so the norm defect |<psi|psi> - 1| stays at
roundoff; it is measured at every observation time and reported as
max_step_drift.  No Magnus step rotates a mode by more than pi/2, and
`ModeEnsemble` marches at one fixed step: Magnus steps up to `step`,
adiabatic ones up to LOG_STEP * step / STEP in log time.  The step is chosen
by `trace_run` alone: it starts at STEP and, while a step-doubling estimate
of the error of D exceeds TOL at an observation time, halves it and marches
the whole grid again from t_start.  IntegrationError is raised only if no
step down to STEP / 2**10 meets it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .xstate import XStateDensityMatrix, correlations

# trace_run no longer calls discord; it stays importable here because the
# benchmark's tracer wraps it at this module (LOOKUPS in bench/tracing.py).
from .xstate import discord  # noqa: F401

logger = logging.getLogger(__name__)

STEP = 0.1  # longest Magnus step
LOG_STEP = 0.01  # longest adiabatic step in log(t_ref - t), at the Magnus step STEP
COUPLING = 0.01  # the adiabatic segment ends where the largest g / E reaches this
TOL = 1e-6  # bound on the error estimate of D at every observation time
_MAX_HALVINGS = 10  # the step may fall to STEP / 2**_MAX_HALVINGS
_MAX_ANGLE = math.pi / 2  # largest rotation of any mode in one step


class IntegrationError(RuntimeError):
    """No allowed step keeps the error estimate of D within tolerance; carries the time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t = {t}")
        self.t = t


@dataclass(frozen=True)
class CentralConfig:
    """Parameters of one central-qubit run.

    n_spins environment sites, coupling delta, inverse sweep rate tau,
    anisotropy gamma, Werner weight a, and the observation times t_grid.
    The sweep starts at field h_start, i.e. at t = -tau (h_start - 1).
    """

    n_spins: int
    delta: float
    tau: float
    a: float
    t_grid: tuple[float, ...]
    gamma: float = 1.0
    h_start: float = 10.0

    def __post_init__(self):
        if self.n_spins < 2 or self.n_spins % 2 != 0:
            raise ValueError(f"n_spins must be even and >= 2, got {self.n_spins}")
        # every check is written so that NaN fails it
        if not (self.delta >= 0.0) or not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if not (self.tau > 0.0) or not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not (0.0 <= self.a <= 1.0):
            raise ValueError(f"Werner weight a must be in [0, 1], got {self.a}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not math.isfinite(self.h_start):
            raise ValueError(f"h_start must be finite, got {self.h_start}")
        # the evolution must start deep in the adiabatic regime
        if not (self.h_start - 1.0 >= 10.0 * max(self.delta, 1.0 / math.sqrt(self.tau))):
            raise ValueError(
                f"h_start = {self.h_start} too close to the critical point: "
                f"require h_start - 1 >= 10 max(delta, tau^-1/2)"
            )
        grid = tuple(float(t) for t in self.t_grid)
        if len(grid) == 0:
            raise ValueError("t_grid must not be empty")
        if not all(math.isfinite(t) for t in grid):
            raise ValueError("t_grid must be finite")
        if any(b <= a_ for a_, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be strictly increasing")
        if grid[0] < self.t_start:
            raise ValueError(
                f"t_grid starts before the sweep begins at t = {self.t_start}"
            )
        object.__setattr__(self, "t_grid", grid)

    @property
    def t_start(self) -> float:
        return -self.tau * (self.h_start - 1.0)

    def h_of_t(self, t: float) -> float:
        return 1.0 - t / self.tau


def observation_grid(t0: float, t1: float, dt: float) -> tuple[float, ...]:
    """Times t0 + k dt up to t1, never past it beyond roundoff of 1e-9 dt;
    t0 < t1 finite and dt > 0."""
    span = t1 - t0
    if not (dt > 0.0 and 0.0 < span < math.inf):
        raise ValueError("need finite t0 < t1 and dt > 0")
    return tuple(t0 + k * dt for k in range(math.floor(span / dt + 1e-9) + 1))


@dataclass
class DecoherenceTrace:
    """Time series of the decoherence factor and the qubit correlations.

    Propagator diagnostics: the number of adiabatic steps and the time
    `handoff` where they end (t_start when there are none), the number of
    Magnus steps after it and `step`, the Magnus step the run ended on (no
    step is longer), the largest step-doubling error estimate of D,
    and max_step_drift, the largest norm defect |<psi|psi> - 1| of any
    (mode, branch) state at any observation time.  renorm_events is always
    0: no state is renormalized.
    """

    t: np.ndarray
    h: np.ndarray
    decoherence: np.ndarray
    discord: np.ndarray
    concurrence: np.ndarray
    renorm_events: int = 0
    max_step_drift: float = 0.0
    steps: int = 0
    step: float = STEP
    error_estimate: float = 0.0
    adiabatic_steps: int = 0
    handoff: float = math.nan

    def __post_init__(self):
        if np.any(self.decoherence < -1e-12) or np.any(self.decoherence > 1.0 + 1e-9):
            raise ValueError("decoherence factor outside [0, 1]")
        if np.any(self.discord < -1e-9):
            raise ValueError("negative discord in trace")


def mode_momenta(n_spins: int) -> np.ndarray:
    """Antiperiodic-sector momenta k_m = (2m - 1) pi / N, m = 1 .. N/2."""
    if n_spins < 2 or n_spins % 2 != 0:
        raise ValueError(f"n_spins must be even and >= 2, got {n_spins}")
    m = np.arange(1, n_spins // 2 + 1)
    return (2 * m - 1) * np.pi / n_spins


def _magnus(a0: np.ndarray, b: np.ndarray, a1: float, y: np.ndarray,
            t0: float, t1: float, n_steps: int) -> np.ndarray:
    """Sixth-order Magnus propagation of many two-level systems from t0 to t1.

    Pair j obeys i dy/dt = (a_j(t) sz + b_j sx) y with a_j(t) = a0_j + a1 t;
    y is a (2, M) complex array of (u, v) rows.  Each of the n_steps equal
    steps of length h from t multiplies y by exp(-i c.sigma) with
    a_m = a(t + h/2), E_m^2 = a_m^2 + b^2 and

        c = (h b - h^5 a1^2 b / 60, h^3 a1 b / 6 + h^5 a1 b E_m^2 / 90, h a_m).

    This is the sixth-order generator
    alpha1 - [alpha1, alpha2] / 12 - [alpha2, [alpha1, alpha2]] / 240
    + [alpha1, [alpha1, [alpha1, alpha2]]] / 720 (Blanes, Casas & Ros,
    BIT 40, 434 (2000); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
    (2009)) of the midpoint expansion, alpha3 = 0 for H linear in t; in
    su(2) the commutators are cross products.  Its exponential
    cos|c| - i sin|c| c.sigma / |c| is unitary to roundoff, so the state is
    never renormalized.
    """
    u, v = y
    if n_steps < 1:
        return np.stack([u, v])
    h = (t1 - t0) / n_steps
    hb = h * b
    cx = (1.0 - (h * h * a1) ** 2 / 60.0) * hb
    cy1 = (h * h * a1 / 90.0) * hb  # cy = cy0 + cy1 cz^2: h^2 E_m^2 = cz^2 + (h b)^2
    cy0 = (15.0 + hb * hb) * cy1
    cx2 = cx * cx
    ha0 = h * a0
    for i in range(n_steps):
        cz = ha0 + h * a1 * (t0 + (i + 0.5) * h)
        cz2 = cz * cz
        cy = cy0 + cy1 * cz2
        norm = np.sqrt(cz2 + cx2 + cy * cy)
        s = np.sin(norm) / np.maximum(norm, 1e-300)  # c = 0 wherever |c| = 0
        d = np.cos(norm) - 1j * (s * cz)
        o = -(s * cy) - 1j * (s * cx)
        u, v = d * u + o * v, np.conj(d) * v - np.conj(o) * u
    return np.stack([u, v])


def _step_length(a0: np.ndarray, b: np.ndarray, a1: float,
                 t0: float, t1: float, step: float) -> float:
    """The longest step up to `step` that rotates no pair by more than _MAX_ANGLE on [t0, t1].

    A step of length h rotates pair j by about h sqrt(a_j^2 + b_j^2); the
    Magnus series converges only below pi, and |a_j| is largest at an end.
    """
    a = np.maximum(np.abs(a0 + a1 * t0), np.abs(a0 + a1 * t1))
    return min(step, _MAX_ANGLE / float(np.sqrt(np.max(a * a + b * b))))


def _handoff(a0: np.ndarray, b: np.ndarray, a1: float, t_start: float, t_first: float) -> float:
    """End of the adiabatic segment: t_first, or earlier where the largest g / E reaches COUPLING.

    g / E = -b a1 / (2 E^3) of a pair grows while a(t) falls towards 0, so it
    first reaches COUPLING where a = sqrt(E*^2 - b^2), E*^3 = -b a1 / (2 COUPLING);
    a pair with E* <= b never reaches it.  Never earlier than t_start.
    """
    e = np.cbrt(-0.5 * a1 * b / COUPLING)
    reach = e > b
    if np.any(reach):
        a = np.sqrt(e[reach] ** 2 - b[reach] ** 2)
        t_first = min(t_first, float(np.min((a - a0[reach]) / a1)))
    return max(t_first, t_start)


def _adiabatic_nodes(a0: np.ndarray, b: np.ndarray, a1: float,
                     t0: float, t1: float, log_step: float) -> np.ndarray:
    """An even number of adiabatic steps from t0 to t1, equal in log(t_ref - t).

    t_ref - t1 is the shortest time E^2 / |a a1| in which the coupling of
    any pair changes by a fixed factor at t1 (about its distance to its
    crossing), capped at t1 - t0.  Steps are no longer than log_step in
    log(t_ref - t), so they shrink towards the hand-off as the couplings grow.
    """
    a = a0 + a1 * t1
    scale = t1 - t0
    rate = float(np.max(np.abs(a * a1) / (a * a + b * b)))
    if rate * scale > 1.0:
        scale = 1.0 / rate
    t_ref = t1 + scale
    u0, u1 = math.log(t_ref - t0), math.log(scale)
    pairs = max(math.ceil((u0 - u1) / (2.0 * log_step) - 1e-9), 1)
    nodes = t_ref - np.exp(np.linspace(u0, u1, 2 * pairs + 1))
    nodes[0], nodes[-1] = t0, t1
    return nodes


def _frame(a0: np.ndarray, b: np.ndarray, a1: float, t: float):
    """Phi, e^{2i Phi}, f = g / E and df/dPhi of every pair at time t (a scalar or a column).

    Phi = (a E + b^2 asinh(a / b)) / (2 a1) is int E dt up to a constant per
    pair, which changes only that pair's global phase.
    """
    a = a0 + a1 * t
    e2 = a * a + b * b
    e = np.sqrt(e2)
    phi = (a * e + b * b * np.arcsinh(a / b)) / (2.0 * a1)
    f = (-0.5 * a1) * b / (e2 * e)
    return phi, np.exp(2j * phi), f, (-3.0 * a1) * a * f / (e2 * e)


def _filon_terms(start, end):
    """W and phi2 of one adiabatic step, Omega_1 = [[0, W], [-W*, 0]] and Omega_2 = -i phi2 sz.

    Over the step Phi = Phi_0 + L s, s in [0, 1], and f = g / E is replaced
    by the cubic P(s) with the values and s-derivatives of f at both ends.
    Both Magnus terms are then exact, from the antiderivative
    e^{2iLs} sum_m (-1)^m P^(m)(s) / (2iL)^(m+1) of P e^{2iLs}.  With
    k = 1/(2L), q = -k^2, E = P + q P'' and O = P' + q P''',

        W = e^{2i Phi_0} L int_0^1 P e^{2iLs} ds = e^{2i Phi_0} J / 2,
        J = e^{2iL} (k O(1) - i E(1)) - (k O(0) - i E(0)),
        phi2 = int int_{r<s} Im(w(s) w*(r)) dr ds
             = (L/2) int_0^1 P E ds - Im((k O(0) + i E(0)) J) / 4.

    int P^2 and int P'^2 are quadratic forms of the Hermite data, so all
    but the two rotations is real arithmetic.
    """
    phi0, z0, f0, df0 = start
    phi1, z1, f1, df1 = end
    span = phi1 - phi0
    d0, d1 = span * df0, span * df1  # P'(0), P'(1)
    rise, total = f1 - f0, f1 + f0
    slope, bend = d0 + d1, d1 - d0
    p2 = 6.0 * rise - 3.0 * slope + bend  # P''(0)
    p3 = 6.0 * slope - 12.0 * rise  # P'''
    k = 0.5 / span
    q = -k * k
    e0, e1 = f0 + q * p2, f1 + q * (p2 + p3)
    o0, o1 = k * (d0 + q * p3), k * (d1 + q * p3)
    rot = z1 * np.conj(z0)  # e^{2iL}
    jr = rot.real * o1 + rot.imag * e1 - o0
    ji = rot.imag * o1 - rot.real * e1 + e0
    mass = (
        105.0 * total * total + 51.0 * rise * rise + 0.5 * slope * slope + 3.5 * bend * bend
        - 35.0 * total * bend - 9.0 * rise * slope
    ) / 420.0  # int_0^1 P^2 ds
    stiff = (
        36.0 * rise * rise - 6.0 * rise * slope + 1.5 * slope * slope + 2.5 * bend * bend
    ) / 30.0  # int_0^1 P'^2 ds
    curv = 0.5 * (total * bend + rise * slope) - stiff  # int_0^1 P P'' ds
    phi2 = 0.5 * span * (mass + q * curv) - 0.25 * (o0 * ji + e0 * jr)
    return z0 * (0.5 * jr + 0.5j * ji), phi2


def _exponential(w: np.ndarray, phi2: np.ndarray):
    """alpha, beta of exp(Omega_1 + Omega_2) = [[alpha, beta], [-beta*, alpha*]]."""
    norm = np.sqrt(phi2 * phi2 + (w.real * w.real + w.imag * w.imag))
    s = np.sin(norm) / np.maximum(norm, 1e-300)
    return np.cos(norm) - 1j * (s * phi2), s * w


def _rotate(c, alpha: np.ndarray, beta: np.ndarray):
    """Amplitudes c = (c+, c-) after one step [[alpha, beta], [-beta*, alpha*]]."""
    up, down = c
    return alpha * up + beta * down, np.conj(alpha) * down - np.conj(beta) * up


def _lab_frame(c, a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(2, M) array of (u, v) for c+ e^{-i Phi} |+> + c- e^{i Phi} |->.

    |+> = (cos x, sin x) and |-> = (-sin x, cos x) with 2x = atan2(b, a),
    the eigenvectors of a sz + b sx at +E and -E.
    """
    e = np.hypot(a, b)
    big = np.sqrt((e + np.abs(a)) / (2.0 * e))
    small = b / (2.0 * e * big)
    cos, sin = np.where(a >= 0.0, big, small), np.where(a >= 0.0, small, big)
    rot = np.exp(-1j * phi)
    up, down = c[0] * rot, c[1] * np.conj(rot)
    return np.stack([up * cos - down * sin, up * sin + down * cos])


def _adiabatic(a0: np.ndarray, b: np.ndarray, a1: float, nodes: np.ndarray):
    """Ground states at nodes[0] carried to nodes[-1] in the adiabatic frame.

    In the frame of the instantaneous eigenstates, with the dynamical phase
    split off, pair j obeys dc/dt = [[0, w], [-w*, 0]] c with
    w = g e^{2i Phi}, g = -b a1 / (2 E^2) (Berry, Proc. R. Soc. A 429, 61
    (1990); Jahnke & Lubich, Numer. Math. 94, 289 (2003)); each step is
    exp(Omega_1 + Omega_2) (`_filon_terms`).  The fine states step between
    consecutive nodes, the coarse ones across each pair of steps; the terms
    of a pair's three steps come from one (3, M) pass.  Both are returned
    as (2, M) lab-frame (u, v) arrays.
    """
    fine = coarse = (np.zeros(len(a0), dtype=complex), np.ones(len(a0), dtype=complex))
    for i in range(0, len(nodes) - 1, 2):
        frame = _frame(a0, b, a1, nodes[i:i + 3, None])  # nodes i, i + 1, i + 2
        alpha, beta = _exponential(
            *_filon_terms([x[[0, 1, 0]] for x in frame], [x[[1, 2, 2]] for x in frame])
        )
        fine = _rotate(_rotate(fine, alpha[0], beta[0]), alpha[1], beta[1])
        coarse = _rotate(coarse, alpha[2], beta[2])
    a, phi = a0 + a1 * nodes[-1], frame[0][2]
    return _lab_frame(fine, a, b, phi), _lab_frame(coarse, a, b, phi)


def _branch_overlaps(y: np.ndarray, n_modes: int) -> np.ndarray:
    """|<psi_k^+|psi_k^->|^2 from a (2, 2 n_modes) array, + branches first."""
    n = n_modes
    inner = y[0, :n].conj() * y[0, n:] + y[1, :n].conj() * y[1, n:]
    return np.abs(inner) ** 2


def _overlap_product(f: np.ndarray) -> float:
    # unit-vector overlaps can exceed 1 by roundoff
    f = np.minimum(f, 1.0)
    if np.any(f <= 0.0):
        return 0.0
    return float(np.exp(np.sum(np.log(f))))


class ModeEnsemble:
    """Both branches of every momentum mode, marched forward together at one step.

    The first advance from t_start carries every pair in the adiabatic
    frame (`_adiabatic`) up to the hand-off: the first observation time
    (or the time asked for, if earlier) or, if earlier still, the time where
    the largest g / E of any pair reaches COUPLING (`_handoff`).  `handoff`
    is the time that segment ended (t_start when there was none) and
    `adiabatic_steps` its number of steps, equal in log time and no longer
    than LOG_STEP * step / STEP.  After it the modes advance in equal Magnus
    steps no longer than `step`; `steps` counts them.  The step never
    changes: `trace_run` refines it by starting a new ensemble.

    A coarse ensemble follows the fine one from the start, in steps between
    every other adiabatic node and then in half as many Magnus steps of
    twice the length.  The Magnus segment is sixth-order, so the two
    decoherence factors differ by about 63 times the error of the fine one,
    and |D_fine - D_coarse| / 63 estimates the error of D (not where
    _MAX_ANGLE holds a step: the coarse step then turns a mode by up to pi,
    outside the asymptotic range, and the estimate can miss either way).
    The adiabatic segment is still about fourth order (on average over
    halvings: the error of a Filon step carries the phase at its nodes), so
    its share enters the estimate at 15/63, and the estimate can miss it.
    At LOG_STEP that error was below 1e-10 at N=20 (five configurations)
    and on two N=500 traces, `decohere-revival` one of them, but at N=500,
    tau = 2500, delta = 1e-3 it is 1.1e-10 against an estimate of 1.0e-12
    (ROADMAP item 3).  Errors made before a critical crossing show up in D
    only after it, so the estimate covers the whole run.  `error_estimate`
    is the largest estimate at any time advanced to.
    """

    def __init__(self, config: CentralConfig, step: float = STEP):
        if not step > 0.0:
            raise ValueError(f"step must be > 0, got {step}")
        self.config = config
        self.step = step
        k = mode_momenta(config.n_spins)
        self._n_modes = len(k)
        cos_k = np.concatenate([np.cos(k), np.cos(k)])
        sin_k = np.concatenate([np.sin(k), np.sin(k)])
        eps = np.concatenate(
            [np.full(self._n_modes, config.delta), np.full(self._n_modes, -config.delta)]
        )
        self._a0 = 2.0 * (1.0 + eps + cos_k)  # a(t) = a0 + a1 t
        self._a1 = -2.0 / config.tau
        self._b = 2.0 * config.gamma * sin_k
        a = self._a0 + self._a1 * config.t_start
        e = np.hypot(a, self._b)
        y = np.stack([self._b, -(a + e)]).astype(complex)
        self._fine = self._coarse = y / np.sqrt(np.abs(y[0]) ** 2 + np.abs(y[1]) ** 2)
        self.t = self.handoff = config.t_start
        self.steps = self.adiabatic_steps = 0
        self.error_estimate = 0.0
        self.max_step_drift = 0.0

    def advance(self, t: float) -> "ModeEnsemble":
        if t < self.t - 1e-12:
            raise ValueError(f"cannot integrate backwards: {t} < {self.t}")
        t0, a0, b, a1 = self.t, self._a0, self._b, self._a1
        if t0 == self.config.t_start:
            end = min(t, _handoff(a0, b, a1, t0, self.config.t_grid[0]))
            if end > t0:
                nodes = _adiabatic_nodes(a0, b, a1, t0, end, self.step * (LOG_STEP / STEP))
                self._fine, self._coarse = _adiabatic(a0, b, a1, nodes)
                self.handoff, self.adiabatic_steps, t0 = end, len(nodes) - 1, end
        h = _step_length(a0, b, a1, t0, t, self.step)
        pairs = max(math.ceil((t - t0) / (2.0 * h) - 1e-9), 0)
        self._fine = fine = _magnus(a0, b, a1, self._fine, t0, t, 2 * pairs)
        self._coarse = _magnus(a0, b, a1, self._coarse, t0, t, pairs)
        self.t = t
        self.steps += 2 * pairs
        err = abs(
            self.decoherence_factor()
            - _overlap_product(_branch_overlaps(self._coarse, self._n_modes))
        ) / 63.0
        self.error_estimate = max(self.error_estimate, err)
        drift = float(np.max(np.abs(np.abs(fine[0]) ** 2 + np.abs(fine[1]) ** 2 - 1.0)))
        self.max_step_drift = max(self.max_step_drift, drift)
        return self

    def mode_overlaps(self) -> np.ndarray:
        """F_k = |<psi_k^+|psi_k^->|^2 for every positive momentum."""
        return _branch_overlaps(self._fine, self._n_modes)

    def decoherence_factor(self) -> float:
        return _overlap_product(self.mode_overlaps())


def qubit_state(a: float, d: float) -> XStateDensityMatrix:
    """Reduced state of the central qubits: Werner weight a, decoherence factor d."""
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"a must be in [0, 1], got {a}")
    if not (-1e-12 <= d <= 1.0 + 1e-12):
        raise ValueError(f"decoherence factor must be in [0, 1], got {d}")
    d = min(max(d, 0.0), 1.0)
    return XStateDensityMatrix(
        a_plus=(1.0 + a) / 4.0,
        a_minus=(1.0 + a) / 4.0,
        a_zero=(1.0 - a) / 4.0,
        b1=complex(a * math.sqrt(d) / 2.0),
        b2=0.0,
    )


def trace_run(config: CentralConfig) -> DecoherenceTrace:
    """March the environment over config.t_grid and record (D, Q, C_nc) rows.

    A `ModeEnsemble` at the Magnus step STEP advances from one observation
    time to the next and D is recorded at each.  At the first time whose
    error estimate exceeds TOL the step is halved and a new ensemble marches
    the whole grid again from t_start, so every D comes from the one step
    the run ends on (`step` of the trace); IntegrationError is raised when
    a step below STEP / 2**_MAX_HALVINGS would be needed.  The discord and
    concurrence of the reduced qubit states, X states, then come from one
    `xstate.correlations` call over all of them.
    """
    step = STEP
    while True:
        ens, ds = ModeEnsemble(config, step), []
        for t in config.t_grid:
            if ens.advance(t).error_estimate > TOL:
                break
            ds.append(ens.decoherence_factor())
        else:
            break
        if step / 2.0 < STEP / 2**_MAX_HALVINGS:
            raise IntegrationError(
                f"error estimate {ens.error_estimate:.2e} of D exceeds TOL = {TOL:g} "
                f"at the smallest step {step:.2e}",
                t,
            )
        logger.debug(
            "error estimate %.2e of D at t = %g: step %g halved", ens.error_estimate, t, step
        )
        step /= 2.0
    logger.debug(
        "%d adiabatic steps to t = %g, %d Magnus steps of at most %g: "
        "error estimate of D %.2e, norm defect %.2e",
        ens.adiabatic_steps, ens.handoff, ens.steps, step, ens.error_estimate, ens.max_step_drift,
    )
    measured = correlations([qubit_state(config.a, d) for d in ds])
    return DecoherenceTrace(
        t=np.array(config.t_grid, dtype=float),
        h=np.array([config.h_of_t(t) for t in config.t_grid]),
        decoherence=np.array(ds),
        discord=measured["Q"],
        concurrence=measured["Cnc"],
        max_step_drift=ens.max_step_drift,
        steps=ens.steps,
        step=step,
        error_estimate=ens.error_estimate,
        adiabatic_steps=ens.adiabatic_steps,
        handoff=ens.handoff,
    )
