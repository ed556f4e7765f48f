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
a Werner state; their reduced state depends on time only through D(t).

Every (mode, branch) pair is propagated with the fourth-order Magnus step
written out in closed form for a Hamiltonian linear in t (`_magnus`).
The step is unitary, so the norm defect |<psi|psi> - 1| stays at roundoff; it
is measured at every observation time and reported as max_step_drift.  The
step length is chosen by the program: no step rotates a mode by more than
pi/2, and the step starts at STEP and is halved, with the run redone, while a
step-doubling estimate of the error of D exceeds TOL (`ModeEnsemble`).
IntegrationError is raised only if no step down to STEP / 2**10 meets it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .xstate import XStateDensityMatrix, discords

# trace_run no longer calls discord; it stays importable here because the
# benchmark's tracer wraps it at this module (LOOKUPS in bench/tracing.py).
from .xstate import discord  # noqa: F401

logger = logging.getLogger(__name__)

STEP = 0.05  # longest Magnus step
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
        if self.delta < 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not (0.0 <= self.a <= 1.0):
            raise ValueError(f"Werner weight a must be in [0, 1], got {self.a}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        # the evolution must start deep in the adiabatic regime
        if self.h_start - 1.0 < 10.0 * max(self.delta, 1.0 / math.sqrt(self.tau)):
            raise ValueError(
                f"h_start = {self.h_start} too close to the critical point: "
                f"require h_start - 1 >= 10 max(delta, tau^-1/2)"
            )
        grid = tuple(float(t) for t in self.t_grid)
        if len(grid) == 0:
            raise ValueError("t_grid must not be empty")
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


@dataclass(frozen=True)
class ModeState:
    """Amplitudes of |0> and |k,-k> for one momentum mode."""

    u: complex
    v: complex

    def __post_init__(self):
        nrm = abs(self.u) ** 2 + abs(self.v) ** 2
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"mode state norm^2 = {nrm}, expected 1")


@dataclass
class DecoherenceTrace:
    """Time series of the decoherence factor and the qubit correlations.

    Propagator diagnostics: the number of Magnus steps, the largest
    step-doubling error estimate of D, and max_step_drift, the largest
    norm defect |<psi|psi> - 1| of any (mode, branch) state at any
    observation time.  renorm_events is always 0: no state is renormalized.
    """

    t: np.ndarray
    h: np.ndarray
    decoherence: np.ndarray
    discord: np.ndarray
    concurrence: np.ndarray
    renorm_events: int = 0
    max_step_drift: float = 0.0
    steps: int = 0
    error_estimate: float = 0.0

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


def _branch_sign(branch) -> float:
    if branch in ("+", +1, 1.0):
        return 1.0
    if branch in ("-", -1, -1.0):
        return -1.0
    raise ValueError(f"branch must be '+' or '-', got {branch!r}")


def branch_hamiltonian(k: float, t: float, branch, config: CentralConfig) -> np.ndarray:
    """The 2x2 mode Hamiltonian of the given branch at time t."""
    diag = 2.0 * (config.h_of_t(t) + _branch_sign(branch) * config.delta + math.cos(k))
    off = 2.0 * config.gamma * math.sin(k)
    return np.array([[diag, off], [off, -diag]])


def initial_mode_state(k: float, branch, config: CentralConfig) -> ModeState:
    """Ground state of the branch Hamiltonian at the start of the sweep.

    Phase fixed so u is real and nonnegative; in the dominant-field limit
    (h_start -> infinity) the state tends to (u, v) = (0, 1) up to the sign
    of v.
    """
    h = branch_hamiltonian(k, config.t_start, branch, config)
    a, b = h[0, 0], h[0, 1]
    e = math.hypot(a, b)
    u, v = b, -(a + e)
    nrm = math.hypot(u, v)
    if nrm < 1e-300:  # a < 0 and b = 0: ground state is exactly |0>
        return ModeState(1.0 + 0.0j, 0.0j)
    return ModeState(complex(u / nrm), complex(v / nrm))


def _magnus(a0: np.ndarray, b: np.ndarray, a1: float, y: np.ndarray,
            t0: float, t1: float, n_steps: int) -> np.ndarray:
    """Fourth-order Magnus propagation of many two-level systems from t0 to t1.

    Pair j obeys i dy/dt = (a_j(t) sz + b_j sx) y with a_j(t) = a0_j + a1 t;
    y is a (2, M) complex array of (u, v) rows.  Each of the n_steps equal
    steps of length h from t multiplies y by exp(-i c.sigma) with

        c = (h b, h^3 a1 b / 6, h a(t + h/2)),

    the two-Gauss-point Magnus generator (Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)) written out for a Hamiltonian linear in t.
    Its exponential cos|c| - i sin|c| c.sigma / |c| is unitary to roundoff,
    so the state is never renormalized.
    """
    u, v = y
    if n_steps < 1:
        return np.stack([u, v])
    h = (t1 - t0) / n_steps
    cx = h * b
    cy = (h**3 * a1 / 6.0) * b
    cxy2 = cx * cx + cy * cy
    ha0 = h * a0
    for i in range(n_steps):
        cz = ha0 + h * a1 * (t0 + (i + 0.5) * h)
        norm = np.sqrt(cz * cz + cxy2)
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
    """Both branches of every momentum mode, marched forward together.

    The modes advance in equal steps no longer than the current step, and a
    coarse ensemble follows them from the start in half as many steps of
    twice the length.  For a fourth-order method the two decoherence
    factors differ by about 15 times the error of the fine one, so
    |D_fine - D_coarse| / 15 estimates the error of D.  Errors made before
    a critical crossing show up in D only after it, so the estimate covers
    the whole run: when it exceeds `tol` at an observation time, the step
    is halved and both ensembles are propagated again from t_start.  The
    step starts at `step`; IntegrationError is raised only when a step
    below step / 2**10 would be needed.  `error_estimate` is the largest
    estimate at any observation time.  Fixed steps (tol = inf) serve
    convergence tests.
    """

    def __init__(self, config: CentralConfig, step: float = STEP, tol: float = TOL):
        if not (step > 0.0 and tol > 0.0):
            raise ValueError(f"step and tol must be > 0, got {step}, {tol}")
        self.config = config
        self._min_step = step / 2**_MAX_HALVINGS
        self._tol = tol
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
        self._y0 = y / np.sqrt(np.abs(y[0]) ** 2 + np.abs(y[1]) ** 2)
        self.error_estimate = 0.0
        self.max_step_drift = 0.0
        self._restart(step)

    def _restart(self, step: float):
        self._step = step
        self._fine = self._coarse = self._y0
        self.t = self.config.t_start
        self.steps = 0

    def _propagate(self, y: np.ndarray, t: float, n_steps: int) -> np.ndarray:
        return _magnus(self._a0, self._b, self._a1, y, self.t, t, n_steps)

    def _pairs(self, t: float) -> int:
        h = _step_length(self._a0, self._b, self._a1, self.t, t, self._step)
        return max(math.ceil((t - self.t) / (2.0 * h) - 1e-9), 0)

    def advance(self, t: float) -> "ModeEnsemble":
        if t < self.t - 1e-12:
            raise ValueError(f"cannot integrate backwards: {t} < {self.t}")
        while True:
            pairs = self._pairs(t)
            fine = self._propagate(self._fine, t, 2 * pairs)
            coarse = self._propagate(self._coarse, t, pairs)
            err = abs(
                _overlap_product(_branch_overlaps(fine, self._n_modes))
                - _overlap_product(_branch_overlaps(coarse, self._n_modes))
            ) / 15.0
            if err <= self._tol:
                break
            if self._step / 2.0 < self._min_step:
                raise IntegrationError(
                    f"error estimate {err:.2e} of D exceeds tol = {self._tol:g} "
                    f"at the smallest step {self._step:.2e}",
                    t,
                )
            logger.debug("error estimate %.2e of D at t = %g: step %g halved", err, t, self._step)
            self._restart(self._step / 2.0)
        self._fine, self._coarse = fine, coarse
        self.t = t
        self.steps += 2 * pairs
        self.error_estimate = max(self.error_estimate, err)
        drift = float(np.max(np.abs(np.abs(fine[0]) ** 2 + np.abs(fine[1]) ** 2 - 1.0)))
        self.max_step_drift = max(self.max_step_drift, drift)
        return self

    def mode_overlaps(self) -> np.ndarray:
        """F_k = |<psi_k^+|psi_k^->|^2 for every positive momentum."""
        return _branch_overlaps(self._fine, self._n_modes)

    def decoherence_factor(self) -> float:
        return _overlap_product(self.mode_overlaps())


def evolve_mode(
    k: float, branch, config: CentralConfig, t_from: float, t_to: float, state: ModeState
) -> ModeState:
    """Advance one mode state under the branch Hamiltonian from t_from to t_to.

    Equal Magnus steps no longer than STEP, each rotating the state by at
    most _MAX_ANGLE; no error estimate.
    """
    if t_to < t_from - 1e-12:
        raise ValueError(f"cannot integrate backwards: {t_to} < {t_from}")
    a0 = np.array([2.0 * (1.0 + _branch_sign(branch) * config.delta + math.cos(k))])
    b = np.array([2.0 * config.gamma * math.sin(k)])
    a1 = -2.0 / config.tau
    h = _step_length(a0, b, a1, t_from, t_to, STEP)
    y = _magnus(
        a0, b, a1, np.array([[state.u], [state.v]], dtype=complex), t_from, t_to,
        max(math.ceil((t_to - t_from) / h - 1e-9), 0),
    )
    return ModeState(complex(y[0, 0]), complex(y[1, 0]))


def decoherence_factor(config: CentralConfig, t: float) -> float:
    """D(t) for a fresh run of the configured sweep (product over modes)."""
    return ModeEnsemble(config).advance(t).decoherence_factor()


def approx_Fk(k: float, t: float, delta: float, tau: float) -> float:
    """Weak-coupling per-mode overlap 1 - 4 sin^2(4 t delta) (e^{-2 pi tau k^2} - e^{-4 pi tau k^2}).

    k is the momentum offset from the critical mode of the band excited at the
    crossing, and t the time elapsed since that crossing.
    """
    g = math.exp(-2.0 * math.pi * tau * k * k) - math.exp(-4.0 * math.pi * tau * k * k)
    val = 1.0 - 4.0 * math.sin(4.0 * t * delta) ** 2 * g
    return min(max(val, 0.0), 1.0)


def weak_coupling_D(t: float, config: CentralConfig) -> float:
    """Closed-form decoherence factor exp(-8 (sqrt 2 - 1) N delta^2 t^2 / (pi sqrt tau)).

    Valid for delta -> 0 after the first critical crossing (t measured from
    it).  The adiabatic-mode fidelity prefactor deviates from 1 only at
    O(N delta^2) and is taken as exactly 1.
    """
    expo = (
        8.0
        * (math.sqrt(2.0) - 1.0)
        * config.n_spins
        * config.delta**2
        * t**2
        / (math.pi * math.sqrt(config.tau))
    )
    return math.exp(-expo)


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


def concurrence_werner(a: float, d: float) -> float:
    """Concurrence max[a (sqrt d + 1/2) - 1/2, 0] of the decohered Werner state."""
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"a must be in [0, 1], got {a}")
    if not (0.0 <= d <= 1.0):
        raise ValueError(f"decoherence factor must be in [0, 1], got {d}")
    return max(a * (math.sqrt(d) + 0.5) - 0.5, 0.0)


def trace_run(config: CentralConfig) -> DecoherenceTrace:
    """March the environment over config.t_grid and record (D, Q, C_nc) rows.

    All modes advance incrementally (never re-integrated from the start) and
    D is recorded at every observation time first.  The discord of the
    reduced qubit states, X states, then comes from one `xstate.discords`
    call over all of them.
    """
    ens = ModeEnsemble(config)
    ds = []
    for t in config.t_grid:
        ens.advance(t)
        ds.append(ens.decoherence_factor())
    logger.debug(
        "%d Magnus steps: error estimate of D %.2e, norm defect %.2e",
        ens.steps, ens.error_estimate, ens.max_step_drift,
    )
    return DecoherenceTrace(
        t=np.array(config.t_grid, dtype=float),
        h=np.array([config.h_of_t(t) for t in config.t_grid]),
        decoherence=np.array(ds),
        discord=discords([qubit_state(config.a, d) for d in ds]),
        concurrence=np.array([concurrence_werner(config.a, d) for d in ds]),
        max_step_drift=ens.max_step_drift,
        steps=ens.steps,
        error_estimate=ens.error_estimate,
    )
