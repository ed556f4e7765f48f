"""Excitation probabilities for linear sweeps and the mode-sum integrals built from them.

Each quench protocol drives one mode-decoupled chain through its gap-closing
points at inverse rate tau.  The probability that mode k ends up excited has a
closed Landau-Zener form; every final-state correlator used downstream is a
cosine moment of that probability over the Brillouin zone,

    beta_n = (1/pi) * integral_0^pi p_k cos(n k) dk.

beta_0 is the defect density.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import ive


class ProtocolKind(enum.Enum):
    """Which sweep is applied to the chain."""

    ISING = "ising"
    MULTICRITICAL = "multicritical"
    THREE_SPIN = "three-spin"


class QuadratureError(RuntimeError):
    """The midpoint rule missed `_TOL`, or would need more than `_M_CAP` nodes.

    Carries the best available estimate and its error bound so callers can
    decide whether to proceed anyway.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuenchProtocol:
    """A quench protocol: sweep kind, its couplings, and the inverse rate tau.

    tau = 0 is accepted and means the sudden limit (every mode stays excited);
    it is handled analytically downstream rather than by the moment formulas.
    """

    kind: ProtocolKind
    tau: float
    gamma: float | None = None
    j3: float | None = None

    def __post_init__(self):
        if not (self.tau >= 0.0) or not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if self.kind is ProtocolKind.ISING:
            if self.gamma is None or not (0.0 < self.gamma <= 1.0):
                raise ValueError(f"Ising quench requires 0 < gamma <= 1, got {self.gamma}")
            if self.j3 is not None:
                raise ValueError("j3 is only meaningful for the three-spin quench")
        elif self.kind is ProtocolKind.MULTICRITICAL:
            if self.gamma is not None or self.j3 is not None:
                raise ValueError("multicritical quench takes no gamma/j3 parameters")
        elif self.kind is ProtocolKind.THREE_SPIN:
            if self.j3 is None or self.j3 < 0.0:
                raise ValueError(f"three-spin quench requires j3 >= 0, got {self.j3}")
            if self.gamma is not None:
                raise ValueError("gamma is only meaningful for the Ising quench")

    @classmethod
    def ising(cls, gamma: float, tau: float) -> "QuenchProtocol":
        return cls(ProtocolKind.ISING, tau, gamma=gamma)

    @classmethod
    def multicritical(cls, tau: float) -> "QuenchProtocol":
        return cls(ProtocolKind.MULTICRITICAL, tau)

    @classmethod
    def three_spin(cls, j3: float, tau: float) -> "QuenchProtocol":
        return cls(ProtocolKind.THREE_SPIN, tau, j3=j3)


@dataclass(frozen=True)
class BetaSet:
    """Cosine moments beta_n of the excitation probability, for even n <= n_max."""

    n_max: int
    values: Mapping[int, float]

    def __post_init__(self):
        if self.n_max < 0 or self.n_max % 2 != 0:
            raise ValueError(f"n_max must be an even integer >= 0, got {self.n_max}")
        expected = set(range(0, self.n_max + 1, 2))
        if set(self.values) != expected:
            raise ValueError(f"values must hold exactly the even n in [0, {self.n_max}]")
        b0 = self.values[0]
        if not (-1e-12 <= b0 <= 1.0 + 1e-12):
            raise ValueError(f"beta_0 = {b0} outside [0, 1]")
        for n, b in self.values.items():
            if abs(b) > b0 + 1e-10:
                raise ValueError(f"|beta_{n}| = {abs(b)} exceeds beta_0 = {b0}")

    def __getitem__(self, n: int) -> float:
        return self.values[n]


def excitation_probability(protocol: QuenchProtocol, k) -> float | np.ndarray:
    """Probability that mode k is excited after the sweep.

    Accepts scalar or array k in [0, pi].  Closed forms per protocol:
    exp(-pi tau gamma^2 sin^2 k) for the Ising sweep,
    exp(-pi tau (1+cos k)^2 sin^2 k) along the multicritical path, and
    exp(-pi tau (sin k - J3 sin 2k)^2) for the three-spin chain.
    """
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


# Multicritical and three-spin moments: p_k cos(n k) is smooth, even and
# 2 pi-periodic in k, so the M-point midpoint rule on [0, pi] converges
# exponentially and |beta(M) - beta(M/2)| estimates its error.  The narrowest
# feature is the spike exp(-pi tau s^2 k^2) at the steepest simple zero
# (slope s) of the exponent's prefactor.  Its spectrum falls as
# exp(-w^2 / (4 pi tau s^2)) and the M/2 grid aliases frequency M, so with
# M >= 24 s sqrt(tau) + n both grids alias below e^-45.  M is chosen from tau,
# not doubled from a small grid: a grid much coarser than the spike misses it
# at M and M/2 alike, and the two values then agree falsely.
_M_FLOOR = 512  # small tau, where p_k is not a single spike
_M_CAP = 2**22  # serves every j3 <= 1.5 up to tau = 1.9e9, multicritical to 7.6e9
_TOL = 1e-12


def _midpoint(protocol: QuenchProtocol, n: int, m: int) -> float:
    k = (np.arange(m) + 0.5) * (np.pi / m)
    return float(np.mean(excitation_probability(protocol, k) * np.cos(n * k)))


def _midpoint_beta(protocol: QuenchProtocol, n: int) -> float:
    # steepest zero: (1 + cos k) sin k at k = 0, sin k - J3 sin 2k at k = pi
    slope = 2.0 if protocol.kind is ProtocolKind.MULTICRITICAL else 1.0 + 2.0 * protocol.j3
    m = max(_M_FLOOR, 2 ** math.ceil(math.log2(24.0 * slope * math.sqrt(protocol.tau) + n)))
    fine = _midpoint(protocol, n, min(m, _M_CAP))
    error = abs(fine - _midpoint(protocol, n, min(m, _M_CAP) // 2))
    if m > _M_CAP:
        # the capped grid may miss the whole spike, of mass 1/(2 pi s sqrt(tau))
        error = max(error, 1.0 / (2.0 * math.pi * slope * math.sqrt(protocol.tau)))
    if m > _M_CAP or error > _TOL:
        raise QuadratureError(
            f"beta_{n} for {protocol} needs {m} midpoint nodes (cap {_M_CAP}, tolerance {_TOL})",
            fine,
            error,
        )
    return fine


def _ising_beta(protocol: QuenchProtocol, n: int) -> float:
    # (1/pi) int_0^pi exp(-a sin^2 k) cos(n k) dk = e^{-a/2} I_{n/2}(a/2) for
    # even n; odd n vanish by the k -> pi - k symmetry
    if n % 2:
        return 0.0
    x = 0.5 * math.pi * protocol.tau * protocol.gamma**2
    value = float(ive(n // 2, x))
    if math.isnan(value):  # ive gives up above x ~ 1e9: large-argument series
        value = (1.0 - (n * n - 1.0) / (8.0 * x)) / math.sqrt(2.0 * math.pi * x)
    return value


def beta_n(protocol: QuenchProtocol, n: int) -> float:
    """Cosine moment (1/pi) * integral_0^pi p_k cos(n k) dk.

    Ising moments use the Bessel closed form e^{-a/2} I_{n/2}(a/2) with
    a = pi tau gamma^2 (exactly 0 for odd n).  The other protocols use the
    midpoint rule on a grid chosen from tau; their odd moments are computed,
    since p_k lacks the k -> pi - k symmetry.  Raises `QuadratureError` when
    the midpoint rule cannot reach `_TOL` within `_M_CAP` nodes.
    """
    if n < 0 or int(n) != n:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if protocol.tau == 0.0:
        # Sudden limit: p_k == 1, and the cosine integrates to zero unless n == 0.
        return 1.0 if n == 0 else 0.0
    if protocol.kind is ProtocolKind.ISING:
        return _ising_beta(protocol, n)
    return _midpoint_beta(protocol, n)


def compute_betas(protocol: QuenchProtocol, n_max: int) -> BetaSet:
    """Evaluate all even moments up to n_max with `beta_n`."""
    values = {n: beta_n(protocol, n) for n in range(0, n_max + 1, 2)}
    return BetaSet(n_max=n_max, values=values)


def defect_density(protocol: QuenchProtocol) -> float:
    """Density of excited modes after the sweep; equals beta_0."""
    return beta_n(protocol, 0)
