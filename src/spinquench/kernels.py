"""Excitation probabilities for linear sweeps and the mode-sum integrals built from them.

Each quench protocol drives one mode-decoupled chain through its gap-closing
points at inverse rate tau.  The probability that mode k ends up excited has a
closed Landau-Zener form; every final-state correlator used downstream is a
cosine moment of that probability over the Brillouin zone,

    beta_n = (1/pi) * integral_0^pi p_k cos(n k) dk.

beta_0 is the defect density.  `moment_table` computes the moments of a
batch of protocols (the rows of a sweep) together, and `MomentTable.betas`
hands one row on as a dict keyed by n once 0 <= beta_0 <= 1 and
|beta_n| <= beta_0 hold; `beta_n` and `compute_betas` are batches of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ProtocolKind(enum.Enum):
    """Which sweep is applied to the chain."""

    ISING = "ising"
    MULTICRITICAL = "multicritical"
    THREE_SPIN = "three-spin"


class QuadratureError(RuntimeError):
    """A row's moments missed `_TOL`, or would need more than `_M_CAP` nodes.

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
            if self.j3 is None or not (self.j3 >= 0.0) or not math.isfinite(self.j3):
                raise ValueError(f"three-spin quench requires finite j3 >= 0, got {self.j3}")
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


def _exponent(kind: ProtocolKind, gamma, j3, k):
    # f(k) in p_k = exp(-pi tau f(k)); gamma and j3 broadcast against k
    if kind is ProtocolKind.ISING:
        return gamma**2 * np.sin(k) ** 2
    if kind is ProtocolKind.MULTICRITICAL:
        return (1.0 + np.cos(k)) ** 2 * np.sin(k) ** 2
    return (np.sin(k) - j3 * np.sin(2.0 * k)) ** 2


# p_k cos(n k) is smooth, even and 2 pi-periodic in k for every protocol, so
# the M-point midpoint rule on [0, pi] converges exponentially and
# |beta(M) - beta(M/2)| estimates its error.  The narrowest feature is the
# spike exp(-pi tau s^2 k^2) at the steepest simple zero (slope s) of the
# exponent's prefactor.  Its spectrum falls as exp(-w^2 / (4 pi tau s^2))
# and the M/2 grid aliases frequency M, so with M >= 24 s sqrt(tau) + n both
# grids alias below e^-45.  M is chosen from tau, not doubled from a small
# grid: a grid much coarser than the spike misses it at M and M/2 alike, and
# the two values then agree falsely.  A row takes all its moments from one
# grid pair, sized for its largest n.
_M_FLOOR = 512  # small tau, where p_k is not a single spike
_M_CAP = 2**22  # serves every j3 <= 1.5 up to tau = 1.9e9, multicritical to 7.6e9
_TOL = 1e-12

# Ising rows far on the adiabatic side take the large-argument series
# beta_n = e^{-x} I_m(x) ~ (2 pi x)^{-1/2} sum_k t_k, x = pi tau gamma^2 / 2,
# m = n/2, t_0 = 1, t_k = t_{k-1} (-(4 m^2 - (2k - 1)^2) / (8 k x))
# (DLMF 10.40.1), summed over k < _SERIES_TERMS.  Its error bound is the first
# omitted term |t_K| (DLMF 10.40(ii)) plus 2 K eps sum |t_k| for rounding: K
# terms of at most K factors each.  _X_SERIES is the smallest integer x at
# which |t_K| <= eps |sum t_k| for every n <= 58, so that from there on the
# truncation is below rounding; a row whose bound still misses _TOL (much
# larger n) takes the midpoint rule.  Below the crossover the midpoint rule
# needs 512 nodes for n <= 58.
_SERIES_TERMS = 16
_X_SERIES = 552.0


def _slope(protocol: QuenchProtocol) -> float:
    # steepest zero: gamma sin k at k = 0, (1 + cos k) sin k at k = 0,
    # sin k - J3 sin 2k at k = pi
    if protocol.kind is ProtocolKind.ISING:
        return protocol.gamma
    if protocol.kind is ProtocolKind.MULTICRITICAL:
        return 2.0
    return 1.0 + 2.0 * protocol.j3


def _nodes(protocol: QuenchProtocol, n_max: int) -> int:
    need = 24.0 * _slope(protocol) * math.sqrt(protocol.tau) + n_max
    return max(_M_FLOOR, 2 ** math.ceil(math.log2(need)))


def _grid_moments(
    kind: ProtocolKind, protocols: Sequence[QuenchProtocol], m: int, ns: Sequence[int]
) -> np.ndarray:
    """Midpoint rule on m nodes: moments (rows, len(ns)) of protocols of one kind.

    One (rows, m) array of p_k serves every n.
    """
    k = (np.arange(m) + 0.5) * (np.pi / m)
    tau = np.array([p.tau for p in protocols])[:, None]
    gamma = np.array([p.gamma for p in protocols], dtype=float)[:, None]
    j3 = np.array([p.j3 for p in protocols], dtype=float)[:, None]
    p = np.exp(-np.pi * tau * _exponent(kind, gamma, j3, k))
    out = np.empty((len(protocols), len(ns)))
    for j, n in enumerate(ns):
        out[:, j] = np.mean(p * np.cos(n * k), axis=1)
    return out


def _series_moments(x: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DLMF 10.40.1 for e^{-x} I_{n/2}(x): (values, error bounds), rows x, columns ns."""
    k = np.arange(1, _SERIES_TERMS + 1)
    factors = -((ns * ns)[None, :, None] - ((2 * k - 1) ** 2)[None, None, :]) / (
        (8 * k)[None, None, :] * x[:, None, None]
    )
    t = np.cumprod(factors, axis=-1)  # t_1 .. t_K
    terms = np.concatenate([np.ones(t.shape[:-1] + (1,)), t[..., :-1]], axis=-1)
    scale = 1.0 / np.sqrt(2.0 * np.pi * x)[:, None]
    rounding = 2 * _SERIES_TERMS * np.finfo(float).eps * np.abs(terms).sum(axis=-1)
    return scale * terms.sum(axis=-1), scale * (np.abs(t[..., -1]) + rounding)


@dataclass(frozen=True)
class MomentTable:
    """Moments beta_n of a batch of protocols: one row per protocol, one column per n.

    `errors` holds each moment's error estimate: |beta(M) - beta(M/2)| on the
    midpoint rule (at least the spike's mass past the node cap), the series'
    bound, 0 where exact.  `nodes` is a row's midpoint-rule M, which exceeds
    `_M_CAP` for a row the cap could not serve; it is 0 for the sudden limit
    and for series rows.
    """

    protocols: tuple[QuenchProtocol, ...]
    ns: tuple[int, ...]
    values: np.ndarray
    errors: np.ndarray
    nodes: tuple[int, ...]

    def row(self, i: int) -> np.ndarray:
        """Row i's moments; raises the row's own `QuadratureError` when it
        missed `_TOL` or the node cap."""
        err, m = self.errors[i], self.nodes[i]
        if m > _M_CAP or np.any(err > _TOL):
            j = int(np.argmax(err))
            raise QuadratureError(
                f"beta_{self.ns[j]} for {self.protocols[i]} needs {m} midpoint nodes "
                f"(cap {_M_CAP}, tolerance {_TOL})",
                float(self.values[i, j]),
                float(err[j]),
            )
        return self.values[i]

    def betas(self, i: int) -> dict[int, float]:
        """Row i as a dict keyed by n (`row`); raises `ValueError` when beta_0
        lies outside [0, 1] or some |beta_n| exceeds beta_0."""
        values = dict(zip(self.ns, self.row(i).tolist()))
        b0 = values[0]
        if not (-1e-12 <= b0 <= 1.0 + 1e-12):
            raise ValueError(f"beta_0 = {b0} outside [0, 1]")
        for n, b in values.items():
            if abs(b) > b0 + 1e-10:
                raise ValueError(f"|beta_{n}| = {abs(b)} exceeds beta_0 = {b0}")
        return values


def moment_table(protocols: Sequence[QuenchProtocol], ns: Sequence[int]) -> MomentTable:
    """Cosine moments (1/pi) * integral_0^pi p_k cos(n k) dk for every n in ns
    of every protocol.

    tau = 0 rows are exact (p_k == 1).  An Ising row with
    x = pi tau gamma^2 / 2 >= `_X_SERIES` takes the large-argument series when
    its bound meets `_TOL` for every n; every other row takes the midpoint
    rule.  Midpoint rows are grouped by protocol kind and M, in chunks of at
    most `_M_CAP` grid points, and each chunk's moments come from one
    (rows, M) and one (rows, M/2) array of p_k.  Ising odd moments are exactly
    0 (k -> pi - k symmetry); the other protocols' are computed.  Each row's
    values are the ones it gets in a batch of its own; a row that failed
    raises only from `MomentTable.row`.
    """
    protocols = tuple(protocols)
    ns = tuple(ns)
    for n in ns:
        if n < 0 or int(n) != n:
            raise ValueError(f"n must be a nonnegative integer, got {n}")
    ns = tuple(int(n) for n in ns)
    n_arr = np.array(ns, dtype=float)
    odd = n_arr % 2 == 1
    values = np.zeros((len(protocols), len(ns)))
    errors = np.zeros_like(values)
    nodes = [0] * len(protocols)

    ising = [i for i, p in enumerate(protocols) if p.kind is ProtocolKind.ISING]
    x = {i: 0.5 * math.pi * protocols[i].tau * protocols[i].gamma**2 for i in ising}
    far = [i for i in ising if x[i] >= _X_SERIES]
    on_series = set()
    if far:
        val, bound = _series_moments(np.array([x[i] for i in far]), n_arr)
        bound[:, odd] = 0.0  # set to exactly 0 below
        for i, v, b in zip(far, val, bound):
            if np.all(b <= _TOL):
                values[i], errors[i] = v, b
                on_series.add(i)

    groups: dict[tuple[ProtocolKind, int], list[int]] = {}
    for i, p in enumerate(protocols):
        if p.tau == 0.0:
            values[i] = n_arr == 0  # sudden limit: p_k == 1
        elif i not in on_series:
            nodes[i] = _nodes(p, max(ns, default=0))
            groups.setdefault((p.kind, min(nodes[i], _M_CAP)), []).append(i)
    for (kind, m), rows in groups.items():
        per_pass = max(1, _M_CAP // m)
        for start in range(0, len(rows), per_pass):
            chunk = rows[start : start + per_pass]
            batch = [protocols[i] for i in chunk]
            fine = _grid_moments(kind, batch, m, ns)
            values[chunk] = fine
            errors[chunk] = np.abs(fine - _grid_moments(kind, batch, m // 2, ns))
    for i in [i for i, m in enumerate(nodes) if m > _M_CAP]:
        # the capped grid may miss the whole spike, of mass 1/(2 pi s sqrt(tau))
        p = protocols[i]
        errors[i] = np.maximum(errors[i], 1.0 / (2.0 * math.pi * _slope(p) * math.sqrt(p.tau)))
    values[np.ix_(ising, odd)] = 0.0
    errors[np.ix_(ising, odd)] = 0.0
    return MomentTable(protocols, ns, values, errors, tuple(nodes))


def beta_n(protocol: QuenchProtocol, n: int) -> float:
    """Cosine moment (1/pi) * integral_0^pi p_k cos(n k) dk: a batch of one
    of `moment_table`.

    Raises `QuadratureError` when the moment cannot reach `_TOL` within
    `_M_CAP` midpoint nodes.
    """
    return float(moment_table([protocol], [n]).row(0)[0])


def compute_betas(protocol: QuenchProtocol, n_max: int) -> dict[int, float]:
    """All even moments up to n_max from one `moment_table` row, keyed by n."""
    if n_max < 0 or n_max % 2 != 0:
        raise ValueError(f"n_max must be an even integer >= 0, got {n_max}")
    return moment_table([protocol], range(0, n_max + 1, 2)).betas(0)


def defect_density(protocol: QuenchProtocol) -> float:
    """Density of excited modes after the sweep; equals beta_0."""
    return beta_n(protocol, 0)
