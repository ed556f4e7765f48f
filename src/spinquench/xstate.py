"""Two-qubit X-state algebra: entropies, mutual information, discord, concurrence.

States are `XStateDensityMatrix` instances, whose only nonzero entries sit
on the diagonal and anti-diagonal (basis |A> tensor |B>, ordering uu, ud, du,
dd).  Every measure takes X states only.  Two dense helpers,
`conditional_entropy` and `concurrence_wootters`, also take a 4x4 matrix:
the benchmark reads them, and the tests use them as oracles.  All entropies
are in bits with the 0 log 0 = 0 convention.

The classical correlation maximizes the information a projective measurement
on qubit B yields about qubit A, over the full Bloch sphere of measurement
directions; discord is mutual information minus that maximum.  For an X
state the best azimuth is known in closed form, so the search is over the
polar angle alone.  That search runs over a whole batch of states in one
array pass (`classical_correlations`), and `correlations` gives every
measure of a batch in one call: the sweeps, the central-qubit trace and
`quench.measure_state` all read it, and it alone clamps C <= I and Q >= 0
and marks failed states.  The single-state functions are batches of one,
and a state's result does not depend on the rest of its batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_EIG_CLAMP = 1e-12  # eigenvalues in [-clamp, 0) are quadrature/roundoff noise
_CLAMP_TOL = 1e-10  # correlator populations in [-tol, 0) are quadrature noise


@dataclass(frozen=True)
class CorrelatorSet:
    """Two-site spin correlators defining a translation-invariant two-qubit state.

    c1 = <sx sx>, c2 = <sy sy>, c3 = <sz sz>, c4 = <sz> (equal on both sites).
    """

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            v = getattr(self, name)
            if not (-1.0 - 1e-9 <= v <= 1.0 + 1e-9):
                raise ValueError(f"{name} = {v} outside [-1, 1]")


@dataclass(frozen=True)
class XStateDensityMatrix:
    """Two-qubit state with populations (a_plus, a_zero, a_zero, a_minus) and
    anti-diagonal coherences b1 (uu <-> dd) and b2 (ud <-> du)."""

    a_plus: float
    a_minus: float
    a_zero: float
    b1: complex = 0.0
    b2: complex = 0.0

    def __post_init__(self):
        tr = self.a_plus + self.a_minus + 2.0 * self.a_zero
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace = {tr}, expected 1")
        for name in ("a_plus", "a_minus", "a_zero"):
            if getattr(self, name) < -_EIG_CLAMP:
                raise ValueError(f"population {name} = {getattr(self, name)} < 0")
        if abs(self.b1) > math.sqrt(max(self.a_plus * self.a_minus, 0.0)) + 1e-9:
            raise ValueError("positivity violated: |b1| > sqrt(a_plus a_minus)")
        if abs(self.b2) > self.a_zero + 1e-9:
            raise ValueError("positivity violated: |b2| > a_zero")

    def to_matrix(self) -> np.ndarray:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = self.a_plus
        rho[1, 1] = rho[2, 2] = self.a_zero
        rho[3, 3] = self.a_minus
        rho[0, 3] = self.b1
        rho[3, 0] = np.conj(self.b1)
        rho[1, 2] = self.b2
        rho[2, 1] = np.conj(self.b2)
        return rho

    def eigenvalues(self) -> np.ndarray:
        """Closed-form eigenvalues (outer block pair first, then inner pair)."""
        mean = 0.5 * (self.a_plus + self.a_minus)
        disc = math.hypot(0.5 * (self.a_plus - self.a_minus), abs(self.b1))
        return np.array(
            [mean + disc, mean - disc, self.a_zero + abs(self.b2), self.a_zero - abs(self.b2)]
        )


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement direction on the Bloch sphere of qubit B.

    The two projectors are V|0><0|V^dag and V|1><1|V^dag with
    V = [[cos t/2, sin t/2 e^{-i p}], [sin t/2 e^{i p}, -cos t/2]].
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError(f"theta = {self.theta} outside [0, pi]")
        if not (0.0 <= self.phi < 2.0 * np.pi):
            raise ValueError(f"phi = {self.phi} outside [0, 2 pi)")


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation measures of one two-qubit state, entropies in bits."""

    mutual_information: float
    classical_correlation: float
    discord: float
    concurrence: float
    argmax_basis: MeasurementBasis

    def __post_init__(self):
        if self.classical_correlation < -1e-9 or self.discord < -1e-9:
            raise ValueError("negative correlation measure")
        if self.mutual_information < self.classical_correlation - 1e-9:
            raise ValueError("classical correlation exceeds mutual information")
        if self.concurrence < -1e-12 or self.concurrence > 1.0 + 1e-9:
            raise ValueError(f"concurrence = {self.concurrence} outside [0, 1]")


def _entropy_bits(eigs: np.ndarray) -> float:
    eigs = np.asarray(eigs, dtype=float)
    if np.any(eigs < -_EIG_CLAMP):
        raise ValueError(f"eigenvalue below -{_EIG_CLAMP}: {eigs.min()}")
    eigs = np.clip(eigs, 0.0, None)
    pos = eigs[eigs > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def _xlog2(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, XStateDensityMatrix):
        return rho.to_matrix()
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {arr.shape}")
    if abs(np.trace(arr) - 1.0) > 1e-9:
        raise ValueError(f"trace = {np.trace(arr)}, expected 1")
    if np.max(np.abs(arr - arr.conj().T)) > 1e-9:
        raise ValueError("density matrix is not Hermitian")
    return arr


def build_xstate(c: CorrelatorSet) -> XStateDensityMatrix:
    """Assemble the X state whose correlators are `c`.

    Populations that come out negative by no more than _CLAMP_TOL (quadrature
    noise in the correlators) are clamped to zero; anything worse raises,
    signalling an inconsistent correlator set.
    """
    raw = {
        "a_plus": (1.0 + c.c3 + 2.0 * c.c4) / 4.0,
        "a_minus": (1.0 + c.c3 - 2.0 * c.c4) / 4.0,
        "a_zero": (1.0 - c.c3) / 4.0,
    }
    clamped = {}
    for name, v in raw.items():
        if v < -_CLAMP_TOL:
            raise ValueError(f"correlators give {name} = {v}; not a density matrix")
        clamped[name] = max(v, 0.0)
    return XStateDensityMatrix(
        b1=complex((c.c1 - c.c2) / 4.0), b2=complex((c.c1 + c.c2) / 4.0), **clamped
    )


def _polarization_entropy(c4: np.ndarray) -> np.ndarray:
    c4 = np.clip(c4, -1.0, 1.0)
    return -(_xlog2((1.0 + c4) / 2.0) + _xlog2((1.0 - c4) / 2.0))


def subsystem_entropy(c4):
    """Entropy in bits of a single qubit with polarization <sz> = c4.

    Takes a float or, elementwise, an array of polarizations.
    """
    c4 = np.asarray(c4, dtype=float)
    if np.any(np.abs(c4) > 1.0 + 1e-12):
        raise ValueError(f"|c4| = {np.abs(c4).max()} exceeds 1")
    s = _polarization_entropy(c4)
    return float(s) if s.ndim == 0 else s


def _require_xstates(states, what: str):
    for rho in states:
        if not isinstance(rho, XStateDensityMatrix):
            raise ValueError(f"{what} needs an XStateDensityMatrix, got {type(rho).__name__}")


def mutual_informations(states: list[XStateDensityMatrix]) -> np.ndarray:
    """I = s(rho_A) + s(rho_B) - s(rho) in bits of every X state, in one array pass.

    Both qubits of an X state have polarization <sz> = a_plus - a_minus.  A
    state with an eigenvalue below -`_EIG_CLAMP` (or a polarization beyond
    1) gets NaN, and only that state; every other entry is what the state
    gives on its own.
    """
    _require_xstates(states, "mutual_informations")
    eigs = np.array([s.eigenvalues() for s in states], dtype=float).reshape(-1, 4)
    z = np.array([s.a_plus - s.a_minus for s in states], dtype=float)
    joint = -np.sum(_xlog2(eigs), axis=1)
    val = 2.0 * _polarization_entropy(z) - joint
    bad = np.any(eigs < -_EIG_CLAMP, axis=1) | (np.abs(z) > 1.0 + 1e-12)
    return np.where(bad, np.nan, np.where(0.0 > val, 0.0, val))


def mutual_information(rho: XStateDensityMatrix) -> float:
    """I = s(rho_A) + s(rho_B) - s(rho) in bits: a batch of one of `mutual_informations`.

    Dense matrices are rejected.
    """
    val = float(mutual_informations([rho])[0])
    if math.isnan(val):
        raise ValueError(f"eigenvalue below -{_EIG_CLAMP}: {rho.eigenvalues().min()}")
    return val


def conditional_entropy(rho, theta: float, phi: float) -> float:
    """Average post-measurement entropy of qubit A, measuring B along (theta, phi).

    `classical_correlation` minimizes the same quantity in closed form over
    phi; outcomes with vanishing probability contribute zero (the
    p s(rho) -> 0 limit).
    """
    arr = _as_matrix(rho)
    r = arr.reshape(2, 2, 2, 2)
    w = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])
    m = np.einsum("b,abcd,d->ac", w.conj(), r, w)
    rho_a = np.einsum("abcb->ac", r)
    total = 0.0
    for mk in (m, rho_a - m):
        p = float(np.trace(mk).real)
        if p < 1e-15:
            continue
        half = 0.5 * (mk[0, 0].real - mk[1, 1].real)
        disc = math.hypot(half, abs(mk[0, 1]))
        lam = np.array([0.5 * p + disc, 0.5 * p - disc])
        total += p * _entropy_bits(np.clip(lam, 0.0, None) / p)
    return total


def _polar_entropies(z: np.ndarray, zz: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Conditional entropy of A after measuring B at cos(theta) = c and the best phi.

    In Pauli form rho = (1/4) sum T_uv s_u x s_v, both reduced Bloch vectors
    are (0, 0, z) and the transverse block of T has largest singular value
    t = 2(|b1| + |b2|).  Outcome +-1 occurs with p = (1 +- z c)/2 and leaves
    A with eigenvalues p/2 +- |(0, 0, z) +- T n|/4, where
    |(0, 0, z) +- T n|^2 = (z +- zz c)^2 + t^2 (1 - c^2) at the best phi.
    The per-state parameters (z, zz, t) broadcast against the samples c.
    """
    transverse = t * t * (1.0 - c * c)
    total = 0.0
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * z * c)
        half = 0.25 * np.sqrt((z + sign * zz * c) ** 2 + transverse)
        # p * H(lam/p) = -sum xlog2(lam) + xlog2(p), avoiding division by
        # p ~ 0; _xlog2 reads roundoff-negative arguments as 0
        total = total + (-_xlog2(0.5 * p + half) - _xlog2(0.5 * p - half) + _xlog2(p))
    return total


_COS_GRID = np.linspace(0.0, 1.0, 65)  # contains both endpoints exactly
_ZOOM = np.linspace(0.0, 1.0, 17)
_ZOOM_ROUNDS = 10  # each round narrows a bracket 8-fold: 1/32 -> 3e-11
_ROUNDOFF = 1e-14  # an interior sample must beat both endpoints by more than this


def _best_cos_theta(z: np.ndarray, zz: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c*, S(c*)) minimizing `_polar_entropies` over c in [0, 1], one entry per state.

    Both endpoints are evaluated exactly.  Every local minimum of a state's
    samples on `_COS_GRID` (an endpoint counts when it is below its one
    neighbour) opens a bracket reaching to the neighbouring samples, so an
    interior minimum next to an endpoint is searched too; each bracket is
    zoomed onto its lowest sample.  The brackets of all states are zoomed
    together, one (brackets, 17) array per round.  A state's best sample is
    its first minimum in the order grid, then rounds, then its brackets in
    grid order, then samples; it wins only if it beats the state's better
    endpoint by more than roundoff.  A state's result depends on its own
    parameters alone.
    """
    rows = np.arange(len(z))
    z, zz, t = z[:, None], zz[:, None], t[:, None]
    grid_vals = _polar_entropies(z, zz, t, _COS_GRID)
    left = np.ones(grid_vals.shape, dtype=bool)
    left[:, 1:] = grid_vals[:, 1:] <= grid_vals[:, :-1]
    right = np.ones(grid_vals.shape, dtype=bool)
    right[:, :-1] = grid_vals[:, :-1] <= grid_vals[:, 1:]
    # row-major order: each state's brackets are contiguous and in grid order
    owner, idx = np.nonzero(left & right)
    lo = _COS_GRID[np.maximum(idx - 1, 0)]
    hi = _COS_GRID[np.minimum(idx + 1, len(_COS_GRID) - 1)]
    j = np.argmin(grid_vals, axis=1)
    best_c, best_v = _COS_GRID[j], grid_vals[rows, j]
    brackets = np.arange(len(idx))
    zb, zzb, tb = z[owner], zz[owner], t[owner]
    cs, vals = [], []  # each bracket's lowest sample in each round
    for _ in range(_ZOOM_ROUNDS):
        pts = lo[:, None] + (hi - lo)[:, None] * _ZOOM
        pv = _polar_entropies(zb, zzb, tb, pts)
        j = np.argmin(pv, axis=1)
        cs.append(pts[brackets, j])
        vals.append(pv[brackets, j])
        lo = pts[brackets, np.maximum(j - 1, 0)]
        hi = pts[brackets, np.minimum(j + 1, len(_ZOOM) - 1)]
    # each state's first lowest of those, in round-then-bracket order (lexsort
    # is stable), replaces its grid minimum only if strictly lower
    cs, vals = np.concatenate(cs), np.concatenate(vals)
    owners = np.tile(owner, _ZOOM_ROUNDS)
    order = np.lexsort((vals, owners))
    lead = order[np.diff(owners[order], prepend=-1) != 0]
    lead = lead[vals[lead] < best_v[owners[lead]]]
    best_c[owners[lead]] = cs[lead]
    best_v[owners[lead]] = vals[lead]
    end = np.where(grid_vals[:, 0] <= grid_vals[:, -1], 0, -1)
    end_v = grid_vals[rows, end]
    interior = best_v < end_v - _ROUNDOFF
    return np.where(interior, best_c, _COS_GRID[end]), np.where(interior, best_v, end_v)


def _best_phi(state: XStateDensityMatrix) -> float:
    # the transverse block maps the B direction (cos phi, sin phi) to
    # 2|b2| (cos(phi - arg b2), sin(phi - arg b2)) + 2|b1| (cos(phi + arg b1),
    # -sin(phi + arg b1)); the two align, and the norm peaks, at
    # phi = (arg b2 - arg b1) / 2 modulo pi.  x % pi lies in [0, pi] even when
    # it rounds up, so phi stays inside [0, 2 pi).
    return (cmath.phase(state.b2) - cmath.phase(state.b1)) / 2.0 % math.pi


def classical_correlations(
    states: list[XStateDensityMatrix],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical correlation of every X state in `states`, in one array pass.

    For an X state the best azimuth phi has a closed form (`_best_phi`), and
    what is left depends on c = cos(theta) alone; theta and pi - theta are the
    same measurement, so c runs over [0, 1] (`_best_cos_theta`, which searches
    all states at once).  Returns arrays (value in bits, theta, phi) with one
    entry per state; each entry is what the state gives in a batch of its
    own.  Dense matrices are rejected.
    """
    _require_xstates(states, "classical_correlation")
    z = np.array([s.a_plus - s.a_minus for s in states], dtype=float)
    zz = np.array([s.a_plus + s.a_minus - 2.0 * s.a_zero for s in states], dtype=float)
    t = np.array([2.0 * (abs(s.b1) + abs(s.b2)) for s in states], dtype=float)
    c_best, s_min = _best_cos_theta(z, zz, t)
    value = subsystem_entropy(z) - s_min
    # theta and phi from libm per state: numpy's SIMD arccos and angle round
    # differently in the last bit
    theta = np.array([math.acos(c) for c in c_best], dtype=float)
    phi = np.array([_best_phi(s) for s in states], dtype=float)
    return np.where(value < 0.0, 0.0, value), theta, phi


def classical_correlation(rho: XStateDensityMatrix) -> tuple[float, MeasurementBasis]:
    """Maximal information about A extractable by a projective measurement on B.

    A batch of one of `classical_correlations`: the value in bits and the
    maximizing basis.
    """
    value, theta, phi = classical_correlations([rho])
    return float(value[0]), MeasurementBasis(float(theta[0]), float(phi[0]))


def concurrences(states: list[XStateDensityMatrix]) -> np.ndarray:
    """Concurrence of every X state from the closed form
    max{0, 2(|b2| - sqrt(a_plus a_minus)), 2(|b1| - a_zero)}, in one array pass.

    The maxima keep Python's `max` order and tie rule, so each entry is the
    one `concurrence_xstate` gives the state on its own.
    """
    _require_xstates(states, "concurrences")
    a_plus = np.array([s.a_plus for s in states], dtype=float)
    a_minus = np.array([s.a_minus for s in states], dtype=float)
    a_zero = np.array([s.a_zero for s in states], dtype=float)
    # |b| per state from Python's complex abs: numpy's rounds differently
    b1 = np.array([abs(s.b1) for s in states], dtype=float)
    b2 = np.array([abs(s.b2) for s in states], dtype=float)
    prod = a_plus * a_minus
    inner = 2.0 * (b2 - np.sqrt(np.where(0.0 > prod, 0.0, prod)))
    outer = 2.0 * (b1 - a_zero)
    best = np.where(inner > 0.0, inner, 0.0)
    return np.where(outer > best, outer, best)


def concurrence_xstate(state: XStateDensityMatrix) -> float:
    """Concurrence of one X state: a batch of one of `concurrences`."""
    return float(concurrences([state])[0])


def correlations(states: list[XStateDensityMatrix]) -> dict[str, np.ndarray]:
    """Every measure of every X state, keyed by CSV column: "I", "C", "Q",
    "Cnc", and the maximizing basis "theta", "phi".

    The one place that clamps and decides failures.  C = min(C, I) and
    Q = max(I - C, 0), with Python's `min`/`max` tie rule per state (so a
    -0.0 stays where they keep it); a state with an eigenvalue below
    -`_EIG_CLAMP` gets NaN in I, C and Q, and only there.  C above I by more
    than 1e-9 is an optimizer bug and raises RuntimeError.
    """
    i = mutual_informations(states)
    c, theta, phi = classical_correlations(states)
    q = i - c
    if np.any(q < -1e-9):
        k = int(np.argmax(q < -1e-9))
        raise RuntimeError(f"state {k}: optimizer produced C > I by {-q[k]}; this is a bug")
    return {
        # min(c, i) keeps c unless i < c; a NaN i (failed state) is kept too
        "I": i, "C": np.where(c <= i, c, i), "Q": np.where(0.0 > q, 0.0, q),
        "Cnc": concurrences(states), "theta": theta, "phi": phi,
    }


def discord(rho) -> float:
    """Quantum discord Q = I - C in bits (measurement on B): a batch of one of `correlations`."""
    val = float(correlations([rho])["Q"][0])
    if math.isnan(val):
        raise ValueError(f"eigenvalue below -{_EIG_CLAMP}: {rho.eigenvalues().min()}")
    return val


_SYSY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def concurrence_wootters(rho) -> float:
    """Spin-flip concurrence of an arbitrary two-qubit density matrix.

    Eigenvalues of rho (sy tensor sy) rho* (sy tensor sy) in decreasing order
    give C = max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)}.
    """
    arr = _as_matrix(rho)
    rho_tilde = arr @ _SYSY @ arr.conj() @ _SYSY
    try:
        eigs = np.linalg.eigvals(rho_tilde)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger on 4x4
        raise RuntimeError(f"eigen-solver failed on rho_tilde = {rho_tilde!r}") from exc
    # the product is similar to a PSD matrix; tiny negative/imaginary parts
    # are roundoff
    lam = np.sort(np.clip(eigs.real, 0.0, None))[::-1]
    root = np.sqrt(lam)
    return max(0.0, float(root[0] - root[1] - root[2] - root[3]))
