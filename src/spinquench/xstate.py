"""Two-qubit X-state algebra: entropies, mutual information, discord, concurrence.

One state is an `XStateDensityMatrix`, whose only nonzero entries sit on the
diagonal and anti-diagonal (basis |A> tensor |B>, ordering uu, ud, du, dd); a
batch of states is an `XStateBatch`, the same five entries as arrays.
`build_xstates` makes a batch from correlator arrays and applies the rules of
`CorrelatorSet`, `build_xstate` and `XStateDensityMatrix` to it as masks, so
that a state that breaks one fails alone; `CorrelatorSet`, `build_xstate`
and `XStateDensityMatrix` check their batches of one.  Every measure takes X
states only.  Two dense helpers, `conditional_entropy` and
`concurrence_wootters`, also take a 4x4 matrix: the benchmark reads them, and
the tests use them as oracles.  All entropies are in bits with the
0 log 0 = 0 convention.

The classical correlation maximizes the information a projective measurement
on qubit B yields about qubit A; discord is mutual information minus it.  For
an X state the best azimuth has a closed form, so the search is over the polar
angle alone, with both measurement outcomes in one array pass.
`correlations`, which the sweeps, the central-qubit trace and `quench` call,
reads a list or a batch of states once (`_fields`) and takes every measure as
an array pass over that read.  One failure rule covers I, C and Q: a state
with an eigenvalue below -`_EIG_CLAMP` or |z| > 1 gets NaN there and moves no
other state; the single-state functions, batches of one, raise ValueError on
it.  `failures` words the rule for each marked state, for those errors and
for the failed rows of the sweeps and `quench.measure_state`.
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
        cs = (self.c1, self.c2, self.c3, self.c4)
        _raise_first(_correlator_failures(*(np.array([c]) for c in cs)))


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
        entries = (self.a_plus, self.a_minus, self.a_zero, self.b1, self.b2)
        _raise_first(_state_failures(XStateBatch(*(np.array([v]) for v in entries))))

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
class XStateBatch:
    """X states as arrays, one entry per state: the populations a_plus, a_minus,
    a_zero and the coherences b1, b2 (real or complex) of `XStateDensityMatrix`.

    `correlations` reads a batch with numpy and a list of states with libm per
    state; the two reads agree bit for bit where b1 = 0 and b2 is real, as on
    the quench states.
    """

    a_plus: np.ndarray
    a_minus: np.ndarray
    a_zero: np.ndarray
    b1: np.ndarray
    b2: np.ndarray


def _raise_first(failed: dict[int, str]):
    # a batch of one breaks a rule: raise its message
    if failed:
        raise ValueError(failed[0])


def _mark(failed: dict[int, str], mask: np.ndarray, message):
    # each state the mask marks fails with message(i), unless it failed already
    for i in np.flatnonzero(mask).tolist():
        failed.setdefault(i, message(i))


def _correlator_failures(c1, c2, c3, c4) -> dict[int, str]:
    """`CorrelatorSet`'s rule: each correlator in [-1, 1], in the order c1 .. c4."""
    failed: dict[int, str] = {}
    for name, v in (("c1", c1), ("c2", c2), ("c3", c3), ("c4", c4)):
        _mark(failed, ~((-1.0 - 1e-9 <= v) & (v <= 1.0 + 1e-9)),
              lambda i: f"{name} = {float(v[i])} outside [-1, 1]")
    return failed


def _state_failures(x: XStateBatch) -> dict[int, str]:
    """An X state's checks as masks over a batch, in this order: unit trace,
    populations above -`_EIG_CLAMP`, |b1| <= sqrt(a_plus a_minus),
    |b2| <= a_zero.  `XStateDensityMatrix` runs them on a batch of one."""
    failed: dict[int, str] = {}
    tr = x.a_plus + x.a_minus + 2.0 * x.a_zero
    _mark(failed, np.abs(tr - 1.0) > 1e-10, lambda i: f"trace = {float(tr[i])}, expected 1")
    for name in ("a_plus", "a_minus", "a_zero"):
        v = getattr(x, name)
        _mark(failed, v < -_EIG_CLAMP, lambda i: f"population {name} = {float(v[i])} < 0")
    prod = x.a_plus * x.a_minus
    _mark(failed, np.abs(x.b1) > np.sqrt(np.where(0.0 > prod, 0.0, prod)) + 1e-9,
          lambda i: "positivity violated: |b1| > sqrt(a_plus a_minus)")
    _mark(failed, np.abs(x.b2) > x.a_zero + 1e-9, lambda i: "positivity violated: |b2| > a_zero")
    return failed


def build_xstates(c1, c2, c3, c4) -> tuple[XStateBatch, dict[int, str]]:
    """The X states whose correlators are the arrays c1 .. c4, and why each
    failed state failed, by the first rule it breaks in this order:
    `CorrelatorSet`'s range, a population below -`_CLAMP_TOL` (a_plus,
    a_minus, a_zero; populations in [-_CLAMP_TOL, 0) are quadrature noise and
    clamp to 0), then `XStateDensityMatrix`'s rule.  A failed state holds NaN.
    """
    failed = _correlator_failures(c1, c2, c3, c4)
    populations = {
        "a_plus": (1.0 + c3 + 2.0 * c4) / 4.0,
        "a_minus": (1.0 + c3 - 2.0 * c4) / 4.0,
        "a_zero": (1.0 - c3) / 4.0,
    }
    for name, v in populations.items():
        _mark(failed, v < -_CLAMP_TOL,
              lambda i: f"correlators give {name} = {float(v[i])}; not a density matrix")
        populations[name] = np.where(0.0 > v, 0.0, v)
    x = XStateBatch(**populations, b1=(c1 - c2) / 4.0, b2=(c1 + c2) / 4.0)
    failed = _state_failures(x) | failed
    for v in (x.a_plus, x.a_minus, x.a_zero, x.b1, x.b2):
        v[list(failed)] = np.nan
    return x, failed


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
    # x log2 x where x > 0, else 0 (NaN too): two ufunc calls on the mask
    positive = x > 0.0
    out = np.log2(x, where=positive, out=np.zeros(np.shape(x)))
    return np.multiply(x, out, where=positive, out=out)


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
    """Assemble the X state whose correlators are `c`: a batch of one of
    `build_xstates`, raising ValueError on the rule it breaks."""
    x, failed = build_xstates(*(np.array([v]) for v in (c.c1, c.c2, c.c3, c.c4)))
    _raise_first(failed)
    return XStateDensityMatrix(
        float(x.a_plus[0]), float(x.a_minus[0]), float(x.a_zero[0]),
        b1=complex(x.b1[0]), b2=complex(x.b2[0]),
    )


def _polarization_entropy(c4: np.ndarray) -> np.ndarray:
    c4 = np.clip(c4, -1.0, 1.0)
    # 0 - x, not -x: a pure polarization's entropy is +0.0, not -0.0
    return 0.0 - (_xlog2((1.0 + c4) / 2.0) + _xlog2((1.0 - c4) / 2.0))


def subsystem_entropy(c4):
    """Entropy in bits of a single qubit with polarization <sz> = c4.

    Takes a float or, elementwise, an array of polarizations.
    """
    c4 = np.asarray(c4, dtype=float)
    if np.any(np.abs(c4) > 1.0 + 1e-12):
        raise ValueError(f"|c4| = {np.abs(c4).max()} exceeds 1")
    s = _polarization_entropy(c4)
    return float(s) if s.ndim == 0 else s


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
    The per-state parameters (z, zz, t) broadcast against the samples c;
    both outcomes run in one pass along a leading axis of length 2, summed
    as 0 + (outcome +1) + (outcome -1).
    """
    sign = np.array([1.0, -1.0]).reshape(2, *[1] * max(np.ndim(z), np.ndim(c)))
    transverse = t * t * (1.0 - c * c)
    p = 0.5 * (1.0 + sign * z * c)
    half = 0.25 * np.sqrt((z + sign * zz * c) ** 2 + transverse)
    # p * H(lam/p) = -sum xlog2(lam) + xlog2(p), avoiding division by
    # p ~ 0; _xlog2 reads roundoff-negative arguments as 0
    mean = 0.5 * p
    lam_hi, lam_lo, p = _xlog2(np.stack([mean + half, mean - half, p]))
    terms = -lam_hi - lam_lo + p
    return (0.0 + terms[0]) + terms[1]


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


def _fields(states: list[XStateDensityMatrix] | XStateBatch) -> dict[str, np.ndarray]:
    """Every X state read once, as arrays: "a_plus", "a_minus", "a_zero", the
    moduli "b1", "b2", "eigs" (as `eigenvalues()`), the polarization "z", the
    best azimuth "phi", and "bad", the failure rule: an eigenvalue below
    -`_EIG_CLAMP` ("low") or |z| > 1 + 1e-12 ("over").  Dense matrices are
    rejected."""
    if isinstance(states, XStateBatch):
        a_plus, a_minus, a_zero = states.a_plus, states.a_minus, states.a_zero
        b1, b2 = np.abs(states.b1), np.abs(states.b2)
        gap = np.hypot(0.5 * (a_plus - a_minus), b1)
        phi = (np.angle(states.b2) - np.angle(states.b1)) / 2.0 % np.pi
    else:
        for rho in states:
            if not isinstance(rho, XStateDensityMatrix):
                raise ValueError(
                    f"X-state measures need an XStateDensityMatrix, got {type(rho).__name__}"
                )
        # |b|, the outer half-gap and phi from libm per state, as `eigenvalues()`
        # has them: numpy's abs and hypot round differently in the last bit
        a_plus, a_minus, a_zero, b1, b2, gap, phi = np.array([
            (s.a_plus, s.a_minus, s.a_zero, abs(s.b1), abs(s.b2),
             math.hypot(0.5 * (s.a_plus - s.a_minus), abs(s.b1)), _best_phi(s)) for s in states
        ], dtype=float).reshape(-1, 7).T
    mean, z = 0.5 * (a_plus + a_minus), a_plus - a_minus
    eigs = np.stack([mean + gap, mean - gap, a_zero + b2, a_zero - b2], axis=1)
    low, over = np.any(eigs < -_EIG_CLAMP, axis=1), np.abs(z) > 1.0 + 1e-12
    return {"a_plus": a_plus, "a_minus": a_minus, "a_zero": a_zero, "b1": b1, "b2": b2,
            "eigs": eigs, "z": z, "phi": phi, "low": low, "over": over, "bad": low | over}


def failures(states: list[XStateDensityMatrix] | XStateBatch) -> dict[int, str]:
    """Why the failure rule marks each state it marks, by index, naming each
    part that fired."""
    f = _fields(states)
    return {i: "; ".join(text for part, text in (
        ("low", f"the state has a negative eigenvalue (eigenvalue below -{_EIG_CLAMP}: "
                f"{f['eigs'][i].min()})"),
        ("over", f"the polarization |z| = {abs(f['z'][i])} of the state exceeds 1 + 1e-12"),
    ) if f[part][i]) for i in np.flatnonzero(f["bad"]).tolist()}


def failure(rho: XStateDensityMatrix) -> str | None:
    """Why the failure rule marks this state (`failures` of a batch of one);
    None when it does not mark it."""
    return failures([rho]).get(0)


def _one(rho: XStateDensityMatrix) -> dict[str, np.ndarray]:
    """`_fields` of a batch of one; a state the failure rule marks raises ValueError."""
    f = _fields([rho])
    if f["bad"][0]:
        raise ValueError(failure(rho))
    return f


def _mutual(f: dict[str, np.ndarray]) -> np.ndarray:
    """I = s(rho_A) + s(rho_B) - s(rho) in bits; both qubits have polarization z."""
    joint = -np.sum(_xlog2(f["eigs"]), axis=1)
    val = 2.0 * _polarization_entropy(f["z"]) - joint
    return np.where(f["bad"], np.nan, np.where(0.0 > val, 0.0, val))


def mutual_information(rho: XStateDensityMatrix) -> float:
    """I = s(rho_A) + s(rho_B) - s(rho) in bits of one X state."""
    return float(_mutual(_one(rho))[0])


def _classical(f: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(C in bits, theta).  phi is closed-form (`_best_phi`) and theta ~ pi - theta,
    so `_best_cos_theta` searches c = cos(theta) in [0, 1], all states at once."""
    zz = f["a_plus"] + f["a_minus"] - 2.0 * f["a_zero"]
    c_best, s_min = _best_cos_theta(f["z"], zz, 2.0 * (f["b1"] + f["b2"]))
    value = _polarization_entropy(f["z"]) - s_min
    # theta from libm per state: numpy's SIMD arccos rounds differently
    theta = np.array([math.acos(c) for c in c_best], dtype=float)
    return np.where(f["bad"], np.nan, np.where(value < 0.0, 0.0, value)), theta


def classical_correlation(rho: XStateDensityMatrix) -> tuple[float, MeasurementBasis]:
    """Maximal information about A extractable by a projective measurement on
    B: the search's value in bits (not clamped to I) and its basis."""
    f = _one(rho)
    value, theta = _classical(f)
    return float(value[0]), MeasurementBasis(float(theta[0]), float(f["phi"][0]))


def _concurrence(f: dict[str, np.ndarray]) -> np.ndarray:
    """max{0, 2(|b2| - sqrt(a_plus a_minus)), 2(|b1| - a_zero)} in Python's `max` order."""
    prod = f["a_plus"] * f["a_minus"]
    inner = 2.0 * (f["b2"] - np.sqrt(np.where(0.0 > prod, 0.0, prod)))
    outer = 2.0 * (f["b1"] - f["a_zero"])
    best = np.where(inner > 0.0, inner, 0.0)
    return np.where(outer > best, outer, best)


def concurrence_xstate(state: XStateDensityMatrix) -> float:
    """Concurrence of one X state from the closed form."""
    return float(_concurrence(_one(state))[0])


def correlations(states: list[XStateDensityMatrix] | XStateBatch) -> dict[str, np.ndarray]:
    """Every measure of every X state, keyed by CSV column: "I", "C", "Q",
    "Cnc", and the maximizing basis "theta", "phi".

    One read of the list or batch (`_fields`), then one array pass per
    measure.  The one place that clamps: C = min(C, I) and Q = max(I - C, 0),
    with Python's tie rule per state.  A state the failure rule marks gets NaN in I, C and
    Q, and only there.  C above I by more than 1e-9 is an optimizer bug and
    raises RuntimeError."""
    f = _fields(states)
    i = _mutual(f)
    c, theta = _classical(f)
    q = i - c
    if np.any(q < -1e-9):
        k = int(np.argmax(q < -1e-9))
        raise RuntimeError(f"state {k}: optimizer produced C > I by {-q[k]}; this is a bug")
    return {
        # min(c, i) keeps c unless i < c; a NaN i (failed state) is kept too
        "I": i, "C": np.where(c <= i, c, i), "Q": np.where(0.0 > q, 0.0, q),
        "Cnc": _concurrence(f), "theta": theta, "phi": f["phi"],
    }


def discord(rho) -> float:
    """Quantum discord Q = I - C in bits (measurement on B): a batch of one of `correlations`."""
    _one(rho)
    return float(correlations([rho])["Q"][0])


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
