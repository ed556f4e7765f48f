"""Two-qubit X-state algebra: entropies, mutual information, discord, concurrence.

States are `XStateDensityMatrix` instances, whose only nonzero entries sit
on the diagonal and anti-diagonal (basis |A> tensor |B>, ordering uu, ud, du,
dd).  The dense helpers (`mutual_information`, `conditional_state`,
`conditional_entropy`, `concurrence_wootters`) also take a 4x4 matrix.  All
entropies are in bits with the 0 log 0 = 0 convention.

The classical correlation maximizes the information a projective measurement
on qubit B yields about qubit A, over the full Bloch sphere of measurement
directions; discord is mutual information minus that maximum.  For an X
state the best azimuth is known in closed form, so the search is over the
polar angle alone.
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
    V = [[cos t/2, sin t/2 e^{-i p}], [sin t/2 e^{i p}, -cos t/2]];
    outcome "+" is the V-rotated |0> side.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError(f"theta = {self.theta} outside [0, pi]")
        if not (0.0 <= self.phi < 2.0 * np.pi):
            raise ValueError(f"phi = {self.phi} outside [0, 2 pi)")

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Measured basis states (w_plus, w_minus) of qubit B."""
        ct, st = math.cos(self.theta / 2.0), math.sin(self.theta / 2.0)
        ph = np.exp(1j * self.phi)
        w_plus = np.array([ct, st * ph])
        w_minus = np.array([st / ph, -ct])
        return w_plus, w_minus


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


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density matrix of any dimension."""
    arr = np.asarray(rho, dtype=complex)
    return _entropy_bits(np.linalg.eigvalsh(arr))


def reduced_states(rho) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces (rho_A, rho_B) of a two-qubit state."""
    r = _as_matrix(rho).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r), np.einsum("abad->bd", r)


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


def xstate_eigenvalues(state) -> np.ndarray:
    """Eigenvalues of an X state, from closed form.

    Accepts an XStateDensityMatrix or a CorrelatorSet; the correlator form
    evaluates the printed expressions
    (1/4)[(1+c3) +- sqrt(4 c4^2 + (c1-c2)^2)] and (1/4)[(1-c3) +- (c1+c2)].
    """
    if isinstance(state, CorrelatorSet):
        c = state
        disc = math.sqrt(4.0 * c.c4**2 + (c.c1 - c.c2) ** 2)
        return np.array(
            [
                0.25 * ((1.0 + c.c3) + disc),
                0.25 * ((1.0 + c.c3) - disc),
                0.25 * ((1.0 - c.c3) + (c.c1 + c.c2)),
                0.25 * ((1.0 - c.c3) - (c.c1 + c.c2)),
            ]
        )
    return state.eigenvalues()


def subsystem_entropy(c4: float) -> float:
    """Entropy in bits of a single qubit with polarization <sz> = c4."""
    if abs(c4) > 1.0 + 1e-12:
        raise ValueError(f"|c4| = {abs(c4)} exceeds 1")
    c4 = min(max(c4, -1.0), 1.0)
    return _entropy_bits(np.array([(1.0 + c4) / 2.0, (1.0 - c4) / 2.0]))


def mutual_information(rho) -> float:
    """I = s(rho_A) + s(rho_B) - s(rho), in bits.

    Both qubits of an X state have polarization <sz> = a_plus - a_minus.
    """
    if isinstance(rho, XStateDensityMatrix):
        val = 2.0 * subsystem_entropy(rho.a_plus - rho.a_minus) - _entropy_bits(rho.eigenvalues())
    else:
        arr = _as_matrix(rho)
        rho_a, rho_b = reduced_states(arr)
        val = (
            _entropy_bits(np.linalg.eigvalsh(rho_a))
            + _entropy_bits(np.linalg.eigvalsh(rho_b))
            - _entropy_bits(np.linalg.eigvalsh(arr))
        )
    return max(val, 0.0)


def conditional_state(rho, basis: MeasurementBasis, outcome: str):
    """Measure qubit B; return (probability, post-measurement 4x4 state).

    outcome "+" projects onto the V-rotated |0> side, "-" onto the |1> side.
    When the outcome probability is below 1e-15 the conditional state is
    undefined: returns (0.0, state of NaNs).
    """
    if outcome not in ("+", "-"):
        raise ValueError(f"outcome must be '+' or '-', got {outcome!r}")
    arr = _as_matrix(rho)
    w_plus, w_minus = basis.vectors()
    w = w_plus if outcome == "+" else w_minus
    r = arr.reshape(2, 2, 2, 2)
    m = np.einsum("b,abcd,d->ac", w.conj(), r, w)
    p = float(np.trace(m).real)
    if p < 1e-15:
        return 0.0, np.full((4, 4), np.nan, dtype=complex)
    post = np.einsum("ac,b,d->abcd", m, w, w.conj()).reshape(4, 4) / p
    return p, post


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


def _xlog2(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _polar_entropies(state: XStateDensityMatrix, c: np.ndarray) -> np.ndarray:
    """Conditional entropy of A after measuring B at cos(theta) = c and the best phi.

    In Pauli form rho = (1/4) sum T_uv s_u x s_v, both reduced Bloch vectors
    are (0, 0, z) and the transverse block of T has largest singular value
    t = 2(|b1| + |b2|).  Outcome +-1 occurs with p = (1 +- z c)/2 and leaves
    A with eigenvalues p/2 +- |(0, 0, z) +- T n|/4, where
    |(0, 0, z) +- T n|^2 = (z +- zz c)^2 + t^2 (1 - c^2) at the best phi.
    """
    z = state.a_plus - state.a_minus
    zz = state.a_plus + state.a_minus - 2.0 * state.a_zero
    t = 2.0 * (abs(state.b1) + abs(state.b2))
    transverse = t * t * (1.0 - c * c)
    total = np.zeros(np.shape(c))
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * z * c)
        half = 0.25 * np.sqrt((z + sign * zz * c) ** 2 + transverse)
        # p * H(lam/p) = -sum xlog2(lam) + xlog2(p), avoiding division by
        # p ~ 0; _xlog2 reads roundoff-negative arguments as 0
        total += -_xlog2(0.5 * p + half) - _xlog2(0.5 * p - half) + _xlog2(p)
    return total


_COS_GRID = np.linspace(0.0, 1.0, 65)  # contains both endpoints exactly
_ZOOM = np.linspace(0.0, 1.0, 17)
_ZOOM_ROUNDS = 10  # each round narrows a bracket 8-fold: 1/32 -> 3e-11
_ROUNDOFF = 1e-14  # an interior sample must beat both endpoints by more than this


def _best_cos_theta(state: XStateDensityMatrix) -> tuple[float, float]:
    """(c*, S(c*)) minimizing `_polar_entropies` over c in [0, 1].

    Both endpoints are evaluated exactly.  Every local minimum of the samples
    on `_COS_GRID` (an endpoint counts when it is below its one neighbour)
    opens a bracket reaching to the neighbouring samples, so an interior
    minimum next to an endpoint is searched too; each bracket is zoomed onto
    its lowest sample.  The lowest interior sample wins only if it beats the
    better endpoint by more than roundoff.
    """
    grid_vals = _polar_entropies(state, _COS_GRID)
    below_left = np.r_[True, grid_vals[1:] <= grid_vals[:-1]]
    below_right = np.r_[grid_vals[:-1] <= grid_vals[1:], True]
    idx = np.flatnonzero(below_left & below_right)
    lo = _COS_GRID[np.maximum(idx - 1, 0)]
    hi = _COS_GRID[np.minimum(idx + 1, len(_COS_GRID) - 1)]
    rows = np.arange(len(idx))
    cs, vals = [_COS_GRID], [grid_vals]
    for _ in range(_ZOOM_ROUNDS):
        pts = lo[:, None] + (hi - lo)[:, None] * _ZOOM
        pv = _polar_entropies(state, pts)
        j = np.argmin(pv, axis=1)
        lo = pts[rows, np.maximum(j - 1, 0)]
        hi = pts[rows, np.minimum(j + 1, len(_ZOOM) - 1)]
        cs.append(pts.ravel())
        vals.append(pv.ravel())
    cs, vals = np.concatenate(cs), np.concatenate(vals)
    k = int(np.argmin(vals))
    end = 0 if grid_vals[0] <= grid_vals[-1] else -1
    if vals[k] < grid_vals[end] - _ROUNDOFF:
        return float(cs[k]), float(vals[k])
    return float(_COS_GRID[end]), float(grid_vals[end])


def _best_phi(state: XStateDensityMatrix) -> float:
    # the transverse block maps the B direction (cos phi, sin phi) to
    # 2|b2| (cos(phi - arg b2), sin(phi - arg b2)) + 2|b1| (cos(phi + arg b1),
    # -sin(phi + arg b1)); the two align, and the norm peaks, at
    # phi = (arg b2 - arg b1) / 2 modulo pi.  x % pi lies in [0, pi] even when
    # it rounds up, so phi stays inside [0, 2 pi).
    return (cmath.phase(state.b2) - cmath.phase(state.b1)) / 2.0 % math.pi


def classical_correlation(rho: XStateDensityMatrix) -> tuple[float, MeasurementBasis]:
    """Maximal information about A extractable by a projective measurement on B.

    For an X state the best azimuth phi has a closed form (`_best_phi`), and
    what is left depends on c = cos(theta) alone; theta and pi - theta are the
    same measurement, so c runs over [0, 1] (`_best_cos_theta`).  Returns the
    value in bits and the maximizing basis.  Dense matrices are rejected.
    """
    if not isinstance(rho, XStateDensityMatrix):
        raise ValueError(
            f"classical_correlation needs an XStateDensityMatrix, got {type(rho).__name__}"
        )
    s_a = subsystem_entropy(rho.a_plus - rho.a_minus)
    c_best, s_min = _best_cos_theta(rho)
    basis = MeasurementBasis(math.acos(c_best), _best_phi(rho))
    return max(s_a - s_min, 0.0), basis


def discord(rho) -> float:
    """Quantum discord Q = I - C in bits (measurement on qubit B)."""
    i_val = mutual_information(rho)
    c_val, _ = classical_correlation(rho)
    q = i_val - c_val
    if q < -1e-9:
        raise RuntimeError(f"optimizer produced C > I by {-q}; this is a bug")
    return max(q, 0.0)


def concurrence_xstate(state: XStateDensityMatrix) -> float:
    """Concurrence of an X state from the closed form
    max{0, 2(|b2| - sqrt(a_plus a_minus)), 2(|b1| - a_zero)}."""
    branch_inner = 2.0 * (abs(state.b2) - math.sqrt(max(state.a_plus * state.a_minus, 0.0)))
    branch_outer = 2.0 * (abs(state.b1) - state.a_zero)
    return max(0.0, branch_inner, branch_outer)


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
