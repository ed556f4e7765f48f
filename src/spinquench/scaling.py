"""Parameter sweeps and power-law fits of the correlation measures.

`sweep_tau` materializes the measures over a grid of inverse rates;
`sweep_j3` scans the three-spin coupling at fixed rate; `measure_table` is
the one-row table of a single protocol, with its moments beta_0 .. beta_6.
`fit_loglog` extracts d(ln y)/d(ln x) by ordinary least squares.  All three
tables come from `_run_rows` as array passes over all rows: their moments
from one kernel call (`moment_table`, which takes a tau sweep's grid as an
array), all rows' X states built from the moments at once
(`quench.states_from_moments`), and `xstate.correlations` measuring them in
one call.  A row that fails keeps its inputs, holds NaN values and is listed
in the table's errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import ProtocolKind, QuenchProtocol, moment_table
from .quench import _check_separation, states_from_moments
from .xstate import correlations, failures

# The sweeps call neither name; both stay importable here because the
# benchmark's tracer wraps them at this module (LOOKUPS in bench/tracing.py).
from .kernels import defect_density  # noqa: F401
from .quench import measures  # noqa: F401

TAU_COLUMNS = ("tau", "n", "beta0", "I", "C", "Q", "Cnc")
J3_COLUMNS = ("j3", "Q", "Cnc")
MEASURE_COLUMNS = ("tau", "n", "beta0", "beta2", "beta4", "beta6", "I", "C", "Q", "Cnc")


@dataclass(frozen=True)
class SweepTable:
    """Grid-ordered sweep results: one abscissa column plus value columns.

    Rows whose computation failed hold NaN values (the abscissa and n stay)
    and are listed in `errors` as (row_index, message).
    """

    columns: tuple[str, ...]
    data: np.ndarray
    errors: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError("data shape does not match columns")
        x = self.data[:, 0]
        good = np.isfinite(x)
        if np.any(np.diff(x[good]) <= 0.0):
            raise ValueError(f"{self.columns[0]} column must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    @property
    def abscissa(self) -> np.ndarray:
        return self.data[:, 0]


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of ln(value) against ln(abscissa) over a window."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int

    def __post_init__(self):
        if self.n_points < 5:
            raise ValueError(f"a fit needs >= 5 points, got {self.n_points}")
        if not (-1e-12 <= self.r_squared <= 1.0 + 1e-12):
            raise ValueError(f"r_squared = {self.r_squared} outside [0, 1]")


def _run_rows(columns, grid, protocols, n, taus=None) -> SweepTable:
    """Take every row's moments in one kernel call, build all rows' X states
    from them at once, then measure all of the states at once.

    A separation n other than 2, 4 or 6 raises ValueError before any moment
    is taken (`quench._check_separation`).  `protocols` and `taus` go to
    `moment_table`.

    The moments run up to n or to the highest `beta{k}` column, whichever is
    larger.  `states_from_moments` checks the rows as masks, so a row whose
    moments missed the kernel's tolerance, or whose state fails, holds NaNs
    and is listed in the errors while the others go on.
    `xstate.correlations` then measures the batch in one call; a state it
    marks failed (NaN I) fails its row alone, listed with the reason
    `xstate.failures` gives.  Its result and the moments fill the value
    columns by name; the inputs, the abscissa and n, are written on failed
    rows too.
    """
    _check_separation(n)
    data = np.full((len(grid), len(columns)), np.nan)
    data[:, 0] = grid
    if "n" in columns:
        data[:, columns.index("n")] = n
    orders = [int(name[4:]) for name in columns if name.startswith("beta")]
    moments = moment_table(protocols, range(0, max([n, *orders]) + 1, 2), taus)
    states, errors = states_from_moments(moments, n)
    values = correlations(states)
    values |= {f"beta{k}": moments.values[:, moments.ns.index(k)] for k in orders}
    ok = np.ones(len(grid), dtype=bool)
    ok[list(errors)] = False
    marked = ok & np.isnan(values["I"])
    if marked.any():
        errors = failures(states) | errors
        ok &= ~marked
    for col, name in enumerate(columns):
        if name not in (columns[0], "n"):
            data[ok, col] = values[name][ok]
    return SweepTable(columns=columns, data=data, errors=tuple(sorted(errors.items())))


def measure_table(protocol: QuenchProtocol, n: int) -> SweepTable:
    """One protocol's row: tau, n, the moments beta_0 .. beta_6 and the measures."""
    return _run_rows(MEASURE_COLUMNS, [protocol.tau], [protocol], n)


def sweep_tau(protocol: QuenchProtocol, n: int, tau_grid: Sequence[float]) -> SweepTable:
    """Measures along a grid of inverse rates (sorted, positive)."""
    grid = [float(t) for t in tau_grid]
    if any(t <= 0.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("tau_grid must be positive and strictly increasing")
    return _run_rows(TAU_COLUMNS, grid, [protocol], n, taus=grid)


def sweep_j3(tau: float, n: int, j3_grid: Sequence[float]) -> SweepTable:
    """Three-spin measures along a grid of couplings at fixed inverse rate."""
    grid = [float(j) for j in j3_grid]
    if any(j < 0.0 for j in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("j3_grid must be nonnegative and strictly increasing")
    protocols = [QuenchProtocol(ProtocolKind.THREE_SPIN, tau, j3=j) for j in grid]
    return _run_rows(J3_COLUMNS, grid, protocols, n)


def fit_loglog(table: SweepTable, column: str, window: tuple[float, float]) -> ScalingFit:
    """Least-squares slope of ln(column) vs ln(abscissa) inside the window.

    Raises if fewer than 5 valid rows fall in the window or if any in-window
    value is non-positive (those rows are named in the error).
    """
    lo, hi = window
    x = table.abscissa
    y = table.column(column)
    mask = (x >= lo) & (x <= hi) & np.isfinite(y) & np.isfinite(x)
    bad = np.nonzero(mask & (y <= 0.0))[0]
    if bad.size:
        raise ValueError(
            f"non-positive {column} values in window at rows {bad.tolist()} "
            f"(abscissa {x[bad].tolist()})"
        )
    idx = np.nonzero(mask)[0]
    if idx.size < 5:
        raise ValueError(f"only {idx.size} valid rows in window {window}; need >= 5")
    lx, ly = np.log(x[idx]), np.log(y[idx])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    if ss_res <= 1e-24 * max(ss_tot, 1.0):  # perfect fit, incl. constant data
        r2 = 1.0
    elif ss_tot == 0.0:
        r2 = 0.0
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=min(r2, 1.0),
        window=(float(lo), float(hi)),
        n_points=int(idx.size),
    )


def peak_location(table: SweepTable, column: str) -> tuple[float, float]:
    """Abscissa and height of the column's peak.

    Quadratic interpolation through the sample maximum and its neighbours
    (in log-abscissa when the grid is positive), so the result does not jump
    with grid resolution.  Boundary maxima are returned as-is.
    """
    x = table.abscissa
    y = table.column(column)
    good = np.isfinite(x) & np.isfinite(y)
    x, y = x[good], y[good]
    if len(y) < 3:
        raise ValueError("need at least 3 valid rows to locate a peak")
    i = int(np.argmax(y))
    if i == 0 or i == len(y) - 1:
        return float(x[i]), float(y[i])
    use_log = np.all(x > 0.0)
    xs = np.log(x[i - 1 : i + 2]) if use_log else x[i - 1 : i + 2]
    ys = y[i - 1 : i + 2]
    # vertex of the parabola through the three points around the maximum
    a, b, c = np.polyfit(xs, ys, 2)
    if a >= 0.0:  # degenerate (flat or non-concave) triple
        return float(x[i]), float(y[i])
    xv = float(np.clip(-b / (2.0 * a), xs[0], xs[2]))
    yv = c - b * b / (4.0 * a)
    return (float(np.exp(xv)) if use_log else xv), float(yv)
