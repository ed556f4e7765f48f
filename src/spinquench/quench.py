"""Final-state two-spin correlators after a quench, and the measures built on them.

The correlators at separation n are polynomials in the moments beta_0 .. beta_n
(closed expressions exist for n = 2, 4, 6), read from any mapping of n to
beta_n.  `measures` runs the full pipeline moments -> correlators -> X state
(`state_from_betas`) -> {mutual information, classical correlation, discord,
concurrence} (`measure_state`, a batch of one of `xstate.correlations`) for
the library; the sweeps and the CLI take the same steps through
`scaling._run_rows`, which measures all their rows at once.

`closed_form_I_n2` / `closed_form_C_n2` evaluate the printed n = 2 expressions
verbatim as an independent cross-check of the pipeline.  Note: the closed-form
classical correlation is the value for a measurement along the transverse (x)
axis.  For these states the optimal measurement is the polar (z) axis whenever
beta_0 differs from 1/2, so the optimizing pipeline returns a strictly larger
classical correlation (and smaller discord) than `closed_form_C_n2`.  The
tests hold the polar companion (tests/conftest.py); the pipeline equals the
larger of the two axis values (acceptance criterion 3).
"""

from __future__ import annotations

import math
from typing import Mapping

from .kernels import QuenchProtocol, compute_betas
from .xstate import (
    CorrelationReport,
    CorrelatorSet,
    MeasurementBasis,
    XStateDensityMatrix,
    build_xstate,
    correlations,
)

# `measure_state` calls none of these; they stay importable here because the
# benchmark's tracer wraps them at this module (LOOKUPS in bench/tracing.py).
from .xstate import classical_correlation, concurrence_xstate, mutual_information  # noqa: F401

_SEPARATIONS = (2, 4, 6)


def _check_separation(n: int):
    if n not in _SEPARATIONS:
        raise ValueError(f"separation n must be one of {_SEPARATIONS}, got {n}")


def correlators_from_betas(betas: Mapping[int, float], n: int) -> CorrelatorSet:
    """Two-spin correlators at separation n from the moments beta_0 .. beta_n.

    c1 is 1/4 of the n x n Toeplitz determinant det[G_{i-j+1}] with
    G_r = 2 beta_r - delta_r0 and the odd moments taken as zero;
    c4 = -G_0 = 1 - 2 beta_0 and c3 = c4^2 - 4 beta_n^2.
    """
    _check_separation(n)
    b0 = betas[0]
    m = 1.0 - 2.0 * b0
    c4 = m
    c3 = c4 * c4 - 4.0 * betas[n] ** 2
    if n == 2:
        c1 = 0.5 * betas[2] * m
    elif n == 4:
        b2, b4 = betas[2], betas[4]
        c1 = m * m * b2 * b2 - 4.0 * b2**4 + 0.5 * b4 * m**3 - 2.0 * b2 * b2 * b4 * m
    else:
        b2, b4, b6 = betas[2], betas[4], betas[6]
        c1 = (
            -0.5
            * (2.0 * b4 + m)
            * (8.0 * b2 * b2 + 2.0 * b4 * m - m * m)
            * (4.0 * b2**3 - 4.0 * b2 * b2 * b6 + 4.0 * b2 * b4 * b4 + 4.0 * b2 * b4 * m + b6 * m * m)
        )
    return CorrelatorSet(c1=c1, c2=c1, c3=c3, c4=c4)


def correlators(protocol: QuenchProtocol, n: int) -> CorrelatorSet:
    """Two-spin correlators at separation n in the final state of the quench."""
    _check_separation(n)
    return correlators_from_betas(compute_betas(protocol, n_max=n), n)


def state_from_betas(betas: Mapping[int, float], n: int) -> XStateDensityMatrix:
    """X state of two spins n sites apart, built from the moments beta_0 .. beta_n."""
    return build_xstate(correlators_from_betas(betas, n))


def measure_state(state: XStateDensityMatrix) -> CorrelationReport:
    """Full correlation report of one X state: a batch of one of
    `xstate.correlations`.  A state with a negative eigenvalue raises
    `ValueError`."""
    v = {k: float(a[0]) for k, a in correlations([state]).items()}
    if math.isnan(v["I"]):
        raise ValueError("mutual information undefined: the state has a negative eigenvalue")
    return CorrelationReport(
        mutual_information=v["I"], classical_correlation=v["C"], discord=v["Q"],
        concurrence=v["Cnc"], argmax_basis=MeasurementBasis(v["theta"], v["phi"]),
    )


def measures(protocol: QuenchProtocol, n: int) -> CorrelationReport:
    """Full correlation report for one (protocol, separation) point."""
    _check_separation(n)
    return measure_state(state_from_betas(compute_betas(protocol, n_max=n), n))


def _term(x: float) -> float:
    # x log2 x with the 0 log 0 = 0 convention; negative arguments signal an
    # invalid (beta_0, beta_2) pair
    if x < 0.0:
        if x > -1e-15:  # roundoff at the boundary of the valid domain
            return 0.0
        raise ValueError(f"log argument {x} is negative: invalid beta pair")
    if x == 0.0:
        return 0.0
    return x * math.log2(x)


def _check_beta_pair(beta0: float, beta2: float):
    if not (0.0 <= beta0 <= 1.0):
        raise ValueError(f"beta_0 = {beta0} outside [0, 1]")
    if abs(beta2) > beta0 + 1e-12:
        raise ValueError(f"|beta_2| = {abs(beta2)} exceeds beta_0 = {beta0}")


def closed_form_I_n2(beta0: float, beta2: float) -> float:
    """Printed closed-form mutual information at separation 2, in bits."""
    _check_beta_pair(beta0, beta2)
    u = 4.0 * beta0 * (1.0 - beta0) + 4.0 * beta2 * beta2
    v = beta2 * (1.0 - 2.0 * beta0)
    return (
        -2.0 * _term(1.0 - beta0)
        + _term((1.0 - beta0) ** 2 - beta2 * beta2)
        - 2.0 * _term(beta0)
        + _term(beta0 * beta0 - beta2 * beta2)
        + _term(0.25 * (u + v))
        + _term(0.25 * (u - v))
    )


def closed_form_C_n2(beta0: float, beta2: float) -> float:
    """Printed closed-form classical correlation at separation 2, in bits.

    Equals the transverse-axis measurement value, not the maximum over bases
    (see the module docstring).
    """
    _check_beta_pair(beta0, beta2)
    g = (1.0 - 2.0 * beta0) * math.sqrt(1.0 + beta2 * beta2 / 4.0)
    return (
        -_term(1.0 - beta0)
        - _term(beta0)
        + _term(0.5 * (1.0 - g))
        + _term(0.5 * (1.0 + g))
    )
