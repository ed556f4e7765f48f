"""Quantum correlations generated by driving spin chains through critical points.

Modules: `kernels` (cosine moments of the excitation probabilities),
`xstate` (two-qubit X-state measures), `quench` (final-state correlators and
closed-form cross-checks), `central` (two central qubits decohered by a driven
chain), `scaling` (sweeps and power-law fits), `cli` (CSV front end).
"""

from .central import CentralConfig, DecoherenceTrace, trace_run
from .kernels import ProtocolKind, QuenchProtocol, beta_n, defect_density
from .quench import closed_form_C_n2, closed_form_I_n2, correlators, measures
from .scaling import ScalingFit, SweepTable, fit_loglog, sweep_j3, sweep_tau
from .xstate import (
    CorrelationReport,
    CorrelatorSet,
    MeasurementBasis,
    XStateDensityMatrix,
    classical_correlation,
    concurrence_wootters,
    concurrence_xstate,
    discord,
    mutual_information,
)

__all__ = [
    "CentralConfig",
    "CorrelationReport",
    "CorrelatorSet",
    "DecoherenceTrace",
    "MeasurementBasis",
    "ProtocolKind",
    "QuenchProtocol",
    "ScalingFit",
    "SweepTable",
    "XStateDensityMatrix",
    "beta_n",
    "classical_correlation",
    "closed_form_C_n2",
    "closed_form_I_n2",
    "concurrence_wootters",
    "concurrence_xstate",
    "correlators",
    "defect_density",
    "discord",
    "fit_loglog",
    "measures",
    "mutual_information",
    "sweep_j3",
    "sweep_tau",
    "trace_run",
]

__version__ = "0.1.0"
