"""Spans and counters recorded from outside spinquench.

`install` replaces public names at the module attributes where their
callers look them up (LOOKUPS) with thin wrappers that record one span per
call: name, layer, start, end and the index of the enclosing span.  Spans
stay in memory until the repetition ends.  `summarize` reduces a span list to
the per-layer sums that run.py reports.

A later change that renames or moves one of these public names must update
LOOKUPS, or `install` fails loudly instead of silently measuring nothing.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute path, layer, counted only).  The module is where the caller
# looks the name up, which is not always where it is defined: quench and
# central import their xstate helpers by name, so those bindings are wrapped
# in the importing module.
LOOKUPS = (
    ("spinquench.cli", "main", "cli", False),
    ("spinquench.scaling", "sweep_tau", "scaling", False),
    ("spinquench.scaling", "sweep_j3", "scaling", False),
    ("spinquench.scaling", "measures", "quench", False),
    ("spinquench.scaling", "defect_density", "kernels", False),
    ("spinquench.quench", "compute_betas", "kernels", False),
    ("spinquench.kernels", "beta_n", "kernels", False),
    ("spinquench.quench", "build_xstate", "xstate", False),
    ("spinquench.quench", "mutual_information", "xstate", False),
    ("spinquench.quench", "classical_correlation", "xstate", False),
    ("spinquench.quench", "concurrence_xstate", "xstate", False),
    ("spinquench.central", "discord", "xstate", False),
    ("spinquench.xstate", "classical_correlation", "xstate", False),
    # one call per Nelder-Mead objective evaluation: counted, no span
    ("spinquench.xstate", "conditional_entropy", "xstate", True),
    ("spinquench.central", "trace_run", "central", False),
    ("spinquench.central", "ModeEnsemble.advance", "central", False),
)


class Recorder:
    """Spans of one repetition, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn):
        if name == "central.ModeEnsemble.advance":
            return self._wrap_advance(name, layer, fn)
        traced = self._span(name, layer, fn)
        if name == "quench.compute_betas":
            return self._counting_requests(traced)
        return traced

    def _span(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer, "parent": self._stack[-1] if self._stack else None}
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    def _counting_requests(self, traced):
        @functools.wraps(traced)
        def counted(protocol, n_max, *args, **kwargs):
            self.counts["beta_requests"] = self.counts.get("beta_requests", 0) + n_max // 2 + 1
            return traced(protocol, n_max, *args, **kwargs)

        return counted

    def _wrap_advance(self, name, layer, fn):
        traced = self._span(name, layer, fn)

        @functools.wraps(fn)
        def advance(ens, t):
            before = ens.t
            result = traced(ens, t)
            self.counts["sim_time"] = self.counts.get("sim_time", 0.0) + (ens.t - before)
            return result

        return advance

    def counter(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted


def install(recorder: Recorder) -> None:
    """Wrap every lookup point; raises if one no longer exists."""
    for module, path, layer, count_only in LOOKUPS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)  # AttributeError names a stale lookup point
        name = f"{module.removeprefix('spinquench.')}.{path}"
        if count_only:
            setattr(owner, attr, recorder.counter(attr, fn))
        else:
            setattr(owner, attr, recorder.wrap(name, layer, fn))


# --------------------------------------------------------------------------
# Aggregation


def _durations(spans):
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def _outermost(spans, idx, layer):
    # a span with no ancestor in the same layer
    p = spans[idx]["parent"]
    while p is not None:
        if spans[p]["layer"] == layer:
            return False
        p = spans[p]["parent"]
    return True


def summarize(spans: list[dict], counts: dict) -> dict:
    """Raw per-layer sums of one traced repetition."""
    dur, self_t = _durations(spans)

    def total(names, values):
        return sum(v for s, v in zip(spans, values) if s["name"] in names)

    def n_calls(names):
        return sum(1 for s in spans if s["name"] in names)

    def busy(layer):
        return sum(
            d for i, (s, d) in enumerate(zip(spans, dur))
            if s["layer"] == layer and _outermost(spans, i, layer)
        )

    def self_of(layer):
        return sum(v for s, v in zip(spans, self_t) if s["layer"] == layer)

    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return {
        "beta_calls": n_calls({"kernels.beta_n"}),
        "beta_s": total({"kernels.beta_n"}, dur),
        "beta_requests": counts.get("beta_requests", 0)
        + n_calls({"scaling.defect_density"}),
        "kernels_busy_s": busy("kernels"),
        "cc_calls": n_calls({"quench.classical_correlation", "xstate.classical_correlation"}),
        "cc_s": total({"quench.classical_correlation", "xstate.classical_correlation"}, dur),
        "objective_evals": counts.get("conditional_entropy", 0),
        "xstate_busy_s": busy("xstate"),
        "measures_calls": n_calls({"scaling.measures"}),
        "quench_self_s": self_of("quench"),
        "advance_calls": n_calls({"central.ModeEnsemble.advance"}),
        "advance_s": total({"central.ModeEnsemble.advance"}, dur),
        "sim_time": counts.get("sim_time", 0.0),
        "sweep_s": total({"scaling.sweep_tau", "scaling.sweep_j3"}, dur),
        "scaling_self_s": self_of("scaling"),
        "cli_self_s": self_of("cli"),
        "root_s": sum(e - s for s, e in roots),
    }
