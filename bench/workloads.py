"""Workload inputs, their execution inside a repetition process, and the gates.

`make_spec` turns (workload, seed) into the exact inputs one repetition
runs; `execute` runs them inside a fresh interpreter (see rep.py) and
returns the raw outputs; `gate` checks those outputs against oracles that
do not share code with the path being timed and counts the rows that fail.

Sizes come in two flavours: "full" is what the benchmark measures and
"tiny" exists only so selftest.py can exercise every code path in seconds.
"""

from __future__ import annotations

import json
import math
import os
import random
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_D_PATH = os.path.join(BENCH_DIR, "reference_D.json")

WORKLOADS = ("sweep-tau", "sweep-j3-cli", "decohere-revival")

# Seeds move every grid by less than one grid step; the end points of the
# tau grids and J3 = 1/2 stay put.
_MAX_SHIFT = 0.45

# decohere-revival: the observation grid -20, -17.5, ..., 150 shifted by one
# of 8 exact binary fractions of its 2.5 spacing, so reference D values for
# every seed come from a single recorded trace (record_reference.py).
# h_start = 4 rather than the CLI default 10: the adiabatic stretch from
# h = 10 down to 4 is ~70% of the RK work, lies before every observation
# time, and would make one repetition 35-45 s, leaving room for a single
# repetition per run within the benchmark's time budget.
REVIVAL = {
    "n_spins": 500,
    "delta": 0.01,
    "tau": 50.0,
    "a": 0.9,
    "h_start": 4.0,
    "t_first": -20.0,
    "dt": 2.5,
    "points": 69,
    "offsets": 8,
}
TINY_REVIVAL = {
    "n_spins": 20,
    "delta": 0.05,
    "tau": 2.0,
    "a": 0.9,
    "h_start": 10.0,
    "t_first": -2.0,
    "dt": 1.0,
    "points": 5,
    "offsets": 8,
}

J3_TAUS = (10.0, 50.0, 250.0)


def _shifted_log_grid(lo: float, hi: float, points: int, u: float) -> list[float]:
    # interior points move by u log-steps; |u| < 1/2 keeps the order and
    # leaves lo and hi exactly on the grid
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    grid = [lo]
    grid += [math.exp(math.log(lo) + (i + u) * step) for i in range(1, points - 1)]
    return grid + [hi]


def _j3_margin(rng: random.Random, points: int) -> float:
    # symmetric shrink of [0, 1] keeps J3 = 1/2 at the middle index; draw
    # until floating point puts it there exactly
    import numpy as np

    step = 1.0 / (points - 1)
    while True:
        s = rng.uniform(0.0, _MAX_SHIFT * step)
        if float(np.linspace(s, 1.0 - s, points)[points // 2]) == 0.5:
            return s


def revival_times(params: dict, offset: int) -> list[float]:
    """Observation times of decohere-revival for one of the 8 seed offsets."""
    frac = params["dt"] / params["offsets"]
    return [params["t_first"] + params["dt"] * i + frac * offset for i in range(params["points"])]


def make_spec(workload: str, seed: int, size: str = "full") -> dict:
    """Inputs of one repetition; the same (workload, seed, size) gives the same spec."""
    rng = random.Random(f"{workload}/{seed}")
    tiny = size == "tiny"
    if workload == "sweep-tau":
        u_ising = rng.uniform(-_MAX_SHIFT, _MAX_SHIFT)
        u_mcp = rng.uniform(-_MAX_SHIFT, _MAX_SHIFT)
        ising = _shifted_log_grid(0.1, 1e4, 4 if tiny else 48, u_ising)
        mcp = _shifted_log_grid(1e2, 1e5, 3 if tiny else 13, u_mcp)
        sweeps = [
            {"protocol": "ising", "gamma": 1.0, "n": n, "tau_grid": ising}
            for n in ((2, 4) if tiny else (2, 4, 6))
        ]
        sweeps.append({"protocol": "multicritical", "n": 2, "tau_grid": mcp})
        return {"workload": workload, "sweeps": sweeps}
    if workload == "sweep-j3-cli":
        points = 5 if tiny else 41
        s = _j3_margin(rng, points)
        u = rng.uniform(-_MAX_SHIFT, _MAX_SHIFT)
        taus = (J3_TAUS[0], J3_TAUS[1] * 5.0**u, J3_TAUS[2])
        if tiny:
            taus = taus[:2]
        calls = [
            [
                "sweep", "--protocol", "three-spin", "--n", "2",
                "--tau", repr(tau),
                "--j3-min", repr(s), "--j3-max", repr(1.0 - s),
                "--j3-points", str(points),
            ]
            for tau in taus
        ]
        return {"workload": workload, "calls": calls, "rows_per_call": points}
    if workload == "decohere-revival":
        params = TINY_REVIVAL if tiny else REVIVAL
        offset = rng.randrange(params["offsets"])
        config = {k: params[k] for k in ("n_spins", "delta", "tau", "a", "h_start")}
        config["t_grid"] = revival_times(params, offset)
        return {"workload": workload, "config": config, "size": size}
    raise ValueError(f"unknown workload {workload!r}")


def expected_rows(spec: dict) -> int:
    """Output rows one repetition of the spec produces."""
    if spec["workload"] == "sweep-tau":
        return sum(len(s["tau_grid"]) for s in spec["sweeps"])
    if spec["workload"] == "sweep-j3-cli":
        return spec["rows_per_call"] * len(spec["calls"])
    return len(spec["config"]["t_grid"])


# --------------------------------------------------------------------------
# Execution (inside the repetition process)


def execute(spec: dict) -> dict:
    """Run one repetition and return its raw outputs plus wall and CPU time.

    The timed region runs from the first call into spinquench to the last
    result; everything is looked up through the module attributes at call
    time, so wrappers installed by tracing.py see the calls.
    """
    from spinquench import central, cli, kernels, scaling

    workload = spec["workload"]
    out: dict = {}
    if workload == "sweep-tau":
        protos = [
            kernels.QuenchProtocol.ising(s["gamma"], s["tau_grid"][0])
            if s["protocol"] == "ising"
            else kernels.QuenchProtocol.multicritical(s["tau_grid"][0])
            for s in spec["sweeps"]
        ]
        cpu0, t0 = os.times(), time.perf_counter()
        tables = [
            scaling.sweep_tau(p, s["n"], s["tau_grid"])
            for p, s in zip(protos, spec["sweeps"])
        ]
        t1, cpu1 = time.perf_counter(), os.times()
        out["tables"] = [
            {"columns": list(t.columns), "data": t.data.tolist(), "errors": [list(e) for e in t.errors]}
            for t in tables
        ]
    elif workload == "sweep-j3-cli":
        argvs = [call + ["--workers", str(spec["workers"]), "--output", path]
                 for call, path in zip(spec["calls"], spec["outputs"])]
        cpu0, t0 = os.times(), time.perf_counter()
        codes = [cli.main(argv) for argv in argvs]
        t1, cpu1 = time.perf_counter(), os.times()
        out["exit_codes"] = codes
    else:
        config = central.CentralConfig(**spec["config"])
        cpu0, t0 = os.times(), time.perf_counter()
        trace = central.trace_run(config)
        t1, cpu1 = time.perf_counter(), os.times()
        out["trace"] = {
            "t": trace.t.tolist(),
            "D": trace.decoherence.tolist(),
            "Q": trace.discord.tolist(),
            "Cnc": trace.concurrence.tolist(),
            "max_step_drift": trace.max_step_drift,
            "renorm_events": trace.renorm_events,
        }
    out["wall_s"] = t1 - t0
    # children_* covers pool workers, which the executor has joined by now
    out["cpu_s"] = sum(cpu1[:4]) - sum(cpu0[:4])
    return out


# --------------------------------------------------------------------------
# Gates (in the benchmark process; oracles share no code with the timed path)

_BETA_TOL = 1e-8
_I_TOL = 1e-6
_D_REF_TOL = 1e-6
_DRIFT_MAX = 1e-8
_LUO_TOL = 1e-7
_CNC_TOL = 1e-9
_MIDPOINT_M = 1 << 17


def _midpoint_beta_mcp(tau: float, n: int) -> float:
    # the integrand is even and 2 pi-periodic in k, so the midpoint rule on
    # [0, pi] is the trapezoid rule over a full period: spectrally accurate
    import numpy as np

    k = (np.arange(_MIDPOINT_M) + 0.5) * (np.pi / _MIDPOINT_M)
    p = np.exp(-np.pi * tau * (1.0 + np.cos(k)) ** 2 * np.sin(k) ** 2)
    return float(np.mean(p * np.cos(n * k)))


def _oracle_betas(sweep: dict, tau: float) -> tuple[float, float]:
    from scipy.special import ive

    if sweep["protocol"] == "ising":
        half = math.pi * tau * sweep["gamma"] ** 2 / 2.0
        return float(ive(0, half)), float(ive(1, half))
    return _midpoint_beta_mcp(tau, 0), _midpoint_beta_mcp(tau, 2)


def _gate_sweep_tau(spec: dict, out: dict) -> list[str]:
    from spinquench.quench import closed_form_I_n2

    failures = []
    for sweep, table in zip(spec["sweeps"], out["tables"]):
        cols = table["columns"]
        bad_rows = {int(i) for i, _ in table["errors"]}
        for i, (tau, row) in enumerate(zip(sweep["tau_grid"], table["data"])):
            r = dict(zip(cols, row))
            label = f"{sweep['protocol']} n={sweep['n']} tau={tau!r}"
            if i in bad_rows or not all(math.isfinite(v) for v in row):
                failures.append(f"{label}: row failed in the program")
                continue
            b0, b2 = _oracle_betas(sweep, tau)
            if r["tau"] != tau:
                failures.append(f"{label}: tau column {r['tau']!r}")
            elif abs(r["beta0"] - b0) > _BETA_TOL:
                failures.append(f"{label}: beta0 {r['beta0']!r} vs oracle {b0!r}")
            elif sweep["n"] == 2 and abs(r["I"] - closed_form_I_n2(b0, b2)) > _I_TOL:
                failures.append(f"{label}: I {r['I']!r} vs closed form {closed_form_I_n2(b0, b2)!r}")
            elif not (0.0 <= r["C"] <= r["I"]):
                failures.append(f"{label}: C={r['C']!r} outside [0, I={r['I']!r}]")
    return failures


def _csv_lines(path: str) -> list[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read().split(b"\n")
    except OSError:
        return []


def _gate_j3(spec: dict, out: dict) -> list[str]:
    failures = []
    for code, path, ref_path in zip(out["exit_codes"], spec["outputs"], spec["reference_outputs"]):
        if code != 0:
            failures += [f"{path}: exit code {code}"] * spec["rows_per_call"]
            continue
        got, want = _csv_lines(path), _csv_lines(ref_path)
        header_ok = got[:1] == want[:1]
        for i in range(1, spec["rows_per_call"] + 1):
            row = got[i] if i < len(got) else None
            ref = want[i] if i < len(want) else None
            if not header_ok or row is None or row != ref:
                failures.append(f"{path} row {i}: {row!r} differs from the --workers 1 run {ref!r}")
    return failures


def load_reference_d(spec: dict) -> list[float] | None:
    """Recorded D values at this spec's observation times (full size only)."""
    if spec["size"] != "full":
        return None
    with open(REFERENCE_D_PATH) as fh:
        ref = json.load(fh)
    cfg = spec["config"]
    for key in ("n_spins", "delta", "tau", "a", "h_start"):
        if ref["config"][key] != cfg[key]:
            raise ValueError(f"reference_D.json was recorded for another {key}")
    by_t = dict(zip(ref["t"], ref["D"]))
    return [by_t[t] for t in cfg["t_grid"]]


def luo_discord(c1: float, c2: float, c3: float) -> float:
    """Discord of a Bell-diagonal state (Luo, PRA 77, 042303 (2008)), in bits."""

    def xlog2(x):
        return x * math.log2(x) if x > 0.0 else 0.0

    lam = (
        (1 - c1 - c2 - c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 - c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
    )
    mutual = 2.0 + sum(xlog2(x) for x in lam)
    c = max(abs(c1), abs(c2), abs(c3))
    classical = 0.5 * (xlog2(1 - c) + xlog2(1 + c))
    return mutual - classical


def _gate_decohere(spec: dict, out: dict, reference: list[float] | None) -> list[str]:
    import numpy as np

    from spinquench.xstate import concurrence_wootters

    tr = out["trace"]
    a = spec["config"]["a"]
    failures = []
    drift_ok = tr["max_step_drift"] < _DRIFT_MAX
    for i, t in enumerate(spec["config"]["t_grid"]):
        label = f"t={t!r}"
        if i >= len(tr["t"]) or tr["t"][i] != t:
            failures.append(f"{label}: missing row")
            continue
        d, q, cnc = tr["D"][i], tr["Q"][i], tr["Cnc"][i]
        if not drift_ok:
            failures.append(f"{label}: max_step_drift {tr['max_step_drift']!r} >= {_DRIFT_MAX}")
        elif not (0.0 <= d <= 1.0):
            failures.append(f"{label}: D={d!r} outside [0, 1]")
        elif reference is not None and abs(d - reference[i]) > _D_REF_TOL:
            failures.append(f"{label}: D={d!r} vs recorded {reference[i]!r}")
        else:
            root = a * math.sqrt(d)
            q_luo = luo_discord(root, -root, a)
            rho = np.diag([(1 + a) / 4, (1 - a) / 4, (1 - a) / 4, (1 + a) / 4]).astype(complex)
            rho[0, 3] = rho[3, 0] = root / 2
            cnc_w = concurrence_wootters(rho)
            if abs(q - q_luo) > _LUO_TOL:
                failures.append(f"{label}: discord {q!r} vs Luo closed form {q_luo!r}")
            elif abs(cnc - cnc_w) > _CNC_TOL:
                failures.append(f"{label}: concurrence {cnc!r} vs Wootters {cnc_w!r}")
    return failures


def gate(spec: dict, out: dict, reference: list[float] | None = None) -> list[str]:
    """One message per output row that fails its correctness gate."""
    if spec["workload"] == "sweep-tau":
        return _gate_sweep_tau(spec, out)
    if spec["workload"] == "sweep-j3-cli":
        return _gate_j3(spec, out)
    return _gate_decohere(spec, out, reference)
