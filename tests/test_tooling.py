"""The benchmark still finds every program name it wraps or reads, and the
experiment scripts still run.

bench/tracing.py replaces the names in its LOOKUPS table with recording
wrappers and raises if one no longer exists; a renamed `trace_run` or
`ModeEnsemble.advance` would otherwise only show up as a failed benchmark,
and so would an `advance` that stops keeping `ens.t`, from which the tracer
reads the simulated time.
The rest of bench/ imports program names directly (the gates' oracles
`concurrence_wootters` and `closed_form_I_n2`, the selftest's `discord`) and
reads fields of the trace it times; those are checked from the source.
"""

import ast
import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# each script of scripts/ at small arguments, and the CSVs it writes
SCRIPTS = {
    "ising_discord_scaling.py": (
        ["--points", "12"],
        ["ising_sweep_n2.csv", "ising_sweep_n4.csv", "ising_sweep_n6.csv"],
    ),
    "multicritical_scaling.py": (["--points", "9"], ["multicritical_sweep_n2.csv"]),
    "three_spin_scan.py": (
        ["--taus", "2", "10", "--j3-values", "0.5", "--j3-points", "11"],
        ["three_spin_vs_j3_tau2.csv", "three_spin_vs_j3_tau10.csv", "three_spin_vs_tau_j30.5.csv"],
    ),
    "decoherence_trace.py": (
        ["--n-spins", "20", "--delta", "0.05", "--tau", "2", "--a", "0.5", "0.9",
         "--t0", "-2", "--t1", "2", "--dt", "1"],
        ["decoherence_delta0.05_a0.5.csv", "decoherence_delta0.05_a0.9.csv"],
    ),
}

PROBE = """
import tracing
from spinquench import central
recorder = tracing.Recorder()
tracing.install(recorder)
print(len(tracing.LOOKUPS))
print(central.ModeEnsemble.advance.__wrapped__.__qualname__)
print(central.trace_run.__wrapped__.__qualname__)
config = central.CentralConfig(
    n_spins=20, delta=0.05, tau=2.0, a=0.9, t_grid=(-2.0, 0.0, 2.0, 4.0)
)
central.trace_run(config)
layer = tracing.summarize(recorder.spans, recorder.counts)
print(layer["advance_calls"], len(config.t_grid))
print(repr(layer["sim_time"]), repr(config.t_grid[-1] - config.t_start))
"""


def test_every_lookup_point_resolves():
    # the traced trace meets TOL at the first step, so it advances once per
    # observation time, and the tracer's sim_time (ens.t after a call minus
    # ens.t before it) adds up to the span from t_start to the last time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    count, advance, trace, calls, times, sim_time, span = run.stdout.split()
    assert int(count) > 0
    assert (advance, trace) == ("ModeEnsemble.advance", "trace_run")
    assert calls == times == "4"
    assert float(sim_time) == float(span) == 22.0


def test_every_bench_import_resolves():
    # runs each `from spinquench... import ...` of bench/ (a missing name
    # raises ImportError), then checks each `module.attr` read on a module
    # bound that way
    imports = 0
    for path in sorted((ROOT / "bench").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        bound = {}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spinquench"):
                exec(ast.unparse(node), {}, bound)
                imports += 1
        modules = {k: v for k, v in bound.items() if isinstance(v, types.ModuleType)}
        missing = [
            f"{n.value.id}.{n.attr}" for n in nodes
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in modules
            and not hasattr(modules[n.value.id], n.attr)
        ]
        assert missing == [], path.name
    assert imports > 0


def test_trace_fields_read_by_the_benchmark_exist():
    from spinquench.central import DecoherenceTrace

    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    execute = next(n for n in tree.body if getattr(n, "name", None) == "execute")
    read = {
        n.attr for n in ast.walk(execute)
        if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "trace"
    }
    assert {"max_step_drift", "renorm_events"} <= read
    assert read <= {f.name for f in dataclasses.fields(DecoherenceTrace)}


def test_scripts_run(tmp_path):
    # a script that imports a name the library no longer has fails here, not
    # only when someone next regenerates the figure data
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, (args, csvs) in SCRIPTS.items():
        outdir = tmp_path / script.removesuffix(".py")
        run = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args, "--outdir", str(outdir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, f"{script}: {run.stderr}"
        assert sorted(p.name for p in outdir.glob("*.csv")) == sorted(csvs), script
        for name in csvs:
            text = (outdir / name).read_text()
            assert len(text.splitlines()) > 1 and "nan" not in text.lower(), name
