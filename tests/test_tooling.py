"""The benchmark still finds every program name it wraps or reads, and the
figure script still runs.

bench/tracing.py replaces the names in its LOOKUPS table with recording
wrappers and raises if one no longer exists; a renamed `trace_run` or
`ModeEnsemble.advance` would otherwise only show up as a failed benchmark,
and so would an `advance` that stops keeping `ens.t`, from which the tracer
reads the simulated time.
The rest of bench/ imports program names directly (the gates' oracles
`concurrence_wootters` and `closed_form_I_n2`, the selftest's `discord`) and
reads fields of the trace it times; those are checked from the source.  The
D values that decohere-revival's gate reads from bench/reference_D.json are
checked against a march in bench/record_reference.py's pattern.

The CLI's printed cells are checked against tests/record/, which
scripts/record.py writes: the figure CSVs and the calls at the edges are
rerun and compared byte for byte, under the Python and numpy versions the
record was made with.
"""

import ast
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# every CSV scripts/figures.py writes: 10 sweeps, the Q and beta0 fits of
# the Ising and multicritical sweeps, and one trace with three Werner weights
FIGURE_CSVS = sorted(
    [f"ising_sweep_n{n}.csv" for n in (2, 4, 6)]
    + [f"ising_fit_n{n}_{c}.csv" for n in (2, 4, 6) for c in ("Q", "beta0")]
    + ["multicritical_sweep_n2.csv", "multicritical_fit_n2_Q.csv", "multicritical_fit_n2_beta0.csv"]
    + [f"three_spin_vs_j3_tau{t}.csv" for t in (2, 10, 50)]
    + [f"three_spin_vs_tau_j3{j}.csv" for j in (0.2, 0.5, 0.8)]
    + ["decoherence_delta0.01.csv"]
)

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


def test_recorded_reference_is_reproduced():
    # decohere-revival's gate holds D to bench/reference_D.json within 1e-6
    # (`_D_REF_TOL` in bench/workloads.py); march the ensemble over every
    # recorded time as bench/record_reference.py does, one advance per time
    # in order.  The file is only read here, never rewritten.
    from spinquench import central

    ref = json.loads((ROOT / "bench" / "reference_D.json").read_text())
    times = tuple(ref["t"])
    ens = central.ModeEnsemble(central.CentralConfig(t_grid=times, **ref["config"]))
    values = [ens.advance(t).decoherence_factor() for t in times]
    assert len(values) == len(ref["D"]) == 552
    assert max(abs(d - r) for d, r in zip(values, ref["D"])) <= 1e-6


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


@pytest.fixture
def record(monkeypatch):
    # scripts/record.py imports scripts/figures.py as a sibling module
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location("record", ROOT / "scripts" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_recorded_versions(record):
    # the bytes depend on numpy's and libm's rounding: a record made under
    # other versions is no reference, and the test says so rather than skip
    recorded = json.loads((record.RECORD / "versions.json").read_text())
    running = record.versions()
    assert recorded == running, f"record made under {recorded}, run under {running}"


def test_scripts_run(tmp_path, record):
    # a call the CLI no longer takes fails here, not only when someone next
    # regenerates the figure data; every file is the CLI's own output, byte
    # for byte the recorded one
    from spinquench.cli import main

    assert_recorded_versions(record)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "figures.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == FIGURE_CSVS
    for name in FIGURE_CSVS:
        text = (tmp_path / name).read_text()
        assert len(text.splitlines()) > 1 and "nan" not in text.lower(), name
        assert text.encode() == (record.RECORD / name).read_bytes(), name
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--protocol", "ising", "--gamma", "1", "--n", "2", "--tau-min", "0.1",
                 "--tau-max", "1e4", "--tau-points", "48", "--output", str(sweep)]) == 0
    assert sweep.read_bytes() == (tmp_path / "ising_sweep_n2.csv").read_bytes()


def test_edge_calls_reproduce_the_record(record):
    # the measures rows at the moment kernel's edges and at tau = 0, and the
    # two-weight decohere-revival trace: every call exits 0
    # (record.edge_outputs raises otherwise) and prints the recorded bytes
    assert_recorded_versions(record)
    outputs = record.edge_outputs()
    assert sorted(outputs) == ["decohere_revival.csv", "measures_edges.csv"]
    assert len(outputs["measures_edges.csv"].splitlines()) == 1 + 27
    for name, text in outputs.items():
        assert text.encode() == (record.RECORD / name).read_bytes(), name


def test_figures_stop_at_the_first_failed_call(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("figures", ROOT / "scripts" / "figures.py")
    figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(figures)
    codes, calls = iter([0, 0, 3]), []

    def fake(argv):
        calls.append(argv)
        return next(codes)

    monkeypatch.setattr(figures, "spinquench", fake)
    assert figures.main(str(tmp_path)) == 3
    assert calls == figures.calls(tmp_path)[:3]
