"""The benchmark's tracer still finds every program name it wraps.

bench/tracing.py replaces the names in its LOOKUPS table with recording
wrappers and raises if one no longer exists; a renamed `trace_run` or
`ModeEnsemble.advance` would otherwise only show up as a failed benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import tracing
from spinquench import central
tracing.install(tracing.Recorder())
print(len(tracing.LOOKUPS))
print(central.ModeEnsemble.advance.__wrapped__.__qualname__)
print(central.trace_run.__wrapped__.__qualname__)
"""


def test_every_lookup_point_resolves():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    count, advance, trace = run.stdout.split()
    assert int(count) > 0
    assert (advance, trace) == ("ModeEnsemble.advance", "trace_run")
