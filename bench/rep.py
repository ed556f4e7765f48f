"""One repetition of one workload, in a fresh interpreter.

Reads a spec (see workloads.make_spec) as JSON on stdin, imports spinquench
from the checkout's src/, optionally wraps the lookup points of tracing.py,
runs the spec and prints one JSON line with the outputs, wall and CPU time,
peak memory and, when traced, the spans.  run.py starts it once per
repetition so caches and lazily built tables start cold every time.
"""

from __future__ import annotations

import json
import os
import resource
import sys

import tracing
import workloads


def main() -> int:
    spec = json.load(sys.stdin)
    root = os.path.dirname(workloads.BENCH_DIR)
    import spinquench

    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(spinquench.__file__), src]) != src:
        print(f"spinquench imported from {spinquench.__file__}, not {src}", file=sys.stderr)
        return 2
    recorder = None
    if spec.get("trace"):
        recorder = tracing.Recorder()
        tracing.install(recorder)
    out = workloads.execute(spec)
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["peak_rss_mb"] = kib / 1024.0
    if recorder is not None:
        out["layers"] = tracing.summarize(recorder.spans, recorder.counts)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
