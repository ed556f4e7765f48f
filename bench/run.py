"""spinquench benchmark: one workload, measured for a fixed time, outputs gated.

    python3 bench/run.py --workload sweep-tau --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout holding src/spinquench).  Each
repetition runs in a fresh interpreter (rep.py) with BLAS and OpenMP pinned
to one thread; repetitions repeat until --seconds of them have run.  With
--trace 1, one more repetition runs with the lookup points of tracing.py
wrapped, and the per-layer metrics come from it.  Every output row is
checked against an independent oracle (workloads.gate).

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the lines before it give each metric's quartiles and
sample count, the failed share, and the machine and versions the numbers
were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402

BENCH_DIR = workloads.BENCH_DIR
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REP = os.path.join(BENCH_DIR, "rep.py")
# the gates use two oracles that live in the package (closed_form_I_n2 and
# concurrence_wootters); import them from this checkout, never elsewhere
sys.path.insert(0, SRC)

# a run must end within 180 s; repetitions get what is left of this
DEADLINE_S = 170.0
SETUP_SAMPLES = 3
IMPORT_SNIPPET = "import spinquench, spinquench.cli"

END_TO_END_UNITS = {
    "wall_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "kernels.beta_calls": "count",
    "kernels.beta_requests": "count",
    "kernels.cache_hit_ratio": "ratio",
    "kernels.busy_s": "s",
    "kernels.ms_per_beta": "ms",
    "xstate.cc_calls": "count",
    "xstate.objective_evals": "count",
    "xstate.evals_per_state": "1/state",
    "xstate.busy_s": "s",
    "xstate.ms_per_state": "ms",
    "quench.measures_calls": "count",
    "quench.self_s": "s",
    "central.advance_calls": "count",
    "central.advance_s": "s",
    "central.sim_time_per_s": "1",
    "central.max_step_drift": "1",
    "central.renorm_events": "count",
    "scaling.sweep_s": "s",
    "scaling.self_s": "s",
    "scaling.parallel_speedup": "ratio",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}


class RepetitionError(RuntimeError):
    """A repetition process failed or produced no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def run_child(spec: dict, deadline: float) -> tuple[dict, float]:
    """One repetition in a fresh interpreter; returns its output and process wall time."""
    start = time.perf_counter()
    # own session, so a timeout can stop the pool workers along with it
    proc = subprocess.Popen(
        [sys.executable, REP],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=BENCH_DIR,
        env=child_env(),
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            json.dumps(spec), timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepetitionError(f"repetition timed out after {exc.timeout:.0f} s") from exc
    elapsed = time.perf_counter() - start
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionError(f"repetition exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), elapsed


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing spinquench and numpy/scipy."""
    cmd = [sys.executable, "-c", IMPORT_SNIPPET]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=BENCH_DIR, env=child_env(), timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def summary(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        openblas = "unknown"
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    # read .git directly: the benchmark may run from a checkout without git
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(spec, traced_out, serial_out, untraced_walls) -> dict:
    """Per-layer metrics of one traced repetition (see README.md for the map).

    For sweep-j3-cli the layers below scaling run inside pool workers, out of
    reach, so they come from the traced --workers 1 pass made at set-up.
    Ratios over zero calls are reported as 0.
    """
    lay = traced_out["layers"]
    low = serial_out["layers"] if serial_out is not None else lay

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "kernels.beta_calls": low["beta_calls"],
        "kernels.beta_requests": low["beta_requests"],
        "kernels.cache_hit_ratio": ratio(low["beta_requests"] - low["beta_calls"], low["beta_requests"]),
        "kernels.busy_s": low["kernels_busy_s"],
        "kernels.ms_per_beta": 1e3 * ratio(low["beta_s"], low["beta_calls"]),
        "xstate.cc_calls": low["cc_calls"],
        "xstate.objective_evals": low["objective_evals"],
        "xstate.evals_per_state": ratio(low["objective_evals"], low["cc_calls"]),
        "xstate.busy_s": low["xstate_busy_s"],
        "xstate.ms_per_state": 1e3 * ratio(low["cc_s"], low["cc_calls"]),
        "quench.measures_calls": low["measures_calls"],
        "quench.self_s": low["quench_self_s"],
        "central.advance_calls": lay["advance_calls"],
        "central.advance_s": lay["advance_s"],
        "central.sim_time_per_s": ratio(lay["sim_time"], lay["advance_s"]),
        "central.max_step_drift": traced_out.get("trace", {}).get("max_step_drift", 0.0),
        "central.renorm_events": traced_out.get("trace", {}).get("renorm_events", 0),
        "scaling.sweep_s": lay["sweep_s"],
        "scaling.self_s": lay["scaling_self_s"],
        "scaling.parallel_speedup": ratio(low["sweep_s"], lay["sweep_s"]) if serial_out else 0.0,
        "cli.self_s": lay["cli_self_s"],
        "cli.csv_bytes": sum(os.path.getsize(p) for p in spec.get("outputs", [])),
        "trace.overhead_s": traced_out["wall_s"] - statistics.median(untraced_walls),
        "trace.span_coverage": ratio(lay["root_s"], traced_out["wall_s"]),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one benchmark run and return the result object (plus details)."""
    deadline = time.monotonic() + DEADLINE_S
    spec = workloads.make_spec(workload, seed, size)
    rows = workloads.expected_rows(spec)
    reference = workloads.load_reference_d(spec) if workload == "decohere-revival" else None
    setup = measure_setup()

    workdir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    serial_out = None
    attempted = failed = 0
    messages: list[str] = []
    try:
        if workload == "sweep-j3-cli":
            os.makedirs(workdir, exist_ok=True)
            spec["workers"] = min(2, nproc())
            spec["outputs"] = [os.path.join(workdir, f"j3_{i}.csv") for i in range(len(spec["calls"]))]
            spec["reference_outputs"] = [
                os.path.join(workdir, f"j3_{i}_serial.csv") for i in range(len(spec["calls"]))
            ]
            # untimed serial pass: the byte reference for every repetition,
            # and, traced, the layer spans the pool workers hide
            ref_spec = dict(spec, workers=1, outputs=spec["reference_outputs"], trace=trace)
            serial_out, _ = run_child(ref_spec, deadline)
            if serial_out["exit_codes"] != [0] * len(spec["calls"]):
                raise RepetitionError(f"serial reference pass exited with {serial_out['exit_codes']}")

        samples: dict[str, list[float]] = {"wall_s": [], "rows_per_s": [], "cpu_s": [], "peak_rss_mb": []}
        measured = last = 0.0
        reserve = 2 if trace else 1  # repetitions still to fit after this one
        while not samples["wall_s"] or (
            measured < seconds and time.monotonic() + reserve * last < deadline
        ):
            out, last = run_child(spec, deadline)
            measured += last
            bad = workloads.gate(spec, out, reference)
            attempted += rows
            failed += len(bad)
            messages += bad
            samples["wall_s"].append(out["wall_s"])
            samples["rows_per_s"].append(rows / out["wall_s"])
            samples["cpu_s"].append(out["cpu_s"])
            samples["peak_rss_mb"].append(out["peak_rss_mb"])

        traced_metrics = None
        if trace:
            traced_out, _ = run_child(dict(spec, trace=True), deadline)
            bad = workloads.gate(spec, traced_out, reference)
            attempted += rows
            failed += len(bad)
            messages += bad
            traced_metrics = layer_metrics(spec, traced_out, serial_out, samples["wall_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stats = {name: summary(v) for name, v in samples.items()}
    stats["setup_s"] = summary(setup)
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in traced_metrics.items()}
    else:
        metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
        "stats": stats,
        "failed_share": failed / attempted,
        "failures": messages,
        "spec_rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spinquench", "__init__.py")):
        print(f"error: no spinquench sources under {SRC}", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepetitionError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for msg in report["failures"][:20]:
        print(f"gate failed: {msg}", file=sys.stderr)
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed,
                      "rows_per_repetition": report["spec_rows"]}))
    for name, s in report["stats"].items():
        print(f"{name}: median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    print(f"failed_share: {report['failed_share']:.6g}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
