#!/usr/bin/env python3
"""Trace the decoherence factor and qubit correlations through the driven sweep.

The defaults reproduce the strong-coupling collapse-and-revival regime
(N = 500, delta = 0.01, tau = 250); it runs in 1.2-1.7 s on a 2-core x86-64 VM,
about 0.1 s of it in the discord search (one batch of 426 states for each of
three Werner weights).
Use --delta 1e-4 with --t0 0 --t1 300 for the weak-coupling decay regime.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from spinquench import CentralConfig, trace_run
from spinquench.central import concurrence_werner, qubit_state
from spinquench.xstate import discords


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-spins", type=int, default=500)
    ap.add_argument("--delta", type=float, default=0.01)
    ap.add_argument("--tau", type=float, default=250.0)
    ap.add_argument("--a", type=float, nargs="+", default=[0.3, 0.5, 0.9])
    ap.add_argument("--t0", type=float, default=-100.0)
    ap.add_argument("--t1", type=float, default=750.0)
    ap.add_argument("--dt", type=float, default=2.0)
    ap.add_argument("--h-start", type=float, default=10.0)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    # up to t1, never past it: the last time t0 + k dt <= t1 + 1e-9 dt
    steps = math.floor((args.t1 - args.t0) / args.dt + 1e-9)
    t_grid = tuple(np.arange(args.t0, args.t0 + (steps + 0.5) * args.dt, args.dt))
    # D(t) does not depend on the Werner weight: evolve once, reuse for all a
    cfg = CentralConfig(
        n_spins=args.n_spins,
        delta=args.delta,
        tau=args.tau,
        a=args.a[0],
        t_grid=t_grid,
        h_start=args.h_start,
    )
    trace = trace_run(cfg)
    print(
        f"D range [{trace.decoherence.min():.4f}, {trace.decoherence.max():.4f}], "
        f"max step drift {trace.max_step_drift:.2e}"
    )
    for a in args.a:
        if a == args.a[0]:
            q, cnc = trace.discord, trace.concurrence
        else:
            q = discords([qubit_state(a, d) for d in trace.decoherence])
            cnc = np.array([concurrence_werner(a, d) for d in trace.decoherence])
        out = args.outdir / f"decoherence_delta{args.delta:g}_a{a:g}.csv"
        data = np.column_stack([trace.t, trace.h, trace.decoherence, q, cnc])
        np.savetxt(out, data, delimiter=",", header="t,h,D,Q,Cnc", comments="")
        print(f"a={a:g}: wrote {out}")


if __name__ == "__main__":
    main()
