#!/usr/bin/env python3
"""Regenerate the figure data as CSV, each file from one `spinquench` call.

Usage: python scripts/figures.py [OUTDIR], by default results/.  The calls
run in order through `spinquench.cli.main`, so every file has the CLI's
format and failed-row rule; the first non-zero exit code stops the run and
is returned.  Each fit reads the sweep written before it.
"""

import sys
from pathlib import Path

from spinquench.cli import main as spinquench


def _fits(out: Path, stem: str, n: str, window: tuple[str, str]) -> list[list[str]]:
    return [
        ["fit", "--input", str(out / f"{stem}_sweep_n{n}.csv"), "--column", column,
         "--window-min", window[0], "--window-max", window[1],
         "--output", str(out / f"{stem}_fit_n{n}_{column}.csv")]
        for column in ("Q", "beta0")
    ]


def calls(out: Path) -> list[list[str]]:
    """The argv of every call, in the order they run."""
    argvs = []
    for n in ("2", "4", "6"):
        argvs.append(["sweep", "--protocol", "ising", "--gamma", "1", "--n", n,
                      "--tau-min", "0.1", "--tau-max", "1e4", "--tau-points", "48",
                      "--output", str(out / f"ising_sweep_n{n}.csv")])
        argvs += _fits(out, "ising", n, ("1e2", "1e4"))
    argvs.append(["sweep", "--protocol", "multicritical", "--n", "2",
                  "--tau-min", "1", "--tau-max", "1e5", "--tau-points", "41",
                  "--output", str(out / "multicritical_sweep_n2.csv")])
    argvs += _fits(out, "multicritical", "2", ("1e2", "1e5"))
    for tau in ("2", "10", "50"):
        argvs.append(["sweep", "--protocol", "three-spin", "--n", "2", "--tau", tau,
                      "--j3-min", "0", "--j3-max", "1", "--j3-points", "41",
                      "--output", str(out / f"three_spin_vs_j3_tau{tau}.csv")])
    for j3 in ("0.2", "0.5", "0.8"):
        argvs.append(["sweep", "--protocol", "three-spin", "--n", "2", "--j3", j3,
                      "--tau-min", "0.5", "--tau-max", "1e3", "--tau-points", "25",
                      "--output", str(out / f"three_spin_vs_tau_j3{j3}.csv")])
    argvs.append(["decohere", "--n-spins", "500", "--delta", "0.01", "--tau", "250",
                  "--a", "0.3", "0.5", "0.9", "--t0", "-100", "--t1", "750", "--dt", "2",
                  "--output", str(out / "decoherence_delta0.01.csv")])
    return argvs


def main(outdir: str = "results") -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for call in calls(out):
        code = spinquench(call)
        if code:
            return code
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 or any(arg.startswith("-") for arg in sys.argv[1:]):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
