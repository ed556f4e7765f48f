#!/usr/bin/env python3
"""Write the record of the CLI's printed cells that the tests compare against.

Usage: python scripts/record.py [DIR], by default tests/record/.  The record
holds CSV only, each file the bytes of `spinquench` calls:
- the 19 files of scripts/figures.py, from its own calls;
- measures_edges.csv, one header and one row per `measures` call at the edges
  of the moment kernel: Ising n = 2, 4, 6 and multicritical n = 2 at
  tau = 1e5 .. 1e8, three-spin J3 = 0.5 and 0.55 at tau = 1e3 .. 1e6, and
  the sudden quench tau = 0 of Ising n = 2, multicritical n = 4 and
  three-spin n = 6;
- decohere_revival.csv, the decohere-revival chain (N = 500, delta = 0.01,
  tau = 50) from h_start = 10, with two Werner weights;
and versions.json, the Python and numpy versions the bytes were made with.
A change that moves a cell reruns this script; the record's diff lists the
moved cells.  Every call must exit 0.
"""

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

import figures
from spinquench.cli import main as spinquench

RECORD = Path(__file__).resolve().parents[1] / "tests" / "record"


def edge_calls() -> dict[str, list[list[str]]]:
    """The argv of every call the figures do not make, by the file they go to."""
    measures = [
        ["measures", "--protocol", protocol, "--n", n, "--tau", tau]
        for protocol, n in (("ising", "2"), ("ising", "4"), ("ising", "6"), ("multicritical", "2"))
        for tau in ("1e5", "1e6", "1e7", "1e8")
    ] + [
        ["measures", "--protocol", "three-spin", "--j3", j3, "--tau", tau]
        for j3 in ("0.5", "0.55")
        for tau in ("1e3", "1e4", "1e5", "1e6")
    ] + [
        ["measures", "--protocol", protocol, "--n", n, "--tau", "0"]
        for protocol, n in (("ising", "2"), ("multicritical", "4"), ("three-spin", "6"))
    ]
    decohere = [
        ["decohere", "--n-spins", "500", "--delta", "0.01", "--tau", "50", "--h-start", "10",
         "--t0", "-20", "--t1", "150", "--dt", "2.5", "--a", "0.3", "0.9"]
    ]
    return {"measures_edges.csv": measures, "decohere_revival.csv": decohere}


def _stdout(argv: list[str]) -> str:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = spinquench(argv)
    if code:
        raise RuntimeError(f"spinquench {' '.join(argv)} exited {code}")
    return text.getvalue()


def edge_outputs() -> dict[str, str]:
    """Each edge file's text: the first call's header, then every call's rows."""
    texts = {}
    for name, argvs in edge_calls().items():
        outs = [_stdout(argv) for argv in argvs]
        texts[name] = outs[0] + "".join(out.split("\n", 1)[1] for out in outs[1:])
    return texts


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def main(outdir: str | Path = RECORD) -> int:
    out = Path(outdir)
    code = figures.main(out)
    if code:
        return code
    for name, text in edge_outputs().items():
        (out / name).write_text(text)
    (out / "versions.json").write_text(json.dumps(versions(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 or any(arg.startswith("-") for arg in sys.argv[1:]):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
