"""Command-line front end: deterministic CSV output for sweeps, fits, and traces.

Subcommands: measures, sweep, fit, decohere.  Each subparser names its
command (`run`), which builds its own protocol, grid or `CentralConfig`s from
argparse's namespace; those check their own inputs, and cli checks only which
grid supplies a sweep's abscissa, --workers >= 1 and repeated Werner weights.
measures is the one-row table of the sweeps' own pipeline
(`scaling.measure_table`); both print through `_write_table`: a failed row
keeps its inputs with NaN values, is listed on stderr as `numerical failure:
row i failed: ...`, and makes the exit code 3.  decohere marches once, which
measures the first Werner weight of --a; the others are measured on that
D(t).  A --config file's keys are flag names, parsed as flags in front of the
command line's; a run reads one file.  Output goes to --output or stdout,
diagnostics to stderr.  Exit codes: 0 success, 2 invalid configuration, 3
numerical failure.  Reruns give byte-identical CSV; --workers has no effect.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import central, scaling
from .kernels import ProtocolKind, QuenchProtocol
from .xstate import correlations

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.11e}"


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_table(path: str | None, table: scaling.SweepTable) -> int:
    """Write a table's rows (n as an integer) and report its failed rows: exit 3 if any."""
    rows = [
        [int(v) if name == "n" else v for name, v in zip(table.columns, row)]
        for row in table.data
    ]
    _write_csv(path, list(table.columns), rows)
    for idx, message in table.errors:
        print(f"numerical failure: row {idx} failed: {message}", file=sys.stderr)
    return EXIT_NUMERICAL if table.errors else EXIT_OK


def _build_protocol(args) -> QuenchProtocol:
    kind = ProtocolKind(args.protocol)
    gamma = 1.0 if kind is ProtocolKind.ISING and args.gamma is None else args.gamma
    j3 = 0.0 if kind is ProtocolKind.THREE_SPIN and args.j3 is None else args.j3
    return QuenchProtocol(kind, args.tau if args.tau is not None else 1.0, gamma=gamma, j3=j3)


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    if lo <= 0.0 or hi <= lo or points < 2:
        raise ValueError(f"bad grid spec ({lo}, {hi}, {points})")
    return list(np.geomspace(lo, hi, points))


def cmd_measures(args) -> int:
    return _write_table(args.output, scaling.measure_table(_build_protocol(args), args.n))


def cmd_sweep(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ValueError("--workers must be >= 1")
    has_j3_grid = args.j3_min is not None or args.j3_max is not None
    has_tau_grid = args.tau_min is not None or args.tau_max is not None
    if has_j3_grid and has_tau_grid:
        raise ValueError("choose one abscissa: a tau grid or a j3 grid")
    if (has_j3_grid and args.j3 is not None) or (has_tau_grid and args.tau is not None):
        raise ValueError("the grid supplies its abscissa: drop --j3 or --tau")
    if has_j3_grid:
        if args.protocol != "three-spin":
            raise ValueError("a j3 grid requires --protocol three-spin")
        if args.tau is None:
            raise ValueError("a j3 sweep needs a fixed --tau")
        if args.j3_min is None or args.j3_max is None:
            raise ValueError("need both --j3-min and --j3-max")
        if args.j3_max <= args.j3_min or args.j3_points < 2:
            raise ValueError("bad j3 grid spec")
        j3_grid = list(np.linspace(args.j3_min, args.j3_max, args.j3_points))
        table = scaling.sweep_j3(_build_protocol(args).tau, args.n, j3_grid)
    elif has_tau_grid:
        if args.tau_min is None or args.tau_max is None:
            raise ValueError("need both --tau-min and --tau-max")
        tau_grid = _log_grid(args.tau_min, args.tau_max, args.tau_points)
        table = scaling.sweep_tau(_build_protocol(args), args.n, tau_grid)
    else:
        raise ValueError("sweep needs --tau-min/--tau-max or --j3-min/--j3-max")
    return _write_table(args.output, table)


def cmd_fit(args) -> int:
    with open(args.input, newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{args.input} has no data rows")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if args.column not in header:
        raise ValueError(f"column {args.column!r} not in {header}")
    table = scaling.SweepTable(columns=tuple(header), data=data)
    fit = scaling.fit_loglog(table, args.column, (args.window_min, args.window_max))
    _write_csv(
        args.output,
        ["slope", "intercept", "r_squared", "window_min", "window_max", "n_points"],
        [[fit.slope, fit.intercept, fit.r_squared, fit.window[0], fit.window[1], fit.n_points]],
    )
    return EXIT_OK


def cmd_decohere(args) -> int:
    names = [f"{a:g}" for a in args.a]
    if len(set(names)) < len(names):
        raise ValueError(f"--a repeats a Werner weight: {' '.join(names)}")
    t_grid = central.observation_grid(args.t0, args.t1, args.dt)
    configs = [
        central.CentralConfig(n_spins=args.n_spins, delta=args.delta, tau=args.tau, a=a,
                              gamma=args.gamma, h_start=args.h_start, t_grid=t_grid)
        for a in args.a
    ]
    # D does not depend on the Werner weight: one march serves every weight
    trace = central.trace_run(configs[0])
    header, columns = ["t", "h", "D"], [trace.t, trace.h, trace.decoherence]
    measured = {"Q": trace.discord, "Cnc": trace.concurrence}  # trace_run measured configs[0]
    for config, name in zip(configs, names):
        if config is not configs[0]:
            measured = correlations([central.qubit_state(config.a, d) for d in trace.decoherence])
        suffix = f"_a{name}" if len(configs) > 1 else ""
        header += [f"Q{suffix}", f"Cnc{suffix}"]
        columns += [measured["Q"], measured["Cnc"]]
    _write_csv(args.output, header, list(zip(*columns)))
    print(
        f"adiabatic: {trace.adiabatic_steps} steps to t = {trace.handoff:g}; "
        f"magnus: {trace.steps} steps of at most {trace.step:g}, "
        f"error estimate of D {trace.error_estimate:.2e}, "
        f"max norm defect {trace.max_step_drift:.2e}",
        file=sys.stderr,
    )
    return EXIT_OK


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw!r}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("_", "-")] = value.strip()
    return values


class _ConfigFile(ValueError):
    """Raised by --config on a path other than that of the file already read."""

    def __init__(self, action: argparse.Action, path: str):
        super().__init__(f"--config {path}: a run reads one config file")
        self.action, self.path = action, path


class _ConfigFlag(argparse.Action):
    """--config: the parse stops at a path other than the flag's default, the file read."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values != self.default:
            raise _ConfigFile(self, values)
        setattr(namespace, self.dest, values)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinquench",
        description="Quantum correlations from driven spin chains: measures, sweeps, fits, decoherence traces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument(
            "--config", action=_ConfigFlag, help="flat key=value file; flags override it"
        )
        p.add_argument("--output", help="CSV output path (default stdout)")

    def add_protocol(p):
        p.add_argument("--protocol", choices=["ising", "multicritical", "three-spin"], required=True)
        p.add_argument("--gamma", type=float, default=None, help="anisotropy (ising only)")
        p.add_argument("--j3", type=float, default=None, help="three-spin coupling")
        p.add_argument("--n", type=int, default=2, help="spin separation: 2, 4 or 6")

    p = sub.add_parser("measures", help="one (protocol, tau, n) correlation report")
    p.set_defaults(run=cmd_measures)
    add_common(p)
    add_protocol(p)
    p.add_argument("--tau", type=float, required=True)

    p = sub.add_parser("sweep", help="measures over a tau grid, or over j3 at fixed tau")
    p.set_defaults(run=cmd_sweep)
    add_common(p)
    add_protocol(p)
    p.add_argument("--tau", type=float, help="fixed tau (j3 sweeps)")
    p.add_argument("--tau-min", type=float)
    p.add_argument("--tau-max", type=float)
    p.add_argument("--tau-points", type=int, default=40)
    p.add_argument("--j3-min", type=float)
    p.add_argument("--j3-max", type=float)
    p.add_argument("--j3-points", type=int, default=21)
    p.add_argument(
        "--workers", type=int, default=None,
        help="accepted for existing command lines and checked to be >= 1; "
        "rows are computed in one process, so it has no effect",
    )

    p = sub.add_parser("fit", help="log-log power-law fit of a sweep CSV column")
    p.set_defaults(run=cmd_fit)
    add_common(p)
    p.add_argument("--input", required=True, help="sweep CSV path")
    p.add_argument("--column", default="Q")
    p.add_argument("--window-min", type=float, default=1e2)
    p.add_argument("--window-max", type=float, default=1e4)

    p = sub.add_parser("decohere", help="central-qubit decoherence trace")
    p.set_defaults(run=cmd_decohere)
    add_common(p)
    p.add_argument("--n-spins", type=int, required=True, help="environment size N")
    p.add_argument("--delta", type=float, required=True, help="qubit-environment coupling")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--a", type=float, nargs="+", required=True,
                   help="Werner weights: Q_a<a>, Cnc_a<a> columns for each when several")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--h-start", type=float, default=10.0)
    p.add_argument("--t0", type=float, required=True, help="first observation time")
    p.add_argument("--t1", type=float, required=True, help="last observation time")
    p.add_argument("--dt", type=float, required=True, help="observation spacing")
    return parser


def _parse(argv) -> argparse.Namespace:
    # the command's own parser finds --config (or a prefix that no other of its
    # flags shares) and stops there, before it checks the flags the file may supply
    parser = _make_parser()
    try:
        return parser.parse_args(argv)
    except _ConfigFile as found:
        found.action.default = found.path
        # file values go in front of the command line's flags: argparse checks
        # them as it checks flags, and a flag given again on the command line wins
        keys = [f"--{k}={v}" for k, v in _read_config_file(found.path).items()]
    return parser.parse_args([*argv[:1], *keys, *argv[1:]])


def main(argv=None) -> int:
    try:
        args = _parse(argv if argv is not None else sys.argv[1:])
        return args.run(args)
    except SystemExit as exc:  # argparse reports usage errors via exit
        return EXIT_CONFIG if exc.code else EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
