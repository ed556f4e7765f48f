"""Command-line front end: deterministic CSV output for sweeps, fits, and traces.

Subcommands: measures, sweep, fit, decohere.  Output goes to --output or
stdout, diagnostics to stderr.  Exit codes: 0 success, 2 invalid
configuration, 3 numerical failure.  Reruns produce byte-identical CSV
for a fixed configuration; sweep's --workers is accepted but has no effect.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import central, scaling
from .kernels import QuadratureError, QuenchProtocol, compute_betas
from .quench import correlators_from_betas, measure_state
from .xstate import build_xstate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    """Validated knobs of a single invocation (one subcommand's worth)."""

    subcommand: str
    protocol: QuenchProtocol | None = None
    n: int = 2
    tau_grid: list[float] | None = None
    j3_grid: list[float] | None = None
    column: str = "Q"
    window: tuple[float, float] = (1e2, 1e4)
    input_path: str | None = None
    output_path: str | None = None
    central_config: central.CentralConfig | None = None


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


def _build_protocol(args) -> QuenchProtocol:
    tau = args.tau if getattr(args, "tau", None) is not None else 1.0
    if args.protocol == "ising":
        if getattr(args, "j3", None) is not None:
            raise ValueError("--j3 is only valid with --protocol three-spin")
        return QuenchProtocol.ising(args.gamma if args.gamma is not None else 1.0, tau)
    if args.protocol == "multicritical":
        if getattr(args, "j3", None) is not None or args.gamma is not None:
            raise ValueError("--protocol multicritical takes no --gamma/--j3")
        return QuenchProtocol.multicritical(tau)
    if args.protocol == "three-spin":
        if args.gamma is not None:
            raise ValueError("--gamma is only valid with --protocol ising")
        j3 = args.j3 if args.j3 is not None else 0.0
        return QuenchProtocol.three_spin(j3, tau)
    raise ValueError(f"unknown protocol {args.protocol!r}")


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    if lo <= 0.0 or hi <= lo or points < 1:
        raise ValueError(f"bad grid spec ({lo}, {hi}, {points})")
    if points == 1:
        return [lo]
    return list(np.geomspace(lo, hi, points))


def cmd_measures(cfg: RunConfig) -> int:
    betas = compute_betas(cfg.protocol, n_max=6)  # printed, and enough for every n
    rep = measure_state(build_xstate(correlators_from_betas(betas, cfg.n)))
    row = [
        cfg.protocol.tau,
        cfg.n,
        betas[0],
        betas[2],
        betas[4],
        betas[6],
        rep.mutual_information,
        rep.classical_correlation,
        rep.discord,
        rep.concurrence,
    ]
    _write_csv(
        cfg.output_path,
        ["tau", "n", "beta0", "beta2", "beta4", "beta6", "I", "C", "Q", "Cnc"],
        [row],
    )
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.j3_grid is not None:
        table = scaling.sweep_j3(cfg.protocol.tau, cfg.n, cfg.j3_grid)
    else:
        table = scaling.sweep_tau(cfg.protocol, cfg.n, cfg.tau_grid)
    rows = []
    for row in table.data:
        out = []
        for name, v in zip(table.columns, row):
            out.append(int(v) if name == "n" and np.isfinite(v) else v)
        rows.append(out)
    _write_csv(cfg.output_path, list(table.columns), rows)
    for idx, message in table.errors:
        print(f"row {idx} failed: {message}", file=sys.stderr)
    return EXIT_NUMERICAL if table.errors else EXIT_OK


def cmd_fit(cfg: RunConfig) -> int:
    with open(cfg.input_path, newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if cfg.column not in header:
        raise ValueError(f"column {cfg.column!r} not in {header}")
    table = scaling.SweepTable(columns=tuple(header), data=data)
    fit = scaling.fit_loglog(table, cfg.column, cfg.window)
    _write_csv(
        cfg.output_path,
        ["slope", "intercept", "r_squared", "window_min", "window_max", "n_points"],
        [[fit.slope, fit.intercept, fit.r_squared, fit.window[0], fit.window[1], fit.n_points]],
    )
    return EXIT_OK


def cmd_decohere(cfg: RunConfig) -> int:
    trace = central.trace_run(cfg.central_config)
    rows = [
        [t, h, d, q, c]
        for t, h, d, q, c in zip(
            trace.t, trace.h, trace.decoherence, trace.discord, trace.concurrence
        )
    ]
    _write_csv(cfg.output_path, ["t", "h", "D", "Q", "Cnc"], rows)
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
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinquench",
        description="Quantum correlations from driven spin chains: measures, sweeps, fits, decoherence traces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file; flags override it")
        p.add_argument("--output", help="CSV output path (default stdout)")

    def add_protocol(p):
        p.add_argument("--protocol", choices=["ising", "multicritical", "three-spin"], required=True)
        p.add_argument("--gamma", type=float, default=None, help="anisotropy (ising only)")
        p.add_argument("--j3", type=float, default=None, help="three-spin coupling")
        p.add_argument("--n", type=int, default=2, choices=[2, 4, 6], help="spin separation")

    p = sub.add_parser("measures", help="one (protocol, tau, n) correlation report")
    add_common(p)
    add_protocol(p)
    p.add_argument("--tau", type=float, required=True)

    p = sub.add_parser("sweep", help="measures over a tau grid, or over j3 at fixed tau")
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
    add_common(p)
    p.add_argument("--input", required=True, help="sweep CSV path")
    p.add_argument("--column", default="Q")
    p.add_argument("--window-min", type=float, default=1e2)
    p.add_argument("--window-max", type=float, default=1e4)

    p = sub.add_parser("decohere", help="central-qubit decoherence trace")
    add_common(p)
    p.add_argument("--n-spins", type=int, required=True, help="environment size N")
    p.add_argument("--delta", type=float, required=True, help="qubit-environment coupling")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--a", type=float, required=True, help="Werner weight")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--h-start", type=float, default=10.0)
    p.add_argument("--t0", type=float, required=True, help="first observation time")
    p.add_argument("--t1", type=float, required=True, help="last observation time")
    p.add_argument("--dt", type=float, required=True, help="observation spacing")
    return parser


def _extract_config_path(argv) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _parse(argv) -> RunConfig:
    parser = _make_parser()
    # the file is located by scanning argv before parsing, since required
    # flags may be satisfied by the file itself
    config_path = _extract_config_path(argv)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices.get(argv[0]) if argv else None
    if config_path is not None and sub is not None:
        file_values = _read_config_file(config_path)
        flags = {a.dest: a.option_strings[-1] for a in sub._actions if a.option_strings}
        unknown = set(file_values) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        # file values go in front of the command line's flags: argparse checks
        # them as it checks flags, and a flag given again on the command line wins
        argv = [argv[0], *(f"{flags[k]}={v}" for k, v in file_values.items()), *argv[1:]]
    args = parser.parse_args(argv)

    cfg = RunConfig(subcommand=args.subcommand, output_path=args.output)
    if args.subcommand in ("measures", "sweep"):
        cfg.n = args.n
        if args.subcommand == "sweep":
            if args.workers is not None and args.workers < 1:
                raise ValueError("--workers must be >= 1")
            has_j3_grid = args.j3_min is not None or args.j3_max is not None
            has_tau_grid = args.tau_min is not None or args.tau_max is not None
            if has_j3_grid and has_tau_grid:
                raise ValueError("choose one abscissa: a tau grid or a j3 grid")
            if has_j3_grid:
                if args.protocol != "three-spin":
                    raise ValueError("a j3 grid requires --protocol three-spin")
                if args.tau is None:
                    raise ValueError("a j3 sweep needs a fixed --tau")
                if args.j3_min is None or args.j3_max is None:
                    raise ValueError("need both --j3-min and --j3-max")
                if args.j3_max <= args.j3_min or args.j3_points < 2:
                    raise ValueError("bad j3 grid spec")
                cfg.j3_grid = list(
                    np.linspace(args.j3_min, args.j3_max, args.j3_points)
                )
                args.j3 = None  # grid supplies it
            elif has_tau_grid:
                if args.tau_min is None or args.tau_max is None:
                    raise ValueError("need both --tau-min and --tau-max")
                cfg.tau_grid = _log_grid(args.tau_min, args.tau_max, args.tau_points)
            else:
                raise ValueError("sweep needs --tau-min/--tau-max or --j3-min/--j3-max")
        cfg.protocol = _build_protocol(args)
    elif args.subcommand == "fit":
        cfg.input_path = args.input
        cfg.column = args.column
        if args.window_max <= args.window_min:
            raise ValueError("--window-max must exceed --window-min")
        cfg.window = (args.window_min, args.window_max)
    elif args.subcommand == "decohere":
        span = args.t1 - args.t0
        if not (args.dt > 0.0 and 0.0 < span < math.inf):
            raise ValueError("need finite t0 < t1 and dt > 0")
        # the last time t0 + k dt not past t1, up to roundoff of 1e-9 dt
        n_steps = math.floor(span / args.dt + 1e-9)
        t_grid = tuple(args.t0 + i * args.dt for i in range(n_steps + 1))
        cfg.central_config = central.CentralConfig(
            n_spins=args.n_spins,
            delta=args.delta,
            tau=args.tau,
            a=args.a,
            gamma=args.gamma,
            h_start=args.h_start,
            t_grid=t_grid,
        )
    return cfg


_COMMANDS = {
    "measures": cmd_measures,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "decohere": cmd_decohere,
}


def main(argv=None) -> int:
    try:
        cfg = _parse(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:  # argparse reports usage errors via exit
        return EXIT_CONFIG if exc.code else EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, central.IntegrationError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
