"""Command-line front end for the solver library and experiments.

Subcommands: weights (CQ weight tables), ode (scalar Volterra oracle),
convergence (manufactured-solution refinement studies), damping (center
trace demo), constants (positivity-constant table), solve (single run),
acceptance (the numbered criteria, optionally asserted).

All numeric output uses 17 significant digits, and every table, printed
or written, goes through one comma-separated table writer.  A flat
`key = value` config file can preset any flag of the chosen subcommand;
command-line flags override it.  Every run that writes files also writes
a config echo next to them: the subcommand and its flags as
`key = value` lines, headed by the Python, numpy, scipy and fracwave
versions as comment lines.
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from fracwave import __version__
from fracwave.cq import CQScheme, bdf2_weights
from fracwave.fraccalc import FracParams, constants_table
from fracwave.harness import (
    CASES,
    GEOMETRY,
    build_case,
    run_convergence,
    run_damping_demo,
    run_level,
)
from fracwave.oracle import VolterraProblem, asymptotic_check, solve_volterra

F = "%.17g"


def _echo_lines(args: argparse.Namespace) -> list[str]:
    skip = {"func", "config"}
    return [
        f"{key} = {value}"
        for key, value in sorted(vars(args).items())
        if key not in skip
    ]


def _environment_lines() -> list[str]:
    """The interpreter and library versions, as comment lines: they are
    not flags."""
    return [
        f"# python = {platform.python_version()}",
        f"# numpy = {np.__version__}",
        f"# scipy = {scipy.__version__}",
        f"# fracwave = {__version__}",
    ]


def _write_echo(outdir: Path, args: argparse.Namespace) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "config_echo.txt"
    path.write_text("\n".join(_environment_lines() + _echo_lines(args)) + "\n")


def _print_echo(args: argparse.Namespace) -> None:
    for line in _echo_lines(args):
        print(f"# {line}")


def _table(header, rows, path: Path | None = None) -> None:
    """Comma-separated table, integers as they are and floats to 17
    significant digits: printed, or written to path with CRLF line ends
    (the csv module's default)."""
    lines = [",".join(header)]
    lines += [",".join(str(v) if isinstance(v, int) else F % v for v in row)
              for row in rows]
    if path is None:
        print("\n".join(lines))
    else:
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())


def _save(args: argparse.Namespace, name: str, header, rows) -> None:
    """Write a table to the output directory, next to the config echo;
    without --outdir, write nothing."""
    if not args.outdir:
        return
    outdir = Path(args.outdir)
    _write_echo(outdir, args)
    _table(header, rows, outdir / name)
    print(f"wrote {outdir / name}")


def cmd_weights(args) -> int:
    try:
        scheme = CQScheme.build(args.gamma, args.kappa, args.n)
        omega = scheme.omega
    except ValueError:
        # correction weights exist only for fractional orders; a bad kappa
        # or n raises again here, with bdf2_weights' own message
        scheme = None
        omega = bdf2_weights(args.gamma, args.kappa, args.n)
    _print_echo(args)
    header = ["n", "t_n", "omega_n"] + (["w0_n", "w1_n"] if scheme else [])
    _table(header, ([n, n * args.kappa, omega[n]]
                    + (list(scheme.startup[True][n]) if scheme else [])
                    for n in range(args.n + 1)))
    return 0


def cmd_ode(args) -> int:
    frac = FracParams(gamma=args.gamma, alpha0=args.alpha0)
    forcing = None
    if args.cos_forcing is not None:
        w = args.cos_forcing
        if not math.isfinite(w):
            raise ValueError(f"cos-forcing must be finite, got {w}")
        forcing = lambda t: math.cos(w * t)
    problem = VolterraProblem(gamma=args.gamma, a_gamma=frac.a_gamma,
                              lam=args.lam, u0=args.u0, v0=args.v0, f=forcing)
    solution = solve_volterra(problem, args.T, args.m)
    # fitted before anything is printed, so a grid too short to fit on
    # fails with no partial output
    exponent = asymptotic_check(problem, args.T, args.m) if args.fit else None
    _print_echo(args)
    print(f"v(0) = {F % solution.v[0]}")
    print(f"u(T) = {F % solution.u[-1]}")
    if exponent is not None:
        print(f"startup_exponent = {F % exponent}")
    _save(args, "ode.csv", ["t", "u", "v"],
          zip(solution.times, solution.u, solution.v))
    return 0


def cmd_convergence(args) -> int:
    case = build_case(args.case, FracParams(gamma=args.gamma, alpha0=args.alpha0))
    if args.coupling is not None:
        case.coupling = args.coupling
    report = run_convergence(case, corrected=args.corrected, levels=args.levels,
                             kappa0=args.kappa0, T=args.T)
    header = ["level", "h", "kappa", "error_energy", "error_l2max"]
    rows = [(lev, *row) for lev, row in enumerate(report.levels)]
    _print_echo(args)
    _table(header, rows)
    print(report.summary())
    _save(args, f"convergence_{args.case}.csv", header, rows)
    return 0


def cmd_damping(args) -> int:
    gammas = tuple(float(g) for g in args.gammas.split(","))
    times, traces, energies = run_damping_demo(
        gammas=gammas, n_per_side=args.n, T=args.T)
    _print_echo(args)
    for label, e in energies.items():
        print(f"gamma={label}: E_final/E_1 = {F % (e[-1] / e[0])}")
    _save(args, "damping_trace.csv",
          ["t"] + [f"gamma_{label}" for label in traces],
          zip(times, *traces.values()))
    return 0


def cmd_constants(args) -> int:
    table = constants_table(args.grid)
    header = ["gamma", "C1", "C2"]
    _print_echo(args)
    _table(header, table)
    _save(args, "constants.csv", header, table)
    return 0


def cmd_solve(args) -> int:
    case = build_case(args.case, FracParams(gamma=args.gamma, alpha0=args.alpha0))
    norms, traj = run_level(case, args.kappa, args.corrected, args.T)
    mesh = norms.system.mesh
    steps = len(traj.times) - 1
    _print_echo(args)
    print(f"h = {F % mesh.h}")
    print(f"steps = {steps}")
    print(f"error_energy = {F % norms.energy}")
    print(f"error_l2max = {F % norms.l2}")
    _save(args, "energy.csv", ["n", "t_n", "E_n"],
          zip(range(1, steps + 1), traj.times[1:], traj.energy))
    _save(args, "final_state.csv", ["x", "y"][:case.dimension] + ["u"],
          np.column_stack([mesh.nodes[mesh.interior], traj.us[-1]]))
    return 0


def cmd_acceptance(args) -> int:
    from fracwave.acceptance import run_all

    indices = None
    if args.criteria:
        indices = [int(tok) for tok in args.criteria.split(",")]
        bad = [i for i in indices if not 1 <= i <= 10]
        if bad:
            raise ValueError(f"criteria indices must be in 1..10, got {bad}")
    results = run_all(indices)
    for result in results:
        print(result.line())
    failed = [r.index for r in results if not r.passed]
    if failed and args.assert_:
        print(f"FAILED criteria: {','.join(map(str, failed))}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracwave",
        description="Experiments for a weakly damped fractional wave equation.",
        allow_abbrev=False,    # an abbreviated --config would go unread
    )
    parser.add_argument("--config", help="flat key = value file presetting "
                        "the chosen subcommand's flags")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flag groups that several subcommands share, each declared once
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--gamma", type=float, required=True)
    order.add_argument("--alpha0", type=float, default=1.0)
    manufactured = argparse.ArgumentParser(add_help=False)
    manufactured.add_argument("--case", required=True, choices=list(CASES))
    manufactured.add_argument("--corrected", action="store_true")
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument("--outdir")

    p = sub.add_parser("weights", help="CQ weight and correction tables")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--n", type=int, default=16)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("ode", help="scalar Volterra oracle solve", parents=[order, written])
    p.add_argument("--lam", type=float, default=4.0)
    p.add_argument("--u0", type=float, default=1.0)
    p.add_argument("--v0", type=float, default=0.0)
    p.add_argument("--cos-forcing", type=float, default=None,
                   help="frequency w for f(t) = cos(w t)")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--m", type=int, default=1024, help="number of steps")
    p.add_argument("--fit", action="store_true",
                   help="fit the startup exponent of u''")
    p.set_defaults(func=cmd_ode)

    p = sub.add_parser("convergence", help="manufactured refinement study",
                       parents=[manufactured, order, written])
    p.add_argument("--levels", type=int, default=4)
    one, two = GEOMETRY[1], GEOMETRY[2]
    p.add_argument("--coupling", type=float, default=None,
                   help=f"h = coupling * kappa (default: {one.coupling:g} in 1D,"
                        f" {two.coupling:g} in 2D)")
    p.add_argument("--kappa0", type=float, default=None,
                   help=f"coarsest step (default 1/{1 / one.kappa0:g} in 1D,"
                        f" 1/{1 / two.kappa0:g} in 2D)")
    p.add_argument("--T", type=float, default=1.0)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("damping", help="center-trace damping demo", parents=[written])
    p.add_argument("--gammas", default="0.25,0.75,-0.25,-0.75",
                   help="comma-separated fractional orders")
    p.add_argument("--n", type=int, default=32, help="cells per side (even)")
    p.add_argument("--T", type=float, default=2.0)
    p.set_defaults(func=cmd_damping)

    p = sub.add_parser("constants", help="positivity constant table", parents=[written])
    p.add_argument("--grid", type=int, default=99)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("solve", help="single manufactured run with snapshot",
                       parents=[manufactured, order, written])
    p.add_argument("--kappa", type=float, default=1.0 / 128)
    p.add_argument("--T", type=float, default=1.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("acceptance", help="numbered acceptance criteria")
    p.add_argument("--criteria", default=None,
                   help="comma-separated subset, e.g. 1,4,8")
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit nonzero if any selected criterion fails")
    p.set_defaults(func=cmd_acceptance)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Expand `--config file` or `--config=file` into leading flags of the
    subcommand.

    Keys use the flag spelling without dashes (e.g. `kappa0 = 0.01`).
    Flags given explicitly on the command line take precedence because
    argparse applies later occurrences last.  A config echo replays as
    it is: its `command` line must name the subcommand being run, and a
    value of None leaves that flag at its default.
    """
    for at, arg in enumerate(argv):
        if arg == "--config" or arg.startswith("--config="):
            break
    else:
        return argv
    if arg == "--config":
        if at + 1 >= len(argv):
            raise ValueError("--config requires a file path")
        path, rest = Path(argv[at + 1]), argv[:at] + argv[at + 2:]
    else:
        path, rest = Path(arg[len("--config="):]), argv[:at] + argv[at + 1:]
    if not rest:
        raise ValueError("--config requires a subcommand")
    command = rest[0]
    inserted = []
    known = _subcommand_flags(parser, command)
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "command":
            if value != command:
                raise ValueError(f"{path}:{lineno}: config is for subcommand"
                                 f" {value!r}, not {command!r}")
            continue
        flag = "--" + key.replace("_", "-")
        if flag not in known:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(sorted(k.lstrip('-') for k in known))
            )
        if value == "None":
            continue
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                inserted.append(flag)
        else:
            inserted.extend([flag, value])
    return [command] + inserted + rest[1:]


def _subcommand_flags(parser: argparse.ArgumentParser, command: str) -> set[str]:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if command not in sub.choices:
        raise ValueError(f"unknown subcommand {command!r}")
    return {s for a in sub.choices[command]._actions for s in a.option_strings
            if s not in ("-h", "--help")}


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
