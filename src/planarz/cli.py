"""Command line front end.

Subcommands: gen (sample an instance to a model file), solve (estimate
log Z for one model; the methods exact and loop_oracle give the reference
values), run (config-driven experiment sweep to CSV). Exit code 0 means
every requested quantity was produced; 1 flags a usage error (an unknown
option, method or subcommand, or an invalid option value) or an
unreadable, malformed or non-planar input; 2 flags an estimate that is
unavailable or a partial failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    METHODS,
    _fmt_cell,
    grid_factor_graph,
    parse_config,
    rows_to_csv,
    run_experiment,
    solve_forney,
    spiderweb_factor_graph,
)
from .bp import BPNumericError
from .model import ModelParams
from .io import read_model, write_factor_graph, write_model
from .pfaffian import OrientationError


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1; 2 means an unavailable
    estimate here. Subcommand parsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="planarz", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a model instance and write it out")
    kind = g.add_mutually_exclusive_group(required=True)
    kind.add_argument("--grid", type=int, metavar="N", help="N x N grid")
    kind.add_argument(
        "--spiderweb", type=int, nargs=2, metavar=("RINGS", "SPOKES"), help="hub plus rings"
    )
    g.add_argument("--beta", type=float, required=True)
    g.add_argument("--theta", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--attractive", action="store_true")
    g.add_argument("--out", help="output path (default stdout)")

    s = sub.add_parser("solve", help="estimate log Z for a model file")
    s.add_argument("--model", required=True)
    s.add_argument("--method", choices=METHODS, default="z_empty")
    s.add_argument("--max-psi", type=int, default=None, help="cap removal-set size")
    s.add_argument("--max-iterations", type=int, default=10000)

    r = sub.add_parser("run", help="run a config-driven experiment sweep")
    r.add_argument("--config", required=True)
    r.add_argument("--out", help="CSV output path (default stdout)")
    return p


def _cmd_gen(args) -> int:
    params = ModelParams(
        beta=args.beta, theta=args.theta, attractive=args.attractive, seed=args.seed
    )
    if args.grid is not None:
        fg = grid_factor_graph(args.grid, params)
    else:
        fg = spiderweb_factor_graph(args.spiderweb[0], args.spiderweb[1], params)
    if args.out:
        write_model(args.out, fg)
    else:
        sys.stdout.write(write_factor_graph(fg))
    return 0


def _cmd_solve(args) -> int:
    r = solve_forney(
        read_model(args.model),
        method=args.method,
        max_psi_size=args.max_psi,
        max_iterations=args.max_iterations,
    )
    for key, value in (
        ("method", args.method),
        ("log_z", r["log_z"] if r["log_z"] is not None else "unavailable"),
        ("bp_iterations", r["bp_iterations"]),
        ("converged", r["converged"]),
        ("note", r["note"] or "-"),
    ):
        print(f"{key} {_fmt_cell(value)}")
    return 0 if r["log_z"] is not None else 2


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    rows = run_experiment(cfg)
    text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    bad = any(
        r["row"] == "data" and (r["logz_est"] is None or "failed" in r["note"]) for r in rows
    )
    return 2 if bad else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_run(args)
    except (ValueError, OSError) as exc:  # ModelError and NonPlanarError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BPNumericError, OrientationError) as exc:  # as run's failed:<class> rows
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
