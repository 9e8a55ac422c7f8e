"""Command line front end.

Subcommands: gen (sample an instance to a model file), solve (estimate
log Z for one model), oracle (exact or exhaustive-loop reference values),
run (config-driven experiment sweep to CSV). Exit code 0 means every
requested quantity was produced; 1 flags an unreadable, malformed or
non-planar input; 2 flags partial failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bench import (
    METHODS,
    grid_factor_graph,
    parse_config,
    rows_to_csv,
    run_experiment,
    solve_forney,
    spiderweb_factor_graph,
)
from .bp import SCHEDULES, BPConfig, run_bp_multistart
from .model import (
    FactorGraph,
    ModelError,
    ModelParams,
    exact_log_z,
    exact_log_z_factor,
    factor_to_forney,
    reduce_degree,
    two_core,
)
from .io import read_model, write_factor_graph, write_model
from .series import loop_correction


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="planarz", description=__doc__)
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
    s.add_argument("--schedule", choices=SCHEDULES, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--threshold", type=float, default=1e-14)
    s.add_argument("--max-iterations", type=int, default=10000)

    o = sub.add_parser("oracle", help="reference values by exhaustive enumeration")
    o.add_argument("--model", required=True)
    mode = o.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true", help="enumerate all states")
    mode.add_argument("--loops", action="store_true", help="enumerate all generalized loops")
    o.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("run", help="run a config-driven experiment sweep")
    r.add_argument("--config", required=True)
    r.add_argument("--out", help="CSV output path (default stdout)")
    return p


def _load_forney(path: str):
    """(factor graph or None, reduced normal-form graph) of a model file."""
    model = read_model(path)
    if isinstance(model, FactorGraph):
        return model, reduce_degree(factor_to_forney(model))
    try:
        return None, reduce_degree(model)
    except ModelError:  # a general high-degree table: BP and --exact still take it as is
        return None, model


def _emit(out, pairs) -> None:
    for key, value in pairs:
        if isinstance(value, float):
            value = f"{value:.17g}"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        print(f"{key} {value}", file=out)


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
    fg, g = _load_forney(args.model)
    if args.method == "exact" and fg is not None:
        log_z = exact_log_z_factor(fg)
        _emit(sys.stdout, [("method", "exact"), ("log_z", log_z)])
        return 0
    r = solve_forney(
        g,
        method=args.method,
        schedule=args.schedule,
        seed=args.seed,
        max_psi_size=args.max_psi,
        threshold=args.threshold,
        max_iterations=args.max_iterations,
    )
    _emit(
        sys.stdout,
        [
            ("method", args.method),
            ("log_z", r["log_z"] if r["log_z"] is not None else "unavailable"),
            ("bp_iterations", r["bp_iterations"]),
            ("converged", r["converged"]),
            ("note", r["note"] or "-"),
        ],
    )
    return 0 if r["log_z"] is not None else 2


def _cmd_oracle(args) -> int:
    fg, g = _load_forney(args.model)
    if args.exact:
        log_z = exact_log_z_factor(fg) if fg is not None else exact_log_z(g)
        _emit(sys.stdout, [("oracle", "exact"), ("log_z", log_z)])
        return 0
    core, log_const = two_core(g)
    res = run_bp_multistart(core, BPConfig(seed=args.seed))
    total, count = loop_correction(core, res)
    pairs = [
        ("oracle", "loops"),
        ("loop_count", count),
        ("correction", total),
        ("converged", res.converged),
    ]
    if total > 0:
        pairs.append(("log_z", log_const + res.log_z_bp + math.log(total)))
    else:
        pairs.append(("log_z", "unavailable"))
    _emit(sys.stdout, pairs)
    return 0 if total > 0 and res.converged else 2


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
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_run(args)
    except (ValueError, OSError) as exc:  # ModelError and NonPlanarError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
