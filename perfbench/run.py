"""Run one planarz benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid_field --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/``, and the run exits with code 2 when those sources are missing.
Earlier lines of standard output are a readable report; the last line is one
JSON object with the keys correct, attempted, failed and metrics. With
``--trace 0`` the metrics are the end-to-end ones of a timed closed loop;
with ``--trace 1`` they are the per-layer ones of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    if not (SRC / "planarz" / "__init__.py").is_file():
        print(f"planarz sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import planarz
    import workloads

    if Path(planarz.__file__).resolve().parent != SRC / "planarz":
        print(f"imported planarz from {planarz.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        ap.error(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")

    n = w.size[0]
    shape = f"{n}x{n}" if w.generator == "grid" else f"rings {n} spokes {w.size[1]}"
    print(
        f"workload {args.workload}: {w.generator} {shape}, "
        f"beta {w.beta:g}, theta {w.theta:g}, method {w.method}, seed {args.seed}"
    )
    if args.trace:
        report = workloads.run_traced(w, args.seed)
    else:
        report = workloads.run_timed(w, args.seed, args.seconds)
    for line in report.lines:
        print(line)
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
