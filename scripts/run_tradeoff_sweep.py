#!/usr/bin/env python3
"""Robustness/similarity trade-off sweep on the bundled saturated-MPC network.

Runs `robsyn mpc-build` and `robsyn sweep` (robsyn.cli) into --out, on the
config written there as config.json: the pair set (1, 1) with the
input-dependent bound coefficients pinned to zero, so the certified constant
gamma alone tracks the trade-off, swept across a grid of uniform
weight-deviation tolerances under the default solver options.  The sweep
writes sweep.csv (full columns) and sweep.dat (two-column, gnuplot-ready);
the table printed at the end is read from sweep.csv.
"""

import argparse
import csv
import json
import os
import sys

from robsyn import cli

# The MPC inputs saturate at |v| = 10; over the default box (-5, 5) no draw
# saturates, and the sweep's empirical check would see only the linear piece
# of the law.
SAMPLE_BOX = (-50.0, 50.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/tradeoff")
    ap.add_argument(
        "--grid",
        default="1e-5,1e-4,1e-3,1e-2,1e-1,3e-1,6e-1,1",
        help="comma-separated tolerance values",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--no-timestamp", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    cfg = {
        "out": args.out,
        "sweep_grid": [float(tok) for tok in args.grid.split(",") if tok.strip()],
        "samples": args.samples,
        "base_box": list(SAMPLE_BOX),
        "seed": args.seed,
        "jobs": args.jobs,
        "timestamp": not args.no_timestamp,
        "fixed_gamma_u1": 0.0,
        "fixed_gamma_u2": 0.0,
    }
    config = os.path.join(args.out, "config.json")
    with open(config, "w") as fh:
        json.dump(cfg, fh, indent=1)
    for command in ("mpc-build", "sweep"):
        code = cli.main([command, "--config", config])
        if code:
            return code

    with open(os.path.join(args.out, "sweep.csv")) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    print(f"{'eps':>10} {'gamma':>12} {'max |g1-g2|_1':>14} {'weight dev':>12}  status")
    for r in rows:
        eps, gamma, lhs, dev = (
            float(r[k]) for k in ("eps", "gamma", "empirical_max_lhs", "max_weight_deviation")
        )
        print(f"{eps:>10g} {gamma:>12.5f} {lhs:>14.5f} {dev:>12.3e}  {r['status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
