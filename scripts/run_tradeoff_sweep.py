#!/usr/bin/env python3
"""Robustness/similarity trade-off sweep on the bundled saturated-MPC network.

Builds one SynthesisProblem over the pair set (1, 1) with the
input-dependent bound coefficients pinned to zero, so the certified constant
gamma alone tracks the trade-off, and sweeps it across a grid of uniform
weight-deviation tolerances under the default solver options.  Writes
sweep.csv (full columns) and sweep.dat (two-column, gnuplot-ready) into
--out and prints the table.
"""

import argparse
import os
import sys

from robsyn.mpc import condense_qp, qp_to_implicit_network, reference_mpc_problem
from robsyn.multipliers import InputPairSet
from robsyn.synthesis import SimilarityTolerances, SynthesisProblem
from robsyn.verification import SampleSpec, sweep_tolerance

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

    grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
    net = qp_to_implicit_network(condense_qp(reference_mpc_problem()), attach_hint=False)
    # each row sets every tolerance to its grid value
    problem = SynthesisProblem(
        net, InputPairSet(1.0, 1.0), SimilarityTolerances(), fixed_gamma_u1=0.0, fixed_gamma_u2=0.0
    )
    result = sweep_tolerance(
        problem,
        grid,
        spec=SampleSpec(num_pairs=args.samples, base_box=SAMPLE_BOX),
        seed=args.seed,
        jobs=args.jobs,
    )
    result.write_csv(os.path.join(args.out, "sweep.csv"), timestamp=not args.no_timestamp)
    result.write_gnuplot(os.path.join(args.out, "sweep.dat"), timestamp=not args.no_timestamp)

    print(f"{'eps':>10} {'gamma':>12} {'max |g1-g2|_1':>14} {'weight dev':>12}  status")
    for r in result.rows:
        print(
            f"{r.eps:>10g} {r.gamma:>12.5f} {r.empirical_max_lhs:>14.5f} "
            f"{r.max_weight_deviation:>12.3e}  {r.status}"
        )
    print(f"wrote {args.out}/sweep.csv and {args.out}/sweep.dat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
