#!/usr/bin/env python3
"""End-to-end robustification study on the bundled saturated-MPC example.

Builds the exact MPC network, certifies it, synthesizes robustified variants
at a fine and a coarse weight tolerance, validates every certificate by
sampling, and compares closed-loop trajectories against the exact QP law.
Artifacts (networks, certificates, trajectory CSV) land in --out.

The sampled pairs draw their first input from (-50, 50)^2, where most of
them saturate the MPC input (the share is printed); over the library's
default box (-5, 5) none do, and the check would cover only the linear
piece of the law.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from robsyn.conic import SolverOptions
from robsyn.mpc import (
    condense_qp,
    qp_to_implicit_network,
    reference_mpc_problem,
    simulate_closed_loop,
)
from robsyn.multipliers import InputPairSet
from robsyn.network import evaluate, evaluate_batch, save_network
from robsyn.synthesis import (
    SimilarityTolerances,
    SynthesisProblem,
    analyze_network,
    synthesize,
)
from robsyn.verification import (
    SampleSpec,
    empirical_bound_check,
    max_weight_deviation,
    sample_input_pairs,
)

SAMPLE_BOX = (-50.0, 50.0)


def saturated_share(net, qp, input_set, spec, seed):
    """Share of the sampled pairs at which the exact MPC law saturates some
    input, at either end of the pair."""
    U1, U2 = sample_input_pairs(input_set, net.n_u, spec, seed)
    limit = qp.v_bound * (1.0 - 1e-9)
    saturated = np.zeros(spec.num_pairs, dtype=bool)
    for U in (U1, U2):
        G = evaluate_batch(net, U.T)[0]
        saturated |= np.any(np.abs(G) >= limit, axis=0)
    return float(np.mean(saturated))


def robustify(net, input_set, eps, options):
    problem = SynthesisProblem(
        network=net,
        input_set=input_set,
        tolerances=SimilarityTolerances.uniform(eps),
        fixed_gamma_u1=0.0,
        fixed_gamma_u2=0.0,
    )
    t0 = time.perf_counter()
    sol = synthesize(problem, options=options)
    return sol, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/mpc-study")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fine-eps", type=float, default=1e-5)
    ap.add_argument("--coarse-eps", type=float, default=1e-1)
    ap.add_argument("--steps", type=int, default=30)
    ap.add_argument("--samples", type=int, default=2000)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    problem = reference_mpc_problem()
    qp = condense_qp(problem)
    net = qp_to_implicit_network(qp, attach_hint=False)
    save_network(net, os.path.join(args.out, "network.json"))
    print(f"MPC network: n={net.n} n_u={net.n_u} n_g={net.n_g}")

    U = InputPairSet(1.0, 1.0)
    spec = SampleSpec(num_pairs=args.samples, base_box=SAMPLE_BOX)
    opts = SolverOptions()
    share = saturated_share(net, qp, U, spec, args.seed)
    print(f"sampled pairs that saturate the MPC input: {share:.1%}")

    base = analyze_network(net, U, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0, options=opts)
    print(f"certified bound of the exact MPC network: gamma = {base.certificate.gamma:.4f}")

    report = {"gamma_analysis": base.certificate.gamma, "saturated_share": share}
    for label, eps in (("fine", args.fine_eps), ("coarse", args.coarse_eps)):
        sol, dt = robustify(net, U, eps, opts)
        cert = sol.certificate
        dev = max_weight_deviation(sol.network, net)
        check = empirical_bound_check(sol.network, cert, spec, seed=args.seed)
        save_network(sol.network, os.path.join(args.out, f"network_{label}.json"))
        print(
            f"eps={eps:g}: gamma = {cert.gamma:.4f} ({dt:.1f}s), "
            f"max weight deviation {dev:.2e}, "
            f"sampled violations {check.violations}/{check.num_pairs}, "
            f"empirical lower bound {check.empirical_gamma_lb:.4f}"
        )
        report[f"gamma_{label}"] = cert.gamma

        w0 = np.array([1.0, -1.0])
        W_ref, _ = simulate_closed_loop(problem, w0, args.steps)
        W_net, _ = simulate_closed_loop(
            problem, w0, args.steps, controller=lambda w: evaluate(sol.network, w).g
        )
        dev_traj = float(np.max(np.abs(W_ref - W_net)))
        print(f"  closed-loop deviation from the exact law over {args.steps} steps: {dev_traj:.3e}")
        report[f"trajectory_deviation_{label}"] = dev_traj

    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}/report.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
