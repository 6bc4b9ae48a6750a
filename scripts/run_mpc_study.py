#!/usr/bin/env python3
"""End-to-end robustification study on the bundled saturated-MPC example.

Runs the CLI (robsyn.cli) with both input-dependent bound coefficients
pinned to zero, writing each command's config next to its artifacts as
<command>.json.  Into --out, `mpc-build` builds the exact MPC network
(network.json, qp.json) and `analyze` certifies it (certificate.json,
analysis.csv).  Into --out/fine/ and --out/coarse/, at weight tolerances
1e-5 and 1e-1, `synthesize` robustifies network.json
(synthesized_network.json, certificate.json), `verify` tests that
certificate on sampled pairs (verify.csv) and `simulate` runs the closed
loop against the exact QP law (trajectory.csv).  report.json collects the
certified gammas, the closed-loop deviations and the share of sampled
pairs at which the exact law saturates, which no command computes.

The sampled pairs draw their first input from (-50, 50)^2, where most of
them saturate the MPC input (the share is printed); over the library's
default box (-5, 5) none do, and the check would cover only the linear
piece of the law.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from robsyn import cli
from robsyn.multipliers import InputPairSet
from robsyn.network import evaluate_batch, load_network
from robsyn.verification import SampleSpec, sample_input_pairs

SAMPLE_BOX = (-50.0, 50.0)
TOLERANCES = {"fine": 1e-5, "coarse": 1e-1}


def run(command: str, cfg: dict) -> None:
    """`robsyn <command>` on cfg, written first to <out>/<command>.json.  Any
    nonzero exit ends the study but verify's 1, which reports violations."""
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], f"{command}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    code = cli.main([command, "--config", path])
    if command == "verify" and code == 1:
        print(f"sampled violations of {cfg['out']}/certificate.json, see verify.csv")
    elif code:
        sys.exit(code)


def read(path: str):
    """A JSON artifact, or the rows of a CSV artifact past its timestamp comment."""
    with open(path) as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def saturated_share(out: str, spec: SampleSpec, seed: int) -> float:
    """Share of the pairs verify samples at which the exact MPC law saturates
    some input, at either end of the pair."""
    net = load_network(os.path.join(out, "network.json"))
    cert = read(os.path.join(out, "certificate.json"))
    U1, U2 = sample_input_pairs(InputPairSet(cert["eps_u1"], cert["eps_u2"]), net.n_u, spec, seed)
    limit = read(os.path.join(out, "qp.json"))["v_bound"] * (1.0 - 1e-9)
    saturated = np.zeros(spec.num_pairs, dtype=bool)
    for U in (U1, U2):
        G = evaluate_batch(net, U.T)[0]
        saturated |= np.any(np.abs(G) >= limit, axis=0)
    return float(np.mean(saturated))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/mpc-study")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=30)
    ap.add_argument("--samples", type=int, default=2000)
    args = ap.parse_args()

    out = args.out
    base = {
        "seed": args.seed,
        "samples": args.samples,
        "base_box": list(SAMPLE_BOX),
        "steps": args.steps,
        "fixed_gamma_u1": 0.0,
        "fixed_gamma_u2": 0.0,
    }
    for command in ("mpc-build", "analyze"):
        run(command, {**base, "out": out})
    share = saturated_share(out, SampleSpec(num_pairs=args.samples, base_box=SAMPLE_BOX), args.seed)
    print(f"sampled pairs that saturate the MPC input: {share:.1%}")

    analysis = read(os.path.join(out, "analysis.csv"))[0]
    report = {"gamma_analysis": float(analysis["gamma"]), "saturated_share": share}
    for label, eps in TOLERANCES.items():
        sub = os.path.join(out, label)
        run("synthesize", {**base, "out": sub, "network": os.path.join(out, "network.json"),
                           "tolerances": {"uniform": eps}})
        # verify and simulate read the synthesized network
        checked = {**base, "out": sub, "network": os.path.join(sub, "synthesized_network.json"),
                   "qp": os.path.join(out, "qp.json")}
        for command in ("verify", "simulate"):
            run(command, checked)
        report[f"gamma_{label}"] = read(os.path.join(sub, "certificate.json"))["gamma"]
        report[f"trajectory_deviation_{label}"] = max(
            abs(float(row[key]) - float(row[key.replace("ref", "net")]))
            for row in read(os.path.join(sub, "trajectory.csv"))
            for key in row
            if key.startswith("w_ref_")
        )

    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}/report.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
