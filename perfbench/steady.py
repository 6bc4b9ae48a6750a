"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py [--workloads a,b]

Set 1 runs every workload with seeds 1-10, set 2 with seeds 11-20, the
workloads interleaved so that a drift of the machine reaches all of them
alike.  For each end-to-end metric of each workload it prints each set's
median and its spread (the distance between the first and third quartile as
a share of the median), the metric's bound from BENCHMARK.json, and how much
worse the second median is than the first.  A metric is in bound when both
spreads and that worsening are within its bound.  It also compares the share
of failed operations between the sets, which must agree exactly.  The raw
results go to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_SETS = (range(1, 11), range(11, 21))


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)
    chosen = args.workloads.split(",")

    results = {w: [[] for _ in SEED_SETS] for w in chosen}
    for k, seeds in enumerate(SEED_SETS):
        for seed in seeds:
            for w in chosen:
                out = run_once(w, seed, bench["run_seconds"])
                results[w][k].append(out)
                print(f"set {k + 1} seed {seed} {w}: "
                      + json.dumps({m: v["value"] for m, v in out["metrics"].items()}),
                      flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"\n{'workload':12} {'metric':12} {'median 1':>12} {'median 2':>12} "
          f"{'spread 1':>9} {'spread 2':>9} {'worse':>8} {'bound':>6}  verdict")
    for w in chosen:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = worse_by(medians[0], medians[1], metric["better"])
            fine = worse <= bound and all(s <= bound for s in spreads)
            ok &= fine
            print(f"{w:12} {name:12} {medians[0]:12.6g} {medians[1]:12.6g} "
                  f"{spreads[0]:9.4f} {spreads[1]:9.4f} {worse:8.4f} {bound:6.3f}  "
                  + ("ok" if fine else "OUT OF BOUND"))
        ratios = {Fraction(r["failed"], r["attempted"]) for runs in results[w] for r in runs}
        same = len(ratios) == 1
        correct = all(r["correct"] for runs in results[w] for r in runs)
        ok &= same and correct
        print(f"{w:12} failed share {sorted(str(r) for r in ratios)} "
              f"{'agrees' if same else 'DIFFERS'}; "
              f"{'all runs correct' if correct else 'SOME RUN NOT CORRECT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
