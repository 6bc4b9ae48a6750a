"""robsyn benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload mpc-fine --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; robsyn is imported from its ``src``
directory.  One process runs one workload: it builds the inputs from the
seed, runs whole rounds of operations back to back until --seconds have
passed (a closed loop with one caller), then checks every operation's output
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the same loop runs with spans recorded
around the calls into robsyn's modules, and the metrics are per layer.  The
lines before it give the run's provenance and a summary, and the whole
record is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("mpc-fine", "mpc-coarse", "mpc-analyze", "corpus")
# setup_s is the median of this process's set-up and of set-ups in fresh
# interpreters, half of them before the timed loop and half after: one set-up
# alone spread by up to 28% between runs, and set-ups made back to back are
# slowed alike by the same burst of load on the machine
FRESH_SETUPS_BEFORE_LOOP = 2
FRESH_SETUPS_AFTER_LOOP = 2


def _untraced_span(name, **attrs):
    return nullcontext()


def _set_up(workload_name, seed, span):
    """Import robsyn and build the workload's inputs; returns the workload,
    its state and the seconds this took."""
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    st = wl.setup(seed, span)
    return wl, st, perf_counter() - t0


def _setups_in_fresh_interpreters(workload_name, seed, count) -> list[float]:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload_name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process, read
    through its own get_num_threads; never set."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[Path(path).name] = fn()
                break
    return threads


def provenance(args) -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def tail_percentile(samples) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, for
    40 samples or more."""
    n = len(samples)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def run_loop(wl, st, seconds, span):
    """Whole rounds of operations, back to back, until the time is up."""
    outcomes, samples = [], []
    start = perf_counter()
    while True:
        for index, op in enumerate(wl.round(st)):
            t = perf_counter()
            with span("op", index=index):
                try:
                    out = op(span)
                except Exception as exc:  # counted as a failed operation
                    out = exc
            samples.append(perf_counter() - t)
            outcomes.append((index, out))
        if perf_counter() - start >= seconds:
            return outcomes, samples, perf_counter() - start


def check_all(wl, st, outcomes):
    """Check every operation's output; returns the per-operation verdicts."""
    import checks

    verdicts = []
    for n, (index, out) in enumerate(outcomes):
        if isinstance(out, Exception):
            failures = [checks.Failure("raised", math.nan, f"{type(out).__name__}: {out}")]
        else:
            failures = wl.check(st, index, out, first=n == 0)
            if n == 0:
                failures += wl.run_failures(st)
        verdicts.append((index, wl.classify(index, failures), failures))
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up in this interpreter, print the seconds it took, exit; "
                         "a run uses it for the set-ups of setup_s after its own")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "robsyn" / "__init__.py").is_file():
        print(f"perfbench: no robsyn sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tracer = None
    span = _untraced_span
    if args.trace:
        import spans

        tracer = spans.Tracer()
        span = tracer.span
    wl, st, setup_own = _set_up(args.workload, args.seed, span)
    if args.setup_only:
        print(repr(setup_own))
        return 0
    builds = list(tracer.spans) if tracer else []
    if tracer:
        spans.instrument(tracer)

    wl.prepare(st)
    setups = [setup_own]
    if not tracer:
        setups += _setups_in_fresh_interpreters(
            args.workload, args.seed, FRESH_SETUPS_BEFORE_LOOP)
    outcomes, samples, wall = run_loop(wl, st, args.seconds, span)
    if tracer:
        tracer.unwrap()
    verdicts = check_all(wl, st, outcomes)

    failed = sum(1 for _, verdict, _ in verdicts if verdict != "pass")
    unexpected = sum(1 for _, verdict, _ in verdicts if verdict == "unexpected")
    summary = {
        "workload": args.workload,
        "attempted": len(verdicts),
        "failed": failed,
        "failed_named_fault": failed - unexpected,
        "samples": len(samples),
        "op_s_median": statistics.median(samples),
        "loop_s": wall,
    }
    tail = tail_percentile(samples)
    if tail:
        summary[f"op_s_p{tail[0]}"] = tail[1]
    reasons: dict[str, int] = {}
    for _, _, failures in verdicts:
        for f in failures:
            key = f"{f.check}: {f.detail} ({f.value:.3g})"
            reasons[key] = reasons.get(key, 0) + 1
    summary["failures"] = reasons

    covered = True
    if tracer:
        layer, accounting = spans.per_layer(tracer.spans, builds)
        summary["accounting"] = accounting
        covered = accounting["covered"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        setups += _setups_in_fresh_interpreters(
            args.workload, args.seed, FRESH_SETUPS_AFTER_LOOP)
        summary["setup_samples_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(samples), "unit": "s"},
            "ops_per_s": {"value": len(samples) / wall, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    result = {
        "correct": not unexpected and covered,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }
    record = {"provenance": provenance(args), "summary": summary, "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(OUT / f"spans-{stem}.json")
    print("provenance " + json.dumps(record["provenance"]))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
