"""Spans recorded around calls into robsyn's modules, and the per-layer
metrics derived from them.

Spans are kept in memory and written when the run ends.  The program is not
changed: calls are caught where ``robsyn.synthesis`` and
``robsyn.verification`` bind the functions they call, by replacing those
module attributes for the length of a traced run.  Only calls made inside an
operation's span are recorded, so the checks the benchmark makes afterwards
leave no spans.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

# the largest share of an operation's wall time that its robsyn spans may
# leave uncovered; above it the per-layer split does not account for the
# operation, and the traced run is not correct
MAX_UNCOVERED_SHARE = 0.01


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._restore: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, note=None):
        """Record a span around every call of module.attr made inside an
        open span; note(record, args, kwargs, result) adds attributes."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if note is not None:
                    note(rec, args, kwargs, out)
                return out

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def unwrap(self):
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _note_solve(rec, args, kwargs, result):
    program = args[0]
    rec["vars"] = program.num_vars
    rec["ineq_rows"] = len(program.inequalities)
    rec["eq_rows"] = len(program.equalities)
    rec["psd_dim"] = sum(b.dim for b in program.psd_blocks)
    rec["iters"] = result.iterations
    rec["status"] = result.status.value


def _note_states(rec, args, kwargs, out):
    rec["states"] = int(args[1].shape[1])


def instrument(tracer: Tracer) -> None:
    """Wrap the calls the workloads' operations make into robsyn's layers."""
    import robsyn.synthesis as synthesis
    import robsyn.verification as verification

    tracer.wrap(synthesis, "assemble_synthesis_sdp", "synthesis.assemble")
    tracer.wrap(synthesis, "solve_conic", "conic.solve", _note_solve)
    tracer.wrap(synthesis, "certificate_matrix", "multipliers.certificate_matrix")
    tracer.wrap(verification, "sample_input_pairs", "verification.sample")
    tracer.wrap(verification, "evaluate_batch", "network.evaluate", _note_states)


def _duration(rec) -> float:
    return rec["end"] - rec["start"]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(rec, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return _duration(rec) - _covered((c["start"], c["end"]) for c in children)


def per_layer(spans: list[dict], build_spans: list[dict]) -> tuple[dict, dict]:
    """Per-operation layer metrics from the spans of a traced run, and an
    accounting of each operation's wall time: the share of it that no robsyn
    span covers, which is the operation's self time over its duration.

    Additive quantities are averaged over operations; ratios are taken of
    totals, so that each has its base in the same run.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def descendants(rec):
        for c in children.get(rec["id"], []):
            yield c
            yield from descendants(c)

    ops = [s for s in spans if s["name"] == "op"]
    tot = dict.fromkeys(
        [
            "rungs", "wasted_s", "assemble_s", "synth_self_s", "solve_s", "iters",
            "vars", "ineq_rows", "eq_rows", "psd_dim", "states", "evaluate_s",
            "check_s", "sample_s", "pairs", "op_self_s", "op_s",
        ],
        0.0,
    )
    uncovered = 0.0
    for op in ops:
        below = list(descendants(op))
        solves = sorted((s for s in below if s["name"] == "conic.solve"), key=lambda s: s["start"])
        tot["rungs"] += len(solves)
        tot["wasted_s"] += sum(_duration(s) for s in solves[:-1])
        tot["solve_s"] += sum(_duration(s) for s in solves)
        tot["iters"] += sum(s["iters"] for s in solves)
        if solves:
            for key in ("vars", "ineq_rows", "eq_rows", "psd_dim"):
                tot[key] += solves[-1][key]
        for s in below:
            name = s["name"]
            if name == "synthesis.assemble":
                tot["assemble_s"] += _duration(s)
            elif name in ("synthesis.synthesize", "synthesis.analyze_network"):
                tot["synth_self_s"] += self_time(s, children.get(s["id"], []))
            elif name == "network.evaluate":
                tot["evaluate_s"] += _duration(s)
                tot["states"] += s["states"]
            elif name == "verification.check":
                tot["check_s"] += _duration(s)
                tot["pairs"] += s["pairs"]
            elif name == "verification.sample":
                tot["sample_s"] += _duration(s)
        op_self = self_time(op, children.get(op["id"], []))
        tot["op_s"] += _duration(op)
        tot["op_self_s"] += op_self
        uncovered = max(uncovered, op_self / _duration(op))

    k = max(len(ops), 1)
    per_op = {key: value / k for key, value in tot.items()}
    builds = [_duration(s) for s in build_spans]
    metrics = {
        "synthesis.rungs": (per_op["rungs"], "count"),
        "synthesis.wasted_s": (per_op["wasted_s"], "s"),
        "synthesis.assemble_s": (per_op["assemble_s"], "s"),
        "synthesis.self_s": (per_op["synth_self_s"], "s"),
        "conic.solve_s": (per_op["solve_s"], "s"),
        "conic.iters": (per_op["iters"], "count"),
        "conic.iter_ms": (1e3 * tot["solve_s"] / tot["iters"] if tot["iters"] else 0.0, "ms"),
        "conic.vars": (per_op["vars"], "count"),
        "conic.ineq_rows": (per_op["ineq_rows"], "count"),
        "conic.eq_rows": (per_op["eq_rows"], "count"),
        "conic.psd_dim": (per_op["psd_dim"], "count"),
        "network.states": (per_op["states"], "count"),
        "network.us_per_state": (
            1e6 * tot["evaluate_s"] / tot["states"] if tot["states"] else 0.0, "us"
        ),
        "network.evaluate_s": (per_op["evaluate_s"], "s"),
        "verification.check_s": (per_op["check_s"], "s"),
        "verification.sample_s": (per_op["sample_s"], "s"),
        "verification.pairs_per_s": (
            tot["pairs"] / tot["check_s"] if tot["check_s"] else 0.0, "1/s"
        ),
        "mpc.build_s": (statistics.median(builds) if builds else 0.0, "s"),
    }
    accounting = {
        "ops": len(ops),
        "op_s_mean": per_op["op_s"],
        "op_self_s_mean": per_op["op_self_s"],
        "uncovered_share_max": uncovered,
        "covered": uncovered <= MAX_UNCOVERED_SHARE,
    }
    return metrics, accounting
