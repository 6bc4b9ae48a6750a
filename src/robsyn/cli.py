"""Batch front end tying the pipeline together.

One JSON config file per invocation; command-line flags override config
values and nothing reads the environment, so an invocation is a complete
record of an experiment.  Subcommands:

    mpc-build    build the saturated-MPC fixture (network + condensed QP)
    synthesize   robustify a network file under weight-deviation tolerances
    analyze      certify a network file as-is
    verify       sample-test a certificate file against its network
    sweep        synthesis across a tolerance grid, CSV + plot data out
    simulate     closed-loop rollout of a network against the exact QP law

Every config value is type-checked against its key's kind in _KEYS
(string, boolean, number, integer, number list, matrix, or a section of
sub-keys) before anything runs, then range-checked, whichever command runs,
by building the object the commands build from it (_BUILDERS).  Each
document is written down once: the MPC problem's fields by the mpc section
(for the config, mpc-build's qp.json and simulate, which checks qp.json by
the same kinds), certificate.json's keys by _CERT_KEYS for its
writer and its loader.

Exit codes: 0 success, 1 runtime failure (including verify finding
violations and mpc-build failing its oracle-agreement check), 2 config or
schema problem (the offending key is named), 3 infeasible, 4 numerical
failure.

Every artifact is named and written here: the JSON documents through
network.write_document (save_network for networks), the text artifacts
through open_artifact.  CSV files (write_csv) are comma-separated with '.'
decimals, a header row and LF line endings; sweep.dat holds the solved
sweep rows' (eps, gamma) in two whitespace-separated columns.  A text
artifact opens with a '# generated <UTC time>' comment, which
--no-timestamp omits so that reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .conic import SolverOptions
from .errors import DimensionMismatch, Infeasible, NumericalFailure, RobsynError, SchemaError
from .mpc import (
    MpcProblem,
    condense_qp,
    qp_to_implicit_network,
    reference_mpc_problem,
    simulate_closed_loop,
    solve_qp_oracle,
)
from .multipliers import InputPairSet
from .network import (
    evaluate,
    evaluate_batch,
    load_network,
    read_document,
    save_network,
    write_document,
)
from .synthesis import (
    RobustnessCertificate,
    SimilarityTolerances,
    SynthesisProblem,
    synthesize,
)
from .verification import (
    SampleSpec,
    SweepRow,
    empirical_bound_check,
    max_weight_deviation,
    sweep_tolerance,
)

# Every config key, its kind and its default.  A kind is "string",
# "boolean", "number", "integer", "number list", "number pair" (a list of two
# numbers), "matrix" (a list of equal-length lists of numbers), or a section
# mapping each sub-key to its kind.  The mpc section's kinds also check the
# problem fields of qp.json.
_KEYS = {
    "network": ("string", None),
    "qp": ("string", None),
    "certificate": ("string", None),
    "out": ("string", "."),
    "seed": ("integer", 0),
    "jobs": ("integer", 1),
    "timestamp": ("boolean", True),
    "mpc": (
        {**dict.fromkeys(("A", "B", "Q", "R", "P"), "matrix"),
         "horizon": "integer", "v_bound": "number"},
        None,
    ),
    "pairset": ({"eps_u1": "number", "eps_u2": "number"}, {"eps_u1": 1.0, "eps_u2": 1.0}),
    "tolerances": (
        dict.fromkeys(("uniform", "w_x", "w_u", "w_fx", "w_fu"), "number"),
        {"uniform": 1e-5},
    ),
    "fixed_gamma_u1": ("number", None),
    "fixed_gamma_u2": ("number", None),
    "sweep_grid": ("number list", [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]),
    "samples": ("integer", 10000),
    "base_box": ("number pair", list(SampleSpec().base_box)),
    "steps": ("integer", 30),
    "w0": ("number list", [1.0, -1.0]),
    "solver": (
        {
            f.name: "integer" if f.type in (int, "int") else "number"
            for f in dataclasses.fields(SolverOptions)
        },
        None,
    ),
}
_KINDS = {key: kind for key, (kind, _) in _KEYS.items()}
_DEFAULTS = {key: default for key, (_, default) in _KEYS.items()}

ORACLE_AGREEMENT_TOL = 1e-5


def _require_number(value, name: str, integer: bool = False) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise SchemaError(f"{name} must be a finite number")
    if integer and not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer")


def _check(value, kind, doc: str, key: str) -> None:
    """Raise SchemaError, naming the key, unless value is of the given kind.

    doc names the document ("config", "certificate", "qp document") and key
    is the value's dotted path in it.
    """
    name = f"{doc} key {key!r}"
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise SchemaError(f"{name} must be an object")
        for sub, item in value.items():
            if sub not in kind:
                raise SchemaError(f"unknown {doc} key: '{key}.{sub}'")
            _check(item, kind[sub], doc, f"{key}.{sub}")
    elif kind in ("string", "boolean"):
        if not isinstance(value, str if kind == "string" else bool):
            raise SchemaError(f"{name} must be a {kind}")
    elif kind in ("number", "integer"):
        _require_number(value, name, kind == "integer")
    elif kind == "matrix":
        if (
            not isinstance(value, list)
            or not all(isinstance(row, list) for row in value)
            or len({len(row) for row in value}) > 1
        ):
            raise SchemaError(f"{name} must be a list of equal-length lists of numbers")
        for row in value:
            for item in row:
                _require_number(item, f"each entry of {name}")
    else:
        pair = kind == "number pair"
        if not isinstance(value, list) or (pair and len(value) != 2):
            raise SchemaError(f"{name} must be a list of {'2 ' if pair else ''}numbers")
        for item in value:
            _require_number(item, f"each entry of {name}")


def _validate_config(raw: dict) -> None:
    for key, value in raw.items():
        if key not in _KINDS:
            raise SchemaError(f"unknown config key: {key!r}")
        if value is None:
            if _DEFAULTS[key] is not None:
                raise SchemaError(f"config key {key!r} must not be null")
            continue
        _check(value, _KINDS[key], "config", key)
    tol = raw.get("tolerances")
    if isinstance(tol, dict) and "uniform" in tol and len(tol) > 1:
        raise SchemaError("config key 'tolerances.uniform' excludes the per-block keys")


def _mpc_fields(problem: MpcProblem) -> dict:
    """The problem's fields as JSON values, in the mpc section's order."""
    return {key: np.asarray(getattr(problem, key)).tolist() for key in _KINDS["mpc"]}


def _mpc_problem(fields: dict, doc: str) -> MpcProblem:
    """The problem whose fields are given, each checked by the mpc section's
    kind; keys other than the problem's are ignored."""
    for key, kind in _KINDS["mpc"].items():
        if key not in fields:
            raise SchemaError(f"{doc} is missing key {key!r}")
        _check(fields[key], kind, doc, key)
    values = {key: fields[key] for key in _KINDS["mpc"]}
    values["v_bound"] = float(values["v_bound"])
    return MpcProblem(**values)


def _merge(cfg: dict, updates: dict) -> None:
    for key, value in updates.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = copy.deepcopy(value)


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags."""
    cfg = copy.deepcopy(_DEFAULTS)
    raw = {}
    if args.config:
        raw = read_document(args.config, "config")
        _validate_config(raw)
    _merge(cfg, raw)
    for flag in ("out", "seed", "jobs"):
        value = getattr(args, flag)
        if value is not None:
            cfg[flag] = value
    if args.no_timestamp:
        cfg["timestamp"] = False
    _check_ranges(cfg, args.command)
    return cfg


def _artifact(cfg: dict, key: str, default_name: str) -> str:
    return cfg[key] if cfg[key] else os.path.join(cfg["out"], default_name)


def _out_path(cfg: dict, name: str) -> str:
    os.makedirs(cfg["out"], exist_ok=True)
    return os.path.join(cfg["out"], name)


def _pairset(cfg: dict) -> InputPairSet:
    return InputPairSet(float(cfg["pairset"]["eps_u1"]), float(cfg["pairset"]["eps_u2"]))


def _tolerances(cfg: dict) -> SimilarityTolerances:
    tol = cfg["tolerances"]
    if "uniform" in tol:
        return SimilarityTolerances.uniform(float(tol["uniform"]))
    return SimilarityTolerances(
        w_x=float(tol.get("w_x", 0.0)),
        w_u=float(tol.get("w_u", 0.0)),
        w_fx=float(tol.get("w_fx", 0.0)),
        w_fu=float(tol.get("w_fu", 0.0)),
    )


def _solver_options(cfg: dict) -> SolverOptions | None:
    return SolverOptions(**cfg["solver"]) if cfg["solver"] else None


def _sample_spec(cfg: dict) -> SampleSpec:
    lo, hi = cfg["base_box"]
    return SampleSpec(num_pairs=cfg["samples"], base_box=(float(lo), float(hi)))


def _problem_from_cfg(cfg: dict) -> MpcProblem:
    """The config's mpc section over the reference problem's fields."""
    fields = {**_mpc_fields(reference_mpc_problem()), **(cfg["mpc"] or {})}
    return _mpc_problem(fields, "config")


# the object the commands build from each config value (see _check_ranges)
_BUILDERS = {
    "mpc": _problem_from_cfg,
    "pairset": _pairset,
    "tolerances": _tolerances,
    "sweep_grid": lambda cfg: [SimilarityTolerances.uniform(float(e)) for e in cfg["sweep_grid"]],
    "samples": lambda cfg: SampleSpec(num_pairs=cfg["samples"]),
    "base_box": lambda cfg: SampleSpec(base_box=tuple(cfg["base_box"])),
    "solver": _solver_options,
}


def _check_ranges(cfg: dict, command: str) -> None:
    """Raise SchemaError, naming the key, for a value of the right kind that
    no command can use, whichever command runs: seed, jobs and steps by
    their bounds (they build no object), the others by building their
    _BUILDERS object.  analyze skips the tolerances, which it does not read."""
    if not 0 <= cfg["seed"] < 2**64:
        raise SchemaError("config key 'seed' must fit in an unsigned 64-bit integer")
    if cfg["jobs"] < 1:
        raise SchemaError("config key 'jobs' must be a positive integer")
    if cfg["steps"] < 0:
        raise SchemaError("config key 'steps' must be a nonnegative integer")
    for key, build in _BUILDERS.items():
        if (command, key) == ("analyze", "tolerances"):
            continue
        try:
            build(cfg)
        except (ValueError, DimensionMismatch) as ex:
            raise SchemaError(f"config key {key!r}: {ex}") from None


def open_artifact(path: str, timestamp: bool):
    """A text file opened for writing with LF line endings; unless timestamp
    is False, its first line is a '# generated <UTC time>' comment."""
    fh = open(path, "w", newline="")
    if timestamp:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    return fh


def write_csv(path: str, columns, rows, timestamp: bool = True) -> None:
    """A CSV artifact (see open_artifact) of a header row and one line per
    row: floats printed with 17 significant digits, other values as str."""
    with open_artifact(path, timestamp) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def write_sweep_csv(path: str, rows: list[SweepRow], timestamp: bool = True) -> None:
    """sweep.csv: one line per row, every SweepRow field a column."""
    columns = [f.name for f in dataclasses.fields(SweepRow)]
    write_csv(path, columns, [dataclasses.astuple(r) for r in rows], timestamp)


def write_sweep_gnuplot(path: str, rows: list[SweepRow], timestamp: bool = True) -> None:
    """sweep.dat: the solved rows' (eps, gamma), two whitespace-separated
    columns under a '# eps gamma' comment, for direct plotting."""
    with open_artifact(path, timestamp) as fh:
        fh.write("# eps gamma\n")
        for r in rows:
            if math.isfinite(r.gamma):
                fh.write(f"{r.eps:.17g} {r.gamma:.17g}\n")


# certificate.json's keys, in the order they are written: the certificate's
# fields with its input set's two radii in place of input_set
_CERT_KEYS = ("gamma", "gamma_u1", "gamma_u2", "eps_u1", "eps_u2", "lmi_margin", "objective_value")


def _write_certificate(sol, path: str) -> None:
    cert = sol.certificate
    values = {**dataclasses.asdict(cert), **dataclasses.asdict(cert.input_set)}
    write_document({key: values[key] for key in _CERT_KEYS}, path)


def _load_certificate(path: str) -> RobustnessCertificate:
    doc = read_document(path, "certificate")
    for key in doc:
        if key not in _CERT_KEYS:
            raise SchemaError(f"unknown certificate key: {key!r}")
    missing = [k for k in _CERT_KEYS if k not in doc]
    if missing:
        raise SchemaError(f"certificate document is missing keys: {missing}")
    values = {}
    for key in _CERT_KEYS:
        _check(doc[key], "number", "certificate", key)
        values[key] = float(doc[key])
    input_set = InputPairSet(values.pop("eps_u1"), values.pop("eps_u2"))
    return RobustnessCertificate(input_set=input_set, **values)


def _state_grid(n_x: int, base_box, seed: int) -> np.ndarray:
    lo, hi = float(base_box[0]), float(base_box[1])
    if n_x == 2:
        axis = np.linspace(lo, hi, 10)
        g1, g2 = np.meshgrid(axis, axis)
        return np.column_stack([g1.ravel(), g2.ravel()])
    return np.random.default_rng(seed).uniform(lo, hi, size=(100, n_x))


def cmd_mpc_build(cfg: dict) -> int:
    problem = _problem_from_cfg(cfg)
    qp = condense_qp(problem)
    net = qp_to_implicit_network(qp)
    states = _state_grid(problem.n_x, cfg["base_box"], cfg["seed"])
    G = evaluate_batch(net, states.T)[0]
    err = 0.0
    for j, w in enumerate(states):
        err = max(err, float(np.max(np.abs(G[:, j] - solve_qp_oracle(qp, w).v))))
    net_path = _out_path(cfg, "network.json")
    save_network(net, net_path)
    qp_doc = _mpc_fields(problem)
    qp_doc.update((key, getattr(qp, key).tolist()) for key in ("H", "F", "E", "G", "c", "S_w"))
    write_document(qp_doc, _out_path(cfg, "qp.json"))
    print(f"network dims: n={net.n} n_u={net.n_u} n_g={net.n_g}")
    if qp.n_dec == 1:
        print(f"condensed cost H = {qp.H[0, 0]:.4f}")
    print(f"wrote {net_path}")
    print(f"oracle agreement max error = {err:.3e} over {states.shape[0]} states")
    return 0 if err <= ORACLE_AGREEMENT_TOL else 1


def _synthesis_problem(cfg: dict, net, tolerances: SimilarityTolerances) -> SynthesisProblem:
    return SynthesisProblem(
        network=net,
        input_set=_pairset(cfg),
        tolerances=tolerances,
        fixed_gamma_u1=cfg["fixed_gamma_u1"],
        fixed_gamma_u2=cfg["fixed_gamma_u2"],
    )


def _summary(sol, extra: str = "") -> str:
    cert = sol.certificate
    return (
        f"gamma={cert.gamma:.6g} gamma_u1={cert.gamma_u1:.6g} "
        f"gamma_u2={cert.gamma_u2:.6g} objective={cert.objective_value:.6g}"
        f"{extra} status={sol.status_label}"
    )


def cmd_synthesize(cfg: dict) -> int:
    net = load_network(_artifact(cfg, "network", "network.json"))
    problem = _synthesis_problem(cfg, net, _tolerances(cfg))
    sol = synthesize(problem, options=_solver_options(cfg))
    save_network(sol.network, _out_path(cfg, "synthesized_network.json"))
    _write_certificate(sol, _out_path(cfg, "certificate.json"))
    dev = max_weight_deviation(sol.network, net)
    print(_summary(sol, extra=f" max_weight_deviation={dev:.3e}"))
    return 0


def cmd_analyze(cfg: dict) -> int:
    net = load_network(_artifact(cfg, "network", "network.json"))
    # analysis is synthesis with every tolerance zero (see analyze_network);
    # the config's tolerances are not read, nor range-checked (_check_ranges)
    problem = _synthesis_problem(cfg, net, SimilarityTolerances.uniform(0.0))
    sol = synthesize(problem, options=_solver_options(cfg))
    _write_certificate(sol, _out_path(cfg, "certificate.json"))
    cert = sol.certificate
    write_csv(
        _out_path(cfg, "analysis.csv"),
        ("gamma", "gamma_u1", "gamma_u2", "objective", "lmi_margin"),
        [(cert.gamma, cert.gamma_u1, cert.gamma_u2, cert.objective_value, cert.lmi_margin)],
        cfg["timestamp"],
    )
    print(_summary(sol))
    return 0


def cmd_verify(cfg: dict) -> int:
    net = load_network(_artifact(cfg, "network", "network.json"))
    cert = _load_certificate(_artifact(cfg, "certificate", "certificate.json"))
    check = empirical_bound_check(net, cert, _sample_spec(cfg), seed=cfg["seed"])
    write_csv(
        _out_path(cfg, "verify.csv"),
        [f.name for f in dataclasses.fields(check)],
        [dataclasses.astuple(check)],
        cfg["timestamp"],
    )
    print(
        f"violations={check.violations}/{check.num_pairs} "
        f"worst_margin={check.worst_margin:.6g} "
        f"empirical_gamma_lb={check.empirical_gamma_lb:.6g}"
    )
    return 1 if check.violations > 0 else 0


def cmd_sweep(cfg: dict) -> int:
    net = load_network(_artifact(cfg, "network", "network.json"))
    # each row sets every tolerance to its sweep_grid value
    problem = _synthesis_problem(cfg, net, SimilarityTolerances())
    rows = sweep_tolerance(
        problem,
        cfg["sweep_grid"],
        _solver_options(cfg),
        spec=_sample_spec(cfg),
        seed=cfg["seed"],
        jobs=cfg["jobs"],
    )
    csv_path = _out_path(cfg, "sweep.csv")
    write_sweep_csv(csv_path, rows, cfg["timestamp"])
    write_sweep_gnuplot(_out_path(cfg, "sweep.dat"), rows, cfg["timestamp"])
    solved = sum(1 for r in rows if r.status.startswith("optimal"))
    print(f"wrote {len(rows)} sweep rows ({solved} solved) to {csv_path}")
    return 0


def _load_mpc_problem(path: str) -> MpcProblem:
    """The MPC problem of a qp.json file, as mpc-build writes it."""
    return _mpc_problem(read_document(path, "qp"), "qp document")


def cmd_simulate(cfg: dict) -> int:
    problem = _load_mpc_problem(_artifact(cfg, "qp", "qp.json"))
    if len(cfg["w0"]) != problem.n_x:
        raise SchemaError(
            f"config key 'w0' must be a list of {problem.n_x} numbers, one per plant state"
        )
    net = load_network(_artifact(cfg, "network", "synthesized_network.json"))
    for name, have, key, want in (
        ("n_u", net.n_u, "n_x", problem.n_x),
        ("n_g", net.n_g, "n_v * horizon", problem.n_v * problem.horizon),
    ):
        if have != want:
            raise SchemaError(
                f"config key 'network': the network's {name} is {have}, "
                f"but the qp's {key} is {want}"
            )
    w0 = np.asarray(cfg["w0"], dtype=float)
    steps = cfg["steps"]
    W_ref, V_ref = simulate_closed_loop(problem, w0, steps)
    W_net, V_net = simulate_closed_loop(
        problem, w0, steps, controller=lambda w: evaluate(net, w).g
    )
    dev = float(np.max(np.abs(W_ref - W_net)))
    columns = (
        ["k"]
        + [f"w_ref_{i}" for i in range(problem.n_x)]
        + [f"w_net_{i}" for i in range(problem.n_x)]
        + [f"v_ref_{i}" for i in range(problem.n_v)]
        + [f"v_net_{i}" for i in range(problem.n_v)]
    )
    rows = [[k, *W_ref[k], *W_net[k], *V_ref[k], *V_net[k]] for k in range(steps)]
    # the rollout applies no input after its last state
    rows.append([steps, *W_ref[steps], *W_net[steps], *[""] * (2 * problem.n_v)])
    write_csv(_out_path(cfg, "trajectory.csv"), columns, rows, cfg["timestamp"])
    print(f"max trajectory deviation = {dev:.6g} over {steps} steps")
    return 0


_COMMANDS = [
    ("mpc-build", cmd_mpc_build, "build the saturated-MPC network and condensed-QP files"),
    ("synthesize", cmd_synthesize, "robustify a network under weight tolerances"),
    ("analyze", cmd_analyze, "certify a network file without changing it"),
    ("verify", cmd_verify, "sample-test a certificate against its network"),
    ("sweep", cmd_sweep, "synthesis across a tolerance grid"),
    ("simulate", cmd_simulate, "closed-loop rollout against the exact QP law"),
]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out", metavar="DIR", help="output directory (default '.')")
    common.add_argument("--seed", type=int, metavar="U64")
    common.add_argument("--jobs", type=int, metavar="K", help="parallel sweep workers")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the generated-at comment so reruns are byte-identical",
    )
    parser = argparse.ArgumentParser(
        prog="robsyn",
        description="certified robustness synthesis for implicit networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        cfg = resolve_config(args)
        return args.func(cfg)
    except (SchemaError, DimensionMismatch, ValueError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except Infeasible as ex:
        print(f"infeasible: {ex}", file=sys.stderr)
        return 3
    except NumericalFailure as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return 4
    except RobsynError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
