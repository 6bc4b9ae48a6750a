"""The study scripts, run as a user runs them: each in its own process, into a
temporary directory, at small settings.  Both scripts only drive the CLI, so
these tests check that the configs they write describe the study's problems:
every number they report must be what the library computes in-process for
the same pinned-gain problems, pair set, sample box and seed.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robsyn
from robsyn.cli import write_csv, write_sweep_csv
from robsyn.mpc import (
    condense_qp,
    qp_to_implicit_network,
    reference_mpc_problem,
    simulate_closed_loop,
    solve_qp_oracle,
)
from robsyn.multipliers import InputPairSet
from robsyn.network import evaluate, save_network
from robsyn.synthesis import SimilarityTolerances, SynthesisProblem, analyze_network, synthesize
from robsyn.verification import (
    SampleSpec,
    empirical_bound_check,
    sample_input_pairs,
    sweep_tolerance,
)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(robsyn.__file__).resolve().parents[1]
PAIR_SET = InputPairSet(1.0, 1.0)
SPEC = SampleSpec(num_pairs=50, base_box=(-50.0, 50.0))
STEPS = 2
REPORT_KEYS = [
    "gamma_analysis",
    "saturated_share",
    "gamma_fine",
    "trajectory_deviation_fine",
    "gamma_coarse",
    "trajectory_deviation_coarse",
]


def run_script(name: str, *args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def mpc():
    problem = reference_mpc_problem()
    qp = condense_qp(problem)
    return problem, qp, qp_to_implicit_network(qp, attach_hint=False)


def pinned_gain_problem(net, eps: float) -> SynthesisProblem:
    return SynthesisProblem(
        network=net,
        input_set=PAIR_SET,
        tolerances=SimilarityTolerances.uniform(eps),
        fixed_gamma_u1=0.0,
        fixed_gamma_u2=0.0,
    )


def test_mpc_study_reports_the_library_results(tmp_path, mpc):
    problem, qp, net = mpc
    out = tmp_path / "study"
    run_script(
        "run_mpc_study.py",
        "--samples", str(SPEC.num_pairs), "--steps", str(STEPS), "--out", str(out),
    )
    report = json.loads((out / "report.json").read_text())
    assert list(report) == REPORT_KEYS

    base = analyze_network(net, PAIR_SET, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0)
    assert report["gamma_analysis"] == base.certificate.gamma

    # the saturated share by the QP oracle, over the pairs verify samples
    limit = qp.v_bound * (1.0 - 1e-9)
    saturated = [
        any(np.max(np.abs(solve_qp_oracle(qp, u).v)) >= limit for u in pair)
        for pair in zip(*sample_input_pairs(PAIR_SET, net.n_u, SPEC, 0))
    ]
    assert report["saturated_share"] == np.mean(saturated)

    w0 = np.array([1.0, -1.0])
    W_ref, _ = simulate_closed_loop(problem, w0, STEPS)
    for label, eps in (("fine", 1e-5), ("coarse", 1e-1)):
        sol = synthesize(pinned_gain_problem(net, eps))
        assert report[f"gamma_{label}"] == sol.certificate.gamma
        expected = tmp_path / f"{label}.json"
        save_network(sol.network, str(expected))
        assert (out / label / "synthesized_network.json").read_bytes() == expected.read_bytes()
        # verify.csv past its timestamp line
        check = empirical_bound_check(sol.network, sol.certificate, SPEC, seed=0)
        fields = [f.name for f in dataclasses.fields(check)]
        write_csv(str(expected), fields, [dataclasses.astuple(check)], timestamp=False)
        verify_lines = (out / label / "verify.csv").read_text().splitlines(keepends=True)
        assert verify_lines[0].startswith("# generated")
        assert "".join(verify_lines[1:]) == expected.read_text()
        W_net, _ = simulate_closed_loop(
            problem, w0, STEPS, controller=lambda w: evaluate(sol.network, w).g
        )
        assert report[f"trajectory_deviation_{label}"] == float(np.max(np.abs(W_ref - W_net)))


def test_tradeoff_sweep_writes_the_library_sweep(tmp_path, mpc):
    _, _, net = mpc
    out = tmp_path / "sweep"
    run_script(
        "run_tradeoff_sweep.py",
        "--grid", "1e-1", "--samples", str(SPEC.num_pairs), "--no-timestamp", "--out", str(out),
    )
    # each row sets every tolerance to its grid value
    rows = sweep_tolerance(pinned_gain_problem(net, 0.0), [1e-1], spec=SPEC, seed=0)
    expected = tmp_path / "sweep.csv"
    write_sweep_csv(str(expected), rows, timestamp=False)
    assert (out / "sweep.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "command, code", [("verify", 1), ("verify", 2), ("synthesize", 1), ("simulate", 4)]
)
def test_mpc_study_goes_on_only_past_violations(tmp_path, monkeypatch, command, code):
    spec = importlib.util.spec_from_file_location("run_mpc_study", SCRIPTS / "run_mpc_study.py")
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    monkeypatch.setattr(study.cli, "main", lambda argv: code)
    if (command, code) == ("verify", 1):
        study.run(command, {"out": str(tmp_path)})
    else:
        with pytest.raises(SystemExit) as exit_info:
            study.run(command, {"out": str(tmp_path)})
        assert exit_info.value.code == code
    assert json.loads((tmp_path / f"{command}.json").read_text()) == {"out": str(tmp_path)}
