"""Tests of the benchmark's own checks: each must reject a deliberately
corrupted output.

    python3 -m pytest perfbench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from robsyn.mpc import (  # noqa: E402
    condense_qp,
    qp_to_implicit_network,
    reference_mpc_problem,
    solve_qp_oracle,
)
from robsyn.multipliers import Dims, InputPairSet, MultiplierSet, certificate_matrix  # noqa: E402
from robsyn.network import Activation, evaluate_batch  # noqa: E402
from robsyn.synthesis import synthesize  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    """A healthy corpus instance, its solution and a set of sampled pairs."""
    problem = workloads.corpus_problems()[0]
    sol = synthesize(problem)
    s = problem.input_set
    pairs = checks.sample_pairs(
        np.random.default_rng(0), problem.network.n_u, 200, (-5.0, 5.0), s.eps_u1, s.eps_u2
    )
    return problem, sol, pairs


def _outputs(net, pairs):
    U1, U2 = pairs
    return (
        evaluate_batch(net, U1.T, workloads.NEWTON)[0],
        evaluate_batch(net, U2.T, workloads.NEWTON)[0],
    )


def test_certificate_matrix_agrees_with_program_builder():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, n_u, n_g = (int(v) for v in rng.integers(1, (6, 4, 4)))
        net = workloads.random_network(int(rng.integers(1000)), n, n_u, n_g, Activation.relu())
        T_z, T_g = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n_g)
        T_u1, T_u2, eps_u1, eps_u2, gamma, gamma_u1, gamma_u2 = rng.uniform(0.1, 2.0, 7)
        cert = checks.Certificate(T_z, T_g, T_u1, T_u2, eps_u1, eps_u2, gamma, gamma_u1, gamma_u2)
        ours = checks.certificate_matrix(checks.weights_of(net), cert)
        theirs = certificate_matrix(
            Dims(n, n_u, n_g),
            MultiplierSet(T_z, T_g, T_u1, T_u2),
            InputPairSet(eps_u1, eps_u2),
            gamma, gamma_u1, gamma_u2,
            T_z[:, None] * net.W_x, T_z[:, None] * net.W_u,
            T_g[:, None] * net.W_fx, T_g[:, None] * net.W_fu,
        )
        assert np.max(np.abs(ours - theirs)) <= 1e-12 * max(1.0, np.max(np.abs(theirs)))


def test_healthy_solution_passes(solved):
    problem, sol, pairs = solved
    cert = checks.Certificate.of(sol)
    tol = problem.tolerances.w_x
    assert checks.check_certificate(sol.network, problem.network, cert, tol) == []
    assert checks.check_pairs(*_outputs(sol.network, pairs), *pairs, cert) == []


def test_scaled_gamma_is_rejected(solved):
    problem, sol, pairs = solved
    cert = checks.Certificate.of(sol)
    low = dataclasses.replace(cert, gamma=0.9 * cert.gamma)
    found = checks.check_certificate(sol.network, problem.network, low, problem.tolerances.w_x)
    found += checks.check_pairs(*_outputs(sol.network, pairs), *pairs, low)
    assert {f.check for f in found} & {"eigenvalue", "pairs"}


def test_moved_weight_is_rejected(solved):
    problem, sol, _ = solved
    tol = problem.tolerances.w_x
    W_x = sol.network.W_x.copy()
    # away from the reference, so the weight leaves the band on either side
    W_x[0, 0] += np.copysign(2 * tol, W_x[0, 0] - problem.network.W_x[0, 0])
    moved = dataclasses.replace(sol.network, W_x=W_x)
    found = checks.check_certificate(moved, problem.network, checks.Certificate.of(sol), tol)
    assert "weights" in {f.check for f in found}


def test_flipped_multiplier_is_rejected(solved):
    problem, sol, _ = solved
    cert = checks.Certificate.of(sol)
    T_g = cert.T_g.copy()
    T_g[np.argmax(T_g)] *= -1.0
    flipped = dataclasses.replace(cert, T_g=T_g)
    found = checks.check_certificate(sol.network, problem.network, flipped, problem.tolerances.w_x)
    assert [f.check for f in found] == ["eigenvalue"]


def test_reference_gap_from_oracle_agrees_with_evaluate_batch():
    qp = condense_qp(reference_mpc_problem())
    net = qp_to_implicit_network(qp, attach_hint=False)
    U1, U2 = checks.sample_pairs(
        np.random.default_rng(0), net.n_u, 64, workloads.MPC_BOX, 1.0, 1.0
    )
    V1 = np.array([solve_qp_oracle(qp, w).v for w in U1]).T
    V2 = np.array([solve_qp_oracle(qp, w).v for w in U2]).T
    G1, G2 = _outputs(net, (U1, U2))
    oracle_gap = np.sum(np.abs(V2 - V1), axis=0)
    network_gap = np.sum(np.abs(G2 - G1), axis=0)
    assert np.max(np.abs(oracle_gap - network_gap)) <= 1e-9
    saturated = np.any(np.abs(V1) >= qp.v_bound * (1 - 1e-9), axis=0)
    assert np.mean(saturated) >= workloads.MIN_SATURATED_SHARE


def test_self_time_subtracts_the_union_of_children():
    parent = {"start": 0.0, "end": 10.0}
    children = [{"start": 1.0, "end": 4.0}, {"start": 3.0, "end": 5.0}, {"start": 7.0, "end": 8.0}]
    assert spans.self_time(parent, children) == pytest.approx(5.0)


def test_operation_left_uncovered_is_flagged():
    op = {"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 1.0}
    solve = {"id": 1, "name": "conic.solve", "parent": 0, "start": 0.0, "end": 0.5,
             "iters": 1, "vars": 1, "ineq_rows": 1, "eq_rows": 0, "psd_dim": 1}
    _, accounting = spans.per_layer([op, solve], [])
    assert accounting["uncovered_share_max"] == pytest.approx(0.5)
    assert not accounting["covered"]
    solve["end"] = 1.0
    _, accounting = spans.per_layer([op, solve], [])
    assert accounting["covered"]
