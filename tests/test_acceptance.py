"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints the measured quantity it gates on, so a failure line carries
the evidence.  The expensive full-size MPC solves are shared across tests
through module-scoped fixtures; the suite is expected to run end to end in
well under ten minutes on one core.
"""

import time

import numpy as np
import pytest

import robsyn.synthesis
from helpers import lemma_property_suite, random_well_posed_network, rollout_cost, total_cost
from robsyn.conic import SolverOptions, SolverStatus, solve_conic
from robsyn.mpc import (
    condense_qp,
    qp_to_implicit_network,
    reference_mpc_problem,
    simulate_closed_loop,
    solve_qp_oracle,
)
from robsyn.multipliers import (
    Dims,
    InputPairSet,
    build_omega_g_check,
    build_omega_gamma,
    build_omega_u,
    build_omega_z_check,
)
from robsyn.network import evaluate, evaluate_batch, relu
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
    sweep_tolerance,
)

_T0 = time.perf_counter()

PAIR_SET = InputPairSet(1.0, 1.0)
SWEEP_GRID = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]


@pytest.fixture(scope="module")
def mpc_fixture():
    problem = reference_mpc_problem()
    qp = condense_qp(problem)
    net = qp_to_implicit_network(qp, attach_hint=False)
    return problem, qp, net


def _pinned_gain_problem(net, eps):
    return SynthesisProblem(
        network=net,
        input_set=PAIR_SET,
        tolerances=SimilarityTolerances.uniform(eps),
        fixed_gamma_u1=0.0,
        fixed_gamma_u2=0.0,
    )


@pytest.fixture(scope="module")
def mpc_analysis(mpc_fixture):
    _, _, net = mpc_fixture
    return analyze_network(net, PAIR_SET, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0)


@pytest.fixture(scope="module")
def mpc_synth_fine(mpc_fixture):
    """The full-size synthesis at the fine tolerance, timed, at 1e-8 tolerances."""
    _, _, net = mpc_fixture
    t0 = time.perf_counter()
    sol = synthesize(
        _pinned_gain_problem(net, 1e-5),
        options=SolverOptions(feas_tol=1e-8, gap_tol=1e-8),
    )
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mpc_synth_zero(mpc_fixture):
    _, _, net = mpc_fixture
    return synthesize(_pinned_gain_problem(net, 0.0))


@pytest.fixture(scope="module")
def mpc_synth_coarse(mpc_fixture):
    _, _, net = mpc_fixture
    return synthesize(_pinned_gain_problem(net, 1e-1))


@pytest.fixture(scope="module")
def mpc_sweep(mpc_fixture):
    _, _, net = mpc_fixture
    # each row sets the tolerances to its grid value
    return sweep_tolerance(
        _pinned_gain_problem(net, 0.0), SWEEP_GRID, spec=SampleSpec(num_pairs=2000), seed=0
    )


def test_criterion_1_multiplier_lemma_suite():
    t0 = time.perf_counter()
    out = lemma_property_suite(num_networks=200, pairs_per_network=1000, seed=0)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 1: min normalized slack {out.min_normalized_slack:.3e}, "
        f"{out.failures} failures, {elapsed:.1f}s"
    )
    assert out.failures == 0
    assert out.min_normalized_slack >= -1e-8
    assert elapsed < 60.0


def test_criterion_2_substitution_and_scalar_fidelity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        d = Dims(
            int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        )
        T_z = rng.uniform(0.0, 2.0, d.n)
        T_g = rng.uniform(0.0, 2.0, d.n_g)
        T_u1, T_u2 = rng.uniform(0.0, 2.0, 2)
        gam, gam1, gam2 = rng.uniform(0.0, 2.0, 3)
        Psi_z = rng.standard_normal((d.n, d.n))
        Psi_u = rng.standard_normal((d.n, d.n_u))
        Psi_gz = rng.standard_normal((d.n_g, d.n))
        Psi_gu = rng.standard_normal((d.n_g, d.n_u))
        # scalar expansion on a realizable incremental vector
        z = rng.standard_normal(d.n)
        u = rng.standard_normal(d.n_u)
        g = rng.standard_normal(d.n_g)
        p = np.zeros(d.N_p)
        p[d.sl_g_pm] = np.concatenate([relu(g), relu(-g)])
        p[d.sl_u_pm] = np.concatenate([relu(u), relu(-u)])
        p[d.sl_z] = z
        p[d.sl_u] = u
        p[d.idx_one] = 1.0
        ps = InputPairSet(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)))
        # the convex builders at Y = T * Psi
        M = (
            build_omega_z_check(d, T_z, T_z[:, None] * Psi_z, T_z[:, None] * Psi_u)
            + build_omega_g_check(d, T_g, T_g[:, None] * Psi_gz, T_g[:, None] * Psi_gu)
            + build_omega_u(d, T_u1, T_u2, ps)
            + build_omega_gamma(d, gam, gam1, gam2)
        )
        lin = Psi_gz @ z + Psi_gu @ u
        gp, gm = relu(g), relu(-g)
        expect = (
            z @ (T_z * (Psi_z @ z + Psi_u @ u - z))
            - gp @ (T_g * gp)
            - gm @ (T_g * gm)
            + g @ (T_g * lin)
            + T_u1 * (ps.eps_u1 - np.sum(np.abs(u)))
            + T_u2 * (ps.eps_u2 - u @ u)
            + np.sum(np.abs(g))
            - gam
            - gam1 * np.sum(np.abs(u))
            - gam2 * (u @ u)
        )
        err = abs(p @ M @ p - expect) / max(1.0, abs(expect))
        worst = max(worst, err)
    print(f"criterion 2: worst relative scalar-form error {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_3_zero_tolerance_consistency(mpc_fixture, mpc_synth_zero, mpc_analysis):
    _, _, net = mpc_fixture
    dev = max_weight_deviation(mpc_synth_zero.network, net)
    ga = mpc_analysis.certificate.gamma
    gs = mpc_synth_zero.certificate.gamma
    rel = abs(gs - ga) / ga
    print(f"criterion 3: max weight deviation {dev:.3e}, gamma rel gap {rel:.3e}")
    assert dev <= 1e-6
    assert rel <= 1e-4


def _criterion_4_problems():
    """The 50 problems of criterion 4, numbered k: random networks, pair
    sets and uniform tolerances in [0, 0.25], gains pinned for odd k."""
    rng = np.random.default_rng(4)
    for k in range(50):
        net = random_well_posed_network(
            1000 + k,
            n=int(rng.integers(1, 5)),
            n_u=int(rng.integers(1, 4)),
            n_g=int(rng.integers(1, 4)),
        )
        yield k, SynthesisProblem(
            network=net,
            input_set=InputPairSet(
                float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
            ),
            tolerances=SimilarityTolerances.uniform(float(rng.uniform(0.0, 0.25))),
            fixed_gamma_u1=0.0 if k % 2 else None,
            fixed_gamma_u2=0.0 if k % 2 else None,
        )


def test_criterion_4_soundness_over_random_corpus():
    spec = SampleSpec(num_pairs=10_000)
    optimal = 0
    worst_margin = np.inf
    for k, problem in _criterion_4_problems():
        sol = synthesize(problem)
        optimal += 1
        check = empirical_bound_check(sol.network, sol.certificate, spec, seed=k)
        worst_margin = min(worst_margin, check.worst_margin)
        assert check.violations == 0, (
            f"problem {k}: {check.violations} violations, "
            f"worst margin {check.worst_margin:.3e}"
        )
    print(
        f"criterion 4: {optimal}/50 optimal, zero violations, "
        f"worst margin {worst_margin:.3e}"
    )
    assert optimal == 50


def test_criterion_4_instance_with_a_zeroable_row_is_solved_capped(monkeypatch):
    """Problem 33 of criterion 4 is the one with a zeroable row (state 3).
    Its uncapped program ends optimal in 14 iterations, but synthesize
    solves the capped one from the start: 24 iterations, T_z[3] near the
    cap, and a gamma within 1e-7 relative of the uncapped solve's."""
    problems = dict(_criterion_4_problems())
    zeroable = {
        k: [rows.tolist() for rows in robsyn.synthesis._zeroable_rows(p.network, p.tolerances)]
        for k, p in problems.items()
    }
    assert {k: rows for k, rows in zeroable.items() if rows != [[], []]} == {33: [[3], []]}
    problem = problems[33]
    program, layout = robsyn.synthesis.assemble_synthesis_sdp(problem)
    uncapped = solve_conic(program, SolverOptions(max_iters=80))
    gamma = robsyn.synthesis._extract_solution(problem, layout, uncapped).certificate.gamma
    calls = []
    solve = robsyn.synthesis.solve_conic

    def record(program, options=None):
        calls.append(solve(program, options))
        return calls[-1]

    monkeypatch.setattr(robsyn.synthesis, "solve_conic", record)
    sol = synthesize(problem)
    print(
        f"problem 33: uncapped {uncapped.iterations} iterations, gamma {gamma:.9f}; "
        f"{sol.status_label} in {sol.solver_result.iterations}, gamma "
        f"{sol.certificate.gamma:.9f}, T_z[3] {sol.multipliers.T_z[3]:.2e}"
    )
    assert (uncapped.status, uncapped.iterations) == (SolverStatus.OPTIMAL, 14)
    assert [(r.status, r.iterations) for r in calls] == [(SolverStatus.OPTIMAL, 24)]
    assert sol.status_label == "optimal (capped multipliers)"
    assert sol.multipliers.T_z[3] > robsyn.synthesis._MULTIPLIER_CAP / 10
    assert abs(sol.certificate.gamma - gamma) <= 1e-7 * gamma


def test_criterion_5_mpc_oracle_equivalence(mpc_fixture):
    problem, qp, net = mpc_fixture
    axis = np.linspace(-5.0, 5.0, 10)
    g1, g2 = np.meshgrid(axis, axis)
    states = np.column_stack([g1.ravel(), g2.ravel()])
    G = evaluate_batch(net, states.T)[0]
    err = 0.0
    for j, w in enumerate(states):
        err = max(err, float(np.max(np.abs(G[:, j] - solve_qp_oracle(qp, w).v))))
    rng = np.random.default_rng(5)
    cost_rel = 0.0
    for _ in range(100):
        w = rng.uniform(-5.0, 5.0, size=problem.n_x)
        v = solve_qp_oracle(qp, w).v
        direct = rollout_cost(problem, w, v)
        condensed = total_cost(qp, v, w)
        cost_rel = max(cost_rel, abs(condensed - direct) / max(1.0, abs(direct)))
    print(
        f"criterion 5: grid max error {err:.3e}, "
        f"worst cost identity rel error {cost_rel:.3e}"
    )
    assert err <= 1e-5
    assert cost_rel <= 1e-9


def test_criterion_6_certified_bound_improvement(
    mpc_fixture, mpc_synth_fine, mpc_analysis
):
    """At tolerance 1e-5 the synthesized network is certifiably more robust
    than the reference: a strictly smaller gamma, held by a strict
    certificate, re-certified on the returned weights alone, with every
    weight inside the tolerance band."""
    _, _, net = mpc_fixture
    sol = mpc_synth_fine[0]
    gs = sol.certificate.gamma
    ga = mpc_analysis.certificate.gamma
    gr = analyze_network(
        sol.network, PAIR_SET, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0
    ).certificate.gamma
    dev = max_weight_deviation(sol.network, net)
    print(
        f"criterion 6: gamma_synth {gs:.4f} vs gamma_analysis {ga:.4f} "
        f"(ratio {gs / ga:.4f}), lmi margin {sol.certificate.lmi_margin:.2e}, "
        f"re-analysis gamma {gr:.6f}, max weight deviation {dev:.3e}"
    )
    # a drop must exceed the resolution at which criterion 3 calls two
    # gammas equal
    assert gs <= (1 - 1e-4) * ga
    assert sol.certificate.lmi_margin <= 0
    assert abs(gr - gs) <= 1e-4 * gs
    assert dev <= 1e-5 + 1e-6


@pytest.mark.parametrize(
    "fixture, gamma",
    [("mpc_synth_fine", 2.7468235504), ("mpc_synth_coarse", 1.0528861723),
     ("mpc_analysis", 2.8129770076)],
)
def test_paper_mpc_gammas_are_pinned(request, fixture, gamma):
    """The fine, coarse and analysis gammas, to 1e-7 relative."""
    sol = request.getfixturevalue(fixture)
    sol = sol[0] if isinstance(sol, tuple) else sol
    print(f"{fixture}: gamma {sol.certificate.gamma:.10f} against {gamma}")
    assert abs(sol.certificate.gamma - gamma) <= 1e-7 * gamma


@pytest.mark.parametrize(
    "fixture, iterations, capped",
    [("mpc_analysis", 20, False), ("mpc_synth_fine", 33, False),
     ("mpc_synth_coarse", 25, True)],
)
def test_paper_mpc_iteration_counts_are_pinned(request, fixture, iterations, capped):
    """The interior-point iteration counts of the analysis, the fine
    synthesis and the coarse synthesis's capped rung.  A change to the
    solver's arithmetic that is meant to be bit for bit keeps them; they
    were measured with numpy 2.4.6 and scipy 1.17.1, the versions CI
    installs."""
    sol = request.getfixturevalue(fixture)
    sol = sol[0] if isinstance(sol, tuple) else sol
    print(f"{fixture}: {sol.solver_result.iterations} iterations, {sol.status_label}")
    assert sol.solver_result.iterations == iterations
    assert sol.multiplier_capped is capped


@pytest.mark.parametrize(
    "eps, states, outputs",
    [(1e-2, [*range(5, 10), *range(15, 20)], [8, 9]), (1e-1, list(range(20)), [5, 6, 7, 8, 9])],
)
def test_runaway_multipliers_are_the_zeroable_rows(request, mpc_fixture, eps, states, outputs):
    """Where synthesize solves the capped program, the multipliers that run
    to the cap are exactly those of the rows the tolerance box can zero:
    their terms of the certificate can be made to vanish, so the uncapped
    optimum is an infimum."""
    _, _, net = mpc_fixture
    if eps == 1e-1:
        sol = request.getfixturevalue("mpc_synth_coarse")
    else:
        sol = synthesize(_pinned_gain_problem(net, eps))
    level = robsyn.synthesis._MULTIPLIER_CAP / 10
    big_states = np.flatnonzero(sol.multipliers.T_z > level).tolist()
    big_outputs = np.flatnonzero(sol.multipliers.T_g > level).tolist()
    print(f"eps {eps:g}: T_z above {level:g} at {big_states}, T_g at {big_outputs}")
    assert sol.multiplier_capped
    zeroable = robsyn.synthesis._zeroable_rows(net, SimilarityTolerances.uniform(eps))
    assert [rows.tolist() for rows in zeroable] == [states, outputs]
    assert (big_states, big_outputs) == (states, outputs)


def test_reanalysis_of_the_coarse_network_needs_the_capped_rung(mpc_synth_coarse, monkeypatch):
    """Certifying the coarse synthesized network as it is: the uncapped
    solve collapses and the capped rung certifies the synthesis gamma to
    the 1e-4 that perfbench's re-analysis check allows.  The network has no
    zeroable row at tolerance 0, since its weights are near zero but not
    exactly zero, so the uncapped program is tried first."""
    zeroable = robsyn.synthesis._zeroable_rows(
        mpc_synth_coarse.network, SimilarityTolerances.uniform(0.0)
    )
    assert not any(rows.size for rows in zeroable)
    results = []
    solve = robsyn.synthesis.solve_conic

    def record(program, options=None):
        results.append(solve(program, options))
        return results[-1]

    monkeypatch.setattr(robsyn.synthesis, "solve_conic", record)
    again = analyze_network(
        mpc_synth_coarse.network, PAIR_SET, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0
    )
    gamma, gamma_again = mpc_synth_coarse.certificate.gamma, again.certificate.gamma
    print(f"re-analysis: {[(r.status.value, r.iterations) for r in results]}, gamma {gamma_again}")
    assert [(r.status, r.iterations) for r in results] == [
        (SolverStatus.NUMERICAL_FAILURE, 78), (SolverStatus.OPTIMAL, 23)
    ]
    assert results[0].detail.startswith("step length collapsed")
    assert again.multiplier_capped
    assert abs(gamma_again - gamma) <= 1e-4 * gamma


def test_synthesized_mpc_networks_stay_exactly_odd(mpc_fixture, mpc_synth_fine, mpc_synth_coarse):
    """The reference MPC law is odd; the synthesized networks keep the three
    weight identities bit for bit."""
    _, _, net = mpc_fixture
    pi = np.r_[10:20, 0:10]
    for sol in (mpc_synth_fine[0], mpc_synth_coarse):
        syn = sol.network
        assert np.array_equal(syn.W_x[np.ix_(pi, pi)], syn.W_x)
        assert np.array_equal(syn.W_u[pi], -syn.W_u)
        assert np.array_equal(syn.W_fx[:, pi], -syn.W_fx)
        assert not np.array_equal(syn.W_x, net.W_x)


def test_synthesis_at_2e5_ends_clean(mpc_fixture):
    """At tolerance 2e-5 and solver tolerances 1e-8 the solve meets its
    tolerances instead of returning a best iterate, in the pinned 36
    iterations (see test_paper_mpc_iteration_counts_are_pinned)."""
    _, _, net = mpc_fixture
    sol = synthesize(
        _pinned_gain_problem(net, 2e-5),
        options=SolverOptions(feas_tol=1e-8, gap_tol=1e-8),
    )
    print(f"eps 2e-5: {sol.status_label}, {sol.solver_result.iterations} iterations")
    assert sol.status_label == "optimal"
    assert sol.solver_result.iterations == 36


def test_criterion_7_tradeoff_sweep(mpc_fixture, mpc_sweep):
    _, _, net = mpc_fixture
    rows = mpc_sweep
    assert [r.eps for r in rows] == SWEEP_GRID
    assert all(r.status.startswith("optimal") for r in rows)
    gammas = [r.gamma for r in rows]
    for a, b in zip(gammas, gammas[1:]):
        assert b <= a + 1e-6
    drops = [
        (rows[i + 1].eps, 1.0 - gammas[i + 1] / gammas[i])
        for i in range(len(rows) - 1)
        if gammas[i] > 0 and gammas[i + 1] <= 0.5 * gammas[i]
    ]
    print(f"criterion 7: gammas {[f'{g:.4f}' for g in gammas]}, drop points {drops}")
    assert drops, "no adjacent grid points with a >= 50% drop in gamma"
    eps_star = drops[0][0]
    sol = synthesize(_pinned_gain_problem(net, eps_star))
    out_max = max(
        float(np.max(np.abs(sol.network.W_fx))), float(np.max(np.abs(sol.network.W_fu)))
    )
    print(f"criterion 7: at eps*={eps_star:g} max |output weight| = {out_max:.3e}")
    assert out_max <= eps_star + 1e-6


def test_criterion_8_closed_loop_fidelity(mpc_fixture, mpc_synth_fine, mpc_synth_coarse):
    problem = mpc_fixture[0]
    w0 = np.array([1.0, -1.0])
    W_ref, _ = simulate_closed_loop(problem, w0, 30)
    devs = {}
    for label, sol in (("fine", mpc_synth_fine[0]), ("coarse", mpc_synth_coarse)):
        net = sol.network
        W_net, _ = simulate_closed_loop(
            problem, w0, 30, controller=lambda w: evaluate(net, w).g
        )
        devs[label] = float(np.max(np.abs(W_ref - W_net)))
    print(
        f"criterion 8: trajectory deviation fine {devs['fine']:.3e}, "
        f"coarse {devs['coarse']:.3e}"
    )
    assert devs["fine"] <= 1e-2
    assert devs["coarse"] >= 10 * 1e-2


def test_criterion_9_performance_envelope(mpc_synth_fine):
    sol, solve_seconds = mpc_synth_fine
    suite_seconds = time.perf_counter() - _T0
    print(
        f"criterion 9: full-size synthesis {solve_seconds:.2f}s "
        f"({sol.solver_result.iterations} iterations), "
        f"suite so far {suite_seconds:.1f}s"
    )
    # the time counts only for a solve that met its tolerances, not for a
    # best-iterate fallback
    assert sol.solver_result.detail == ""
    assert solve_seconds < 10.0
    assert suite_seconds < 600.0
