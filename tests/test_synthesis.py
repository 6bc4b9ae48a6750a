"""Tests for the joint synthesis program.

The PSD block is derived from the multiplier module's certificate matrix,
so the assembly is checked by evaluating the derived block at random
decision vectors against the certificate matrix evaluated there directly
(the certificate itself is pinned by the frozen-entry and scalar-form tests
of the multiplier module).  Extraction is checked against hand-computable
instances, and soundness by sampling input pairs.
"""

import numpy as np
import pytest
from helpers import random_well_posed_network

from robsyn import evaluate
import robsyn.synthesis
from robsyn.conic import SolverResult, SolverStatus, solve_conic
from robsyn.errors import Infeasible
from robsyn.mpc import (
    MpcProblem,
    condense_qp,
    qp_to_implicit_network,
    reference_mpc_problem,
)
from robsyn.multipliers import Dims, InputPairSet, MultiplierSet, certificate_matrix
from robsyn.network import Activation, ImplicitNetwork
from robsyn.synthesis import (
    ObjectiveWeights,
    SimilarityTolerances,
    SynthesisProblem,
    _unpack,
    analyze_network,
    assemble_synthesis_sdp,
    layout_variables,
    synthesize,
)

Z = np.zeros

UNIFORM = SimilarityTolerances.uniform(0.1)
ZERO = SimilarityTolerances.uniform(0.0)
MIXED = SimilarityTolerances(w_x=0.0, w_u=0.1, w_fx=0.05, w_fu=0.2)


def small_problem(net, eps, U=None, **kw):
    return SynthesisProblem(
        network=net,
        input_set=U or InputPairSet(1.0, 1.0),
        tolerances=SimilarityTolerances.uniform(eps),
        **kw,
    )


class TestLayout:
    def test_counts_small(self):
        d = Dims(1, 1, 1)
        assert layout_variables(d, UNIFORM).num_vars == 11
        assert layout_variables(d, ZERO).num_vars == 7
        assert layout_variables(d, MIXED).num_vars == 10

    def test_counts_reference_bridge(self):
        d = Dims(20, 2, 10)
        assert layout_variables(d, UNIFORM).num_vars == 695
        assert layout_variables(d, ZERO).num_vars == 35
        assert layout_variables(d, MIXED).num_vars == 695 - 400

    def test_slices_partition_the_vector(self):
        d = Dims(3, 2, 4)
        L = layout_variables(d, UNIFORM)
        covered = set()
        for sl in (L.sl_T_z, L.sl_T_g, L.sl_D_z, L.sl_D_u, L.sl_D_gz, L.sl_D_gu):
            block = set(range(sl.start, sl.stop))
            assert not block & covered
            covered |= block
        covered |= {L.idx_T_u1, L.idx_T_u2, L.idx_gamma, L.idx_gamma_u1, L.idx_gamma_u2}
        assert covered == set(range(L.num_vars))


class TestAssembly:
    @pytest.mark.parametrize("seed", range(5))
    def test_psd_map_matches_direct_construction(self, seed):
        # evaluate the assembled PSD block at random positive theta and
        # compare with the certificate matrix at the same decision vector,
        # for uniform, all-zero and mixed tolerances
        net = random_well_posed_network(seed, n=3, n_u=2, n_g=2)
        d = Dims.of(net)
        U = InputPairSet(0.7, 1.3)
        rng = np.random.default_rng(100 + seed)
        for tol in (UNIFORM, ZERO, MIXED):
            prob = SynthesisProblem(network=net, input_set=U, tolerances=tol)
            program, L = assemble_synthesis_sdp(prob)
            theta = rng.uniform(0.1, 2.0, size=L.num_vars)
            mults, gammas, Y, D = _unpack(prob, L, theta)
            # the products are T W + D, or T W where the tolerance is zero
            T_z, T_g = theta[L.sl_T_z], theta[L.sl_T_g]
            for W, T, sl, eps, got in (
                (net.W_x, T_z, L.sl_D_z, tol.w_x, Y[0]),
                (net.W_u, T_z, L.sl_D_u, tol.w_u, Y[1]),
                (net.W_fx, T_g, L.sl_D_gz, tol.w_fx, Y[2]),
                (net.W_fu, T_g, L.sl_D_gu, tol.w_fu, Y[3]),
            ):
                expect = T[:, None] * W
                if eps > 0:
                    expect = expect + theta[sl].reshape(W.shape)
                else:
                    assert sl.start == sl.stop
                assert np.array_equal(got, expect)
            M = certificate_matrix(d, mults, U, *gammas, *Y)
            S = program.psd_blocks[0].evaluate(theta)
            expected = -M - prob.strictness_shift * np.eye(d.N_p)
            np.testing.assert_allclose(S, expected, atol=1e-14, err_msg=str(tol))

    @pytest.mark.parametrize("seed", range(5))
    def test_analysis_psd_map_matches_direct_construction(self, seed):
        net = random_well_posed_network(seed, n=3, n_u=2, n_g=2)
        d = Dims.of(net)
        U = InputPairSet(0.7, 1.3)
        prob = small_problem(net, 0.0, U)
        program, L = assemble_synthesis_sdp(prob)
        assert L.num_vars == d.n + d.n_g + 5
        rng = np.random.default_rng(200 + seed)
        theta = rng.uniform(0.1, 2.0, size=L.num_vars)
        T_z, T_g = theta[L.sl_T_z], theta[L.sl_T_g]
        mults = MultiplierSet(T_z=T_z, T_g=T_g, T_u1=theta[L.idx_T_u1], T_u2=theta[L.idx_T_u2])
        M = certificate_matrix(
            d, mults, U,
            theta[L.idx_gamma], theta[L.idx_gamma_u1], theta[L.idx_gamma_u2],
            T_z[:, None] * net.W_x, T_z[:, None] * net.W_u,
            T_g[:, None] * net.W_fx, T_g[:, None] * net.W_fu,
        )
        S = program.psd_blocks[0].evaluate(theta)
        expected = -M - prob.strictness_shift * np.eye(d.N_p)
        np.testing.assert_allclose(S, expected, atol=1e-13)

    def test_zero_tolerance_blocks_add_no_variables_or_rows(self):
        # a block with tolerance zero has no deviation variables and no
        # weight rows; a block with a positive tolerance has one pair of
        # rows +-D_ij - eps t_i <= 0 per entry
        net = random_well_posed_network(3, n=2, n_u=1, n_g=1)
        floor_rows = net.n + net.n_g + 2 + 3  # T floors, T_u >= 0, gammas >= 0
        base = small_problem(net, 0.0)
        program, L = assemble_synthesis_sdp(base)
        assert L.num_vars == net.n + net.n_g + 5
        assert len(program.equalities) == 0
        assert len(program.inequalities) == floor_rows
        mixed = SynthesisProblem(
            network=net, input_set=base.input_set,
            tolerances=SimilarityTolerances(w_x=0.0, w_u=1e-3, w_fx=0.0, w_fu=2e-3),
        )
        program, L = assemble_synthesis_sdp(mixed)
        assert L.sl_D_z.start == L.sl_D_z.stop and L.sl_D_gz.start == L.sl_D_gz.stop
        n_dev = net.n * net.n_u + net.n_g * net.n_u
        assert L.num_vars == net.n + net.n_g + 5 + n_dev
        assert len(program.equalities) == 0
        assert len(program.inequalities) == floor_rows + 2 * n_dev
        for a, r in program.inequalities[: 2 * n_dev]:
            nz = np.flatnonzero(a)
            assert r == 0.0 and len(nz) == 2
            assert abs(a[nz[1]]) == 1.0 and a[nz[0]] in (-1e-3, -2e-3)

    def test_capped_assembly_adds_upper_bound_rows(self):
        # one extra row per diagonal multiplier, unit coefficient, rhs t_cap;
        # everything else identical to the uncapped program
        net = random_well_posed_network(5, n=3, n_u=2, n_g=2)
        prob = small_problem(net, 0.1, t_cap=50.0)
        base, L = assemble_synthesis_sdp(prob)
        capped, _ = assemble_synthesis_sdp(prob, capped=True)
        t_indices = (
            set(range(L.sl_T_z.start, L.sl_T_z.stop))
            | set(range(L.sl_T_g.start, L.sl_T_g.stop))
            | {L.idx_T_u1, L.idx_T_u2}
        )
        assert len(capped.inequalities) == len(base.inequalities) + len(t_indices)
        assert len(capped.equalities) == len(base.equalities)
        extras = [(a, r) for (a, r) in capped.inequalities if r == 50.0]
        assert len(extras) == len(t_indices)
        hit = set()
        for a, r in extras:
            nz = np.flatnonzero(a)
            assert len(nz) == 1 and a[nz[0]] == 1.0
            hit.add(int(nz[0]))
        assert hit == t_indices

    def test_cap_rows_do_not_bind_on_resolvable_instances(self):
        net = random_well_posed_network(42, n=3, n_u=2, n_g=2)
        prob = small_problem(net, 0.05)
        base = synthesize(prob)
        assert not base.multiplier_capped
        program, _ = assemble_synthesis_sdp(prob, capped=True)
        res = solve_conic(program)
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective_value == pytest.approx(
            base.certificate.objective_value, rel=1e-4
        )

    def test_validation(self):
        net = random_well_posed_network(0, n=2, n_u=1, n_g=1)
        with pytest.raises(ValueError):
            SimilarityTolerances(w_x=-0.1)
        with pytest.raises(ValueError):
            ObjectiveWeights(gamma=0.0, gamma_u1=0.0, gamma_u2=0.0)
        with pytest.raises(ValueError):
            ObjectiveWeights(gamma=-1.0)
        with pytest.raises(ValueError):
            small_problem(net, 0.0, strictness_shift=0.0)
        with pytest.raises(ValueError):
            small_problem(net, 0.0, t_floor=-1.0)
        with pytest.raises(ValueError):
            small_problem(net, 0.0, t_cap=1e-7)
        with pytest.raises(ValueError):
            small_problem(net, 0.0, fixed_gamma_u1=-0.5)
        steep = ImplicitNetwork(
            W_x=Z((1, 1)), W_u=Z((1, 1)), W_fx=Z((1, 1)), W_fu=Z((1, 1)),
            b=Z(1), b_f=Z(1),
            activation=Activation.custom(lambda s: 2 * s, slope_lo=0.0, slope_hi=2.0),
        )
        with pytest.raises(ValueError):
            small_problem(steep, 0.0)


class TestAnalysis:
    def test_identity_feedthrough_value(self):
        # g(u) = u with no effective state; the lifted relaxation certifies
        # the 1-norm gain at objective value 2 over the set (1, 2)
        net = ImplicitNetwork(
            W_x=Z((1, 1)), W_u=Z((1, 2)), W_fx=Z((2, 1)), W_fu=np.eye(2),
            b=Z(1), b_f=Z(2), activation=Activation.relu(),
        )
        sol = analyze_network(net, InputPairSet(1.0, 2.0))
        assert sol.certificate.objective_value == pytest.approx(2.0, abs=1e-5)
        assert not sol.strictness_relaxed
        # the certified bound must dominate the true gap everywhere
        rng = np.random.default_rng(0)
        for _ in range(100):
            ud = rng.uniform(-0.5, 0.5, size=2)
            assert sol.certificate.bound(ud) >= np.sum(np.abs(ud)) - 1e-9

    def test_zero_output_network(self):
        net = ImplicitNetwork(
            W_x=0.3 * np.eye(2), W_u=Z((2, 1)), W_fx=Z((1, 2)), W_fu=Z((1, 1)),
            b=Z(2), b_f=Z(1), activation=Activation.relu(),
        )
        sol = analyze_network(net, InputPairSet(1.0, 1.0))
        assert 0.0 <= sol.certificate.gamma <= 1e-5
        assert sol.certificate.objective_value <= 1e-5

    def test_not_well_posed_network_is_infeasible(self):
        bad = ImplicitNetwork(
            W_x=2.0 * np.eye(2), W_u=Z((2, 1)), W_fx=Z((1, 2)), W_fu=Z((1, 1)),
            b=Z(2), b_f=Z(1), activation=Activation.relu(),
        )
        with pytest.raises(Infeasible):
            analyze_network(bad, InputPairSet(1.0, 1.0))

    def test_fixed_gains_are_pinned(self):
        net = random_well_posed_network(7, n=3, n_u=2, n_g=2)
        sol = analyze_network(
            net, InputPairSet(1.0, 1.0), fixed_gamma_u1=0.0, fixed_gamma_u2=0.0
        )
        assert abs(sol.certificate.gamma_u1) <= 1e-9
        assert abs(sol.certificate.gamma_u2) <= 1e-9
        assert sol.certificate.gamma > 0

    def test_marginal_instance_falls_back_to_relaxed_margin(self):
        # horizon-1 bridge network: the state map is neutral on a fixed
        # direction, so the strictly shifted program has no solution and the
        # relaxed pass must engage
        ref = reference_mpc_problem()
        prob = MpcProblem(A=ref.A, B=ref.B, Q=ref.Q, R=ref.R, P=ref.P,
                          horizon=1, v_bound=10.0)
        net = qp_to_implicit_network(condense_qp(prob), attach_hint=False)
        sol = analyze_network(
            net, InputPairSet(1.0, 1.0), fixed_gamma_u1=0.0, fixed_gamma_u2=0.0
        )
        assert sol.strictness_relaxed
        assert sol.status_label == "optimal (relaxed margin)"
        assert sol.certificate.gamma == pytest.approx(0.7385, abs=2e-3)
        assert sol.certificate.lmi_margin <= 9e-8

    def test_certificate_is_sound_on_samples(self):
        net = random_well_posed_network(11, n=4, n_u=2, n_g=3)
        U = InputPairSet(1.0, 1.0)
        sol = analyze_network(net, U)
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = rng.standard_normal(2)
            d *= min(1.0 / np.sum(np.abs(d)), 1.0 / np.linalg.norm(d)) * rng.uniform(0, 1)
            u1 = rng.uniform(-2, 2, size=2)
            g1 = evaluate(net, u1).g
            g2 = evaluate(net, u1 + d).g
            lhs = float(np.sum(np.abs(g2 - g1)))
            assert lhs <= sol.certificate.bound(d) + 1e-7


class TestSynthesis:
    def test_zero_tolerance_collapses_to_reference(self):
        net = random_well_posed_network(42, n=3, n_u=2, n_g=2)
        U = InputPairSet(1.0, 1.0)
        ss = synthesize(small_problem(net, 0.0, U))
        for blk, ref in (
            (ss.network.W_x, net.W_x), (ss.network.W_u, net.W_u),
            (ss.network.W_fx, net.W_fx), (ss.network.W_fu, net.W_fu),
        ):
            np.testing.assert_allclose(blk, ref, atol=1e-6)
        sa = analyze_network(net, U)
        assert ss.certificate.objective_value == pytest.approx(
            sa.certificate.objective_value, rel=1e-4
        )

    def test_objective_nonincreasing_in_tolerance(self):
        net = random_well_posed_network(42, n=3, n_u=2, n_g=2)
        vals = [
            synthesize(small_problem(net, eps)).certificate.objective_value
            for eps in (0.0, 0.05, 0.2)
        ]
        assert vals[0] + 1e-7 >= vals[1] >= vals[2] - 1e-7
        assert vals[2] < vals[0]

    def test_frozen_objective_values(self):
        # frozen from the locked assembly convention on seed-42 fixture
        net = random_well_posed_network(42, n=3, n_u=2, n_g=2)
        s0 = synthesize(small_problem(net, 0.0))
        s1 = synthesize(small_problem(net, 0.05))
        assert s0.certificate.objective_value == pytest.approx(3.275418, abs=2e-4)
        assert s1.certificate.objective_value == pytest.approx(2.787214, abs=2e-4)

    def test_weights_stay_within_tolerance_band(self):
        net = random_well_posed_network(9, n=3, n_u=2, n_g=2)
        eps = 0.05
        ss = synthesize(small_problem(net, eps))
        for blk, ref in (
            (ss.network.W_x, net.W_x), (ss.network.W_u, net.W_u),
            (ss.network.W_fx, net.W_fx), (ss.network.W_fu, net.W_fu),
        ):
            assert np.max(np.abs(blk - ref)) <= eps + 1e-6

    def test_synthesized_certificate_is_sound_on_samples(self):
        net = random_well_posed_network(13, n=3, n_u=2, n_g=2)
        U = InputPairSet(1.0, 1.0)
        ss = synthesize(small_problem(net, 0.05, U))
        rng = np.random.default_rng(6)
        for _ in range(300):
            d = rng.standard_normal(2)
            d *= min(1.0 / np.sum(np.abs(d)), 1.0 / np.linalg.norm(d)) * rng.uniform(0, 1)
            u1 = rng.uniform(-2, 2, size=2)
            g1 = evaluate(ss.network, u1).g
            g2 = evaluate(ss.network, u1 + d).g
            lhs = float(np.sum(np.abs(g2 - g1)))
            assert lhs <= ss.certificate.bound(d) + 1e-7

    def test_lmi_margin_respects_shift(self):
        net = random_well_posed_network(21, n=3, n_u=1, n_g=2)
        ss = synthesize(small_problem(net, 0.1))
        # strict pass succeeded, so the margin sits at the shift up to solver slop
        assert not ss.strictness_relaxed
        assert ss.status_label == "optimal"
        assert ss.certificate.lmi_margin < 0
        assert ss.certificate.lmi_margin <= -1e-8 + 1e-7

    def test_multipliers_respect_floor(self):
        net = random_well_posed_network(30, n=3, n_u=2, n_g=2)
        ss = synthesize(small_problem(net, 0.05))
        assert np.all(ss.multipliers.T_z >= 1e-6 - 1e-9)
        assert np.all(ss.multipliers.T_g >= 1e-6 - 1e-9)
        assert ss.multipliers.T_u1 >= 0
        assert ss.multipliers.T_u2 >= 0

    def test_infeasible_when_tolerance_cannot_fix_bad_state_map(self):
        bad = ImplicitNetwork(
            W_x=2.0 * np.eye(2), W_u=Z((2, 1)), W_fx=Z((1, 2)), W_fu=Z((1, 1)),
            b=Z(2), b_f=Z(1), activation=Activation.relu(),
        )
        with pytest.raises(Infeasible):
            synthesize(small_problem(bad, 1e-4))

    def test_large_tolerance_rescues_bad_state_map(self):
        # with enough freedom the synthesized state map can contract even
        # though the reference does not
        bad = ImplicitNetwork(
            W_x=1.05 * np.eye(2), W_u=Z((2, 1)), W_fx=Z((1, 2)), W_fu=Z((1, 1)),
            b=Z(2), b_f=Z(1), activation=Activation.relu(),
        )
        ss = synthesize(small_problem(bad, 0.5))
        assert ss.certificate.objective_value <= 1e-4
        assert np.max(np.abs(ss.network.W_x - bad.W_x)) <= 0.5 + 1e-6


    def test_zero_tolerance_blocks_come_back_exactly(self):
        net = random_well_posed_network(9, n=3, n_u=2, n_g=2)
        prob = SynthesisProblem(
            network=net, input_set=InputPairSet(1.0, 1.0), tolerances=MIXED
        )
        ss = synthesize(prob)
        assert np.array_equal(ss.network.W_x, net.W_x)
        for blk, ref, eps in (
            (ss.network.W_u, net.W_u, MIXED.w_u),
            (ss.network.W_fx, net.W_fx, MIXED.w_fx),
            (ss.network.W_fu, net.W_fu, MIXED.w_fu),
        ):
            assert np.max(np.abs(blk - ref)) <= eps + 1e-6

    def test_zero_tolerance_synthesis_is_analysis(self, monkeypatch):
        # on the paper-MPC network, synthesis with every tolerance zero hands
        # the solver the same 35-variable programs as analysis
        net = qp_to_implicit_network(
            condense_qp(reference_mpc_problem()), attach_hint=False
        )
        U = InputPairSet(1.0, 1.0)
        seen = []
        solve = robsyn.synthesis.solve_conic

        def record(program, options=None, backend="bundled"):
            blk = program.psd_blocks[0]
            seen[-1].append((
                program.num_vars,
                program.objective,
                [a for a, _ in program.inequalities], [r for _, r in program.inequalities],
                [a for a, _ in program.equalities], [r for _, r in program.equalities],
                blk.constant_matrix(), blk.coefficient_stack(program.num_vars),
            ))
            return solve(program, options, backend)

        monkeypatch.setattr(robsyn.synthesis, "solve_conic", record)
        seen.append([])
        ss = synthesize(
            SynthesisProblem(
                network=net, input_set=U, tolerances=ZERO,
                fixed_gamma_u1=0.0, fixed_gamma_u2=0.0,
            )
        )
        seen.append([])
        sa = analyze_network(net, U, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0)
        assert len(seen[0]) == len(seen[1]) >= 1
        for a, b in zip(*seen):
            assert a[0] == b[0] == 35
            for x, y in zip(a[1:], b[1:]):
                assert np.array_equal(np.asarray(x), np.asarray(y))
        assert ss.certificate.gamma == sa.certificate.gamma


class TestStatusLabel:
    def test_reduced_accuracy_is_named(self):
        net = random_well_posed_network(21, n=3, n_u=1, n_g=2)
        sol = synthesize(small_problem(net, 0.1))
        assert sol.status_label == "optimal"
        r = sol.solver_result
        sol.solver_result = SolverResult(
            status=SolverStatus.OPTIMAL,
            theta=r.theta,
            objective_value=r.objective_value,
            max_eig_violation=r.max_eig_violation,
            ineq_violation=r.ineq_violation,
            eq_residual=r.eq_residual,
            iterations=r.iterations,
            detail="terminated at reduced accuracy (pres 1.9e-09, dres 2.6e-08, relgap 4.4e-11)",
        )
        assert sol.status_label == "optimal (reduced accuracy)"
        sol.strictness_relaxed = True
        assert sol.status_label == "optimal (reduced accuracy, relaxed margin)"
        assert sol.status_label.startswith("optimal")


class TestObjectiveWeights:
    def test_weight_emphasis_shifts_the_split(self):
        net = random_well_posed_network(17, n=3, n_u=2, n_g=2)
        U = InputPairSet(1.0, 1.0)
        heavy_gamma = analyze_network(
            net, U, weights=ObjectiveWeights(gamma=10.0, gamma_u1=1.0, gamma_u2=1.0)
        )
        c = heavy_gamma.certificate
        # penalizing gamma pushes the certificate onto the input-dependent terms
        assert c.gamma <= c.gamma_u1 + c.gamma_u2 + 1e-6
