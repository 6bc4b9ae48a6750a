"""Tests for the joint synthesis program.

The PSD block is derived from the multiplier module's certificate matrix,
so the assembly is checked by evaluating the derived block at random
decision vectors against the certificate matrix evaluated there directly
(the certificate itself is pinned by the frozen-entry and scalar-form tests
of the multiplier module).  Extraction is checked against hand-computable
instances, and soundness by sampling input pairs.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from helpers import (
    assert_bit_identical,
    assert_fixed_pattern_products_match_scipy,
    block_value,
    random_well_posed_network,
    use_scipy_route,
    verify_solution,
)

from robsyn import evaluate
import robsyn.synthesis
from robsyn.conic import (
    SolverOptions,
    SolverResult,
    SolverStatus,
    _ConeData,
    _DenseGram,
    _SparseGram,
    solve_conic,
)
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
    SimilarityTolerances,
    SynthesisProblem,
    _MULTIPLIER_CAP,
    _STRICTNESS_SHIFT,
    _UNCAPPED_ITER_BUDGET,
    _box_zeroes_a_row,
    _unpack,
    _with_multiplier_cap,
    _zeroable_rows,
    analyze_network,
    assemble_synthesis_sdp,
    layout_variables,
    odd_symmetry,
    synthesize,
)
from robsyn.verification import SampleSpec, empirical_bound_check

Z = np.zeros
NAN = float("nan")
INF = float("inf")

UNIFORM = SimilarityTolerances.uniform(0.1)
ZERO = SimilarityTolerances.uniform(0.0)
MIXED = SimilarityTolerances(w_x=0.0, w_u=0.1, w_fx=0.05, w_fu=0.2)


# each parameter checked for infinity, and a build that passes it inf
BUILT_WITH_INF = {
    "w_x": lambda net: SimilarityTolerances.uniform(INF),
    "w_fu": lambda net: SimilarityTolerances(w_fu=INF),
    "eps_u1": lambda net: InputPairSet(INF, 1.0),
    "eps_u2": lambda net: InputPairSet(1.0, INF),
    "fixed_gamma_u1": lambda net: small_problem(net, 0.0, fixed_gamma_u1=INF),
    "fixed_gamma_u2": lambda net: small_problem(net, 0.0, fixed_gamma_u2=INF),
}


def count_solves(monkeypatch):
    """(program, options, result) of each solve that synthesize makes,
    recorded as it runs."""
    calls = []
    solve = robsyn.synthesis.solve_conic

    def counted(program, options=None):
        calls.append((program, options, solve(program, options)))
        return calls[-1][2]

    monkeypatch.setattr(robsyn.synthesis, "solve_conic", counted)
    return calls


def stacked_bound(cert, D):
    """cert.bound of each row of D from one stacked call, checked row by row
    against the single-difference call, bit for bit."""
    B = cert.bound(D)
    assert B.shape == (len(D),)
    assert np.array_equal(B, [cert.bound(d) for d in D])
    return B


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
        # W_x has 20 * 21 / 2 merged pairs, not 400 entries
        assert layout_variables(d, UNIFORM).num_vars == 505
        assert layout_variables(d, ZERO).num_vars == 35
        assert layout_variables(d, MIXED).num_vars == 295

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
                if eps > 0 and W is net.W_x:
                    # one merged variable per pair i <= j, upper triangle
                    D = np.zeros(W.shape)
                    D[np.triu_indices(W.shape[0])] = theta[sl]
                    expect = expect + D
                elif eps > 0:
                    expect = expect + theta[sl].reshape(W.shape)
                else:
                    assert sl.start == sl.stop
                assert np.array_equal(got, expect)
            M = certificate_matrix(d, mults, U, *gammas, *Y)
            S = block_value(program.psd_blocks[0], theta)
            expected = -M - _STRICTNESS_SHIFT * np.eye(d.N_p)
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
        S = block_value(program.psd_blocks[0], theta)
        expected = -M - _STRICTNESS_SHIFT * np.eye(d.N_p)
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
        rows = program.inequalities
        for a, r in zip(rows.coeffs.toarray()[: 2 * n_dev], rows.rhs):
            nz = np.flatnonzero(a)
            assert r == 0.0 and len(nz) == 2
            assert abs(a[nz[1]]) == 1.0 and a[nz[0]] in (-1e-3, -2e-3)

    def test_capped_assembly_adds_upper_bound_rows(self):
        # one extra row per diagonal multiplier, unit coefficient, rhs the
        # cap; everything else identical to the uncapped program
        net = random_well_posed_network(5, n=3, n_u=2, n_g=2)
        prob = small_problem(net, 0.1)
        base, L = assemble_synthesis_sdp(prob)
        capped = _with_multiplier_cap(prob, base, L)
        t_indices = (
            set(range(L.sl_T_z.start, L.sl_T_z.stop))
            | set(range(L.sl_T_g.start, L.sl_T_g.stop))
            | {L.idx_T_u1, L.idx_T_u2}
        )
        assert len(capped.inequalities) == len(base.inequalities) + len(t_indices)
        assert len(capped.equalities) == len(base.equalities)
        rows = capped.inequalities
        extras = rows.coeffs.toarray()[rows.rhs == _MULTIPLIER_CAP]
        assert len(extras) == len(t_indices)
        hit = set()
        for a in extras:
            nz = np.flatnonzero(a)
            assert len(nz) == 1 and a[nz[0]] == 1.0
            hit.add(int(nz[0]))
        assert hit == t_indices

    def test_cap_rows_do_not_bind_on_resolvable_instances(self):
        net = random_well_posed_network(42, n=3, n_u=2, n_g=2)
        prob = small_problem(net, 0.05)
        base = synthesize(prob)
        assert not base.multiplier_capped
        program = _with_multiplier_cap(prob, *assemble_synthesis_sdp(prob))
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
            small_problem(net, 0.0, fixed_gamma_u1=-0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda net: SimilarityTolerances.uniform(NAN),
            lambda net: SimilarityTolerances(w_fu=NAN),
            lambda net: InputPairSet(NAN, 1.0),
            lambda net: InputPairSet(1.0, NAN),
            lambda net: SolverOptions(feas_tol=NAN),
            lambda net: SolverOptions(gap_tol=NAN),
            lambda net: SolverOptions(max_iters=NAN),
            lambda net: small_problem(net, 0.0, fixed_gamma_u1=NAN),
            lambda net: small_problem(net, 0.0, fixed_gamma_u2=NAN),
        ],
        ids=[
            "tolerances.uniform",
            "tolerances.w_fu",
            "pairset.eps_u1",
            "pairset.eps_u2",
            "solver.feas_tol",
            "solver.gap_tol",
            "solver.max_iters",
            "fixed_gamma_u1",
            "fixed_gamma_u2",
        ],
    )
    def test_validation_rejects_nan(self, build):
        # a comparison with NaN is false, so each check must fail unless the
        # value passes, not pass unless it fails
        with pytest.raises(ValueError):
            build(random_well_posed_network(0, n=2, n_u=1, n_g=1))

    @pytest.mark.parametrize("name", list(BUILT_WITH_INF))
    def test_validation_rejects_inf_naming_the_value(self, name):
        # an infinite parameter fails its own check, naming the value, not
        # later in the solver or in the PSD block's shape
        with pytest.raises(ValueError, match="finite") as raised:
            BUILT_WITH_INF[name](random_well_posed_network(0, n=2, n_u=1, n_g=1))
        assert name in str(raised.value) and "got inf" in str(raised.value)


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
        assert sol.status_label == "optimal"
        # the certified bound must dominate the true gap everywhere
        D = np.random.default_rng(0).uniform(-0.5, 0.5, size=(100, 2))
        assert np.all(stacked_bound(sol.certificate, D) >= np.sum(np.abs(D), axis=1) - 1e-9)

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

    def test_marginal_instance_is_solved_on_its_neutral_face(self, monkeypatch):
        # horizon-1 bridge network: the certificate matrix vanishes on a
        # fixed direction for every multiplier choice, so no strictly shifted
        # block exists; that direction is dropped from the block and one
        # strict solve certifies the rest
        ref = reference_mpc_problem()
        prob = MpcProblem(A=ref.A, B=ref.B, Q=ref.Q, R=ref.R, P=ref.P,
                          horizon=1, v_bound=10.0)
        net = qp_to_implicit_network(condense_qp(prob), attach_hint=False)
        calls = count_solves(monkeypatch)
        sol = analyze_network(
            net, InputPairSet(1.0, 1.0), fixed_gamma_u1=0.0, fixed_gamma_u2=0.0
        )
        assert len(calls) == 1
        # one of the 5 coordinates of the first block is the face
        assert [b.dim for b in calls[0][0].psd_blocks] == [4, 6]
        assert sol.solver_result.detail == ""
        assert sol.certificate.gamma == pytest.approx(0.7385, abs=2e-3)
        assert abs(sol.certificate.lmi_margin) <= 1e-12

    def test_certificate_is_sound_on_samples(self):
        net = random_well_posed_network(11, n=4, n_u=2, n_g=3)
        U = InputPairSet(1.0, 1.0)
        sol = analyze_network(net, U)
        rng = np.random.default_rng(5)
        D, lhs = [], []
        for _ in range(200):
            d = rng.standard_normal(2)
            d *= min(1.0 / np.sum(np.abs(d)), 1.0 / np.linalg.norm(d)) * rng.uniform(0, 1)
            u1 = rng.uniform(-2, 2, size=2)
            g1 = evaluate(net, u1).g
            g2 = evaluate(net, u1 + d).g
            D.append(d)
            lhs.append(float(np.sum(np.abs(g2 - g1))))
        assert np.all(np.array(lhs) <= stacked_bound(sol.certificate, np.array(D)) + 1e-7)


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
        D, lhs = [], []
        for _ in range(300):
            d = rng.standard_normal(2)
            d *= min(1.0 / np.sum(np.abs(d)), 1.0 / np.linalg.norm(d)) * rng.uniform(0, 1)
            u1 = rng.uniform(-2, 2, size=2)
            g1 = evaluate(ss.network, u1).g
            g2 = evaluate(ss.network, u1 + d).g
            D.append(d)
            lhs.append(float(np.sum(np.abs(g2 - g1))))
        assert np.all(np.array(lhs) <= stacked_bound(ss.certificate, np.array(D)) + 1e-7)

    def test_lmi_margin_respects_shift(self):
        net = random_well_posed_network(21, n=3, n_u=1, n_g=2)
        ss = synthesize(small_problem(net, 0.1))
        # the margin sits at the shift up to solver slop
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
        # the solver the same programs as analysis: 25 variables over the
        # orbits of the network's odd symmetry, and the same PSD blocks
        net = qp_to_implicit_network(
            condense_qp(reference_mpc_problem()), attach_hint=False
        )
        U = InputPairSet(1.0, 1.0)
        seen = []
        solve = robsyn.synthesis.solve_conic

        def record(program, options=None):
            seen[-1].append((
                program.num_vars,
                program.objective,
                program.inequalities.coeffs.toarray(), program.inequalities.rhs,
                program.equalities.coeffs.toarray(), program.equalities.rhs,
                *(blk.const for blk in program.psd_blocks),
                *(blk.coeffs.toarray() for blk in program.psd_blocks),
            ))
            return solve(program, options)

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
            assert a[0] == b[0] == 25
            assert len(a) == len(b)
            for x, y in zip(a[1:], b[1:]):
                assert np.array_equal(np.asarray(x), np.asarray(y))
        assert ss.certificate.gamma == sa.certificate.gamma


class TestMergedStatePairs:
    @pytest.mark.parametrize("seed", range(3))
    def test_split_stays_in_both_boxes_and_keeps_the_sums(self, seed):
        net = random_well_posed_network(60 + seed, n=4, n_u=2, n_g=2)
        eps = 0.05
        U = InputPairSet(1.0, 1.0)
        problem = small_problem(net, eps, U, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0)
        ss = synthesize(problem)
        assert ss.status_label == "optimal"
        # the split adds nothing to the row violation of the solver's point,
        # which a weight sees divided by its multipliers
        T = ss.multipliers.T_z
        program, _ = assemble_synthesis_sdp(problem)
        violation = verify_solution(program, ss.solver_result.theta).ineq_violation
        slack = violation / min(T.min(), ss.multipliers.T_g.min())
        for blk, ref in (
            (ss.network.W_x, net.W_x), (ss.network.W_u, net.W_u),
            (ss.network.W_fx, net.W_fx), (ss.network.W_fu, net.W_fu),
        ):
            assert np.max(np.abs(blk - ref)) <= eps + slack + 1e-12
        # T_i (Psi_ij - W_ij) + T_j (Psi_ji - W_ji) is the solved s_ij
        TD = T[:, None] * (ss.network.W_x - net.W_x)
        sums = np.triu(TD + TD.T, 1) + np.diag(np.diag(TD))
        s = ss.theta[ss.layout.sl_D_z]
        assert s.size == net.n * (net.n + 1) // 2
        np.testing.assert_allclose(sums[np.triu_indices(net.n)], s, rtol=1e-12, atol=1e-15)
        # the certificate belongs to the returned network alone
        sa = analyze_network(ss.network, U, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0)
        assert sa.certificate.gamma == pytest.approx(ss.certificate.gamma, rel=1e-4)

    def test_merged_rows_are_the_sum_of_both_boxes(self):
        net = random_well_posed_network(4, n=3, n_u=1, n_g=1)
        eps = 0.1
        program, L = assemble_synthesis_sdp(small_problem(net, eps))
        rows = program.inequalities.coeffs.toarray()[: 2 * (L.sl_D_z.stop - L.sl_D_z.start)]
        for k, (i, j) in enumerate(zip(*np.triu_indices(net.n))):
            for row, sign in zip(rows[2 * k : 2 * k + 2], (1.0, -1.0)):
                expect = np.zeros(L.num_vars)
                expect[L.sl_D_z.start + k] = sign
                expect[L.sl_T_z.start + i] -= eps
                if i != j:
                    expect[L.sl_T_z.start + j] -= eps
                assert np.array_equal(row, expect)


def program_digest(program):
    """SHA-256 prefix of every array of a conic program, in order.  The
    linear rows are read as dense rows, then their right-hand side; a PSD
    block as entry arrays: (i, j, value) of the nonzero upper entries of the
    constant, then (variable, i, j, value) of the coefficient rows'
    entries."""
    h = hashlib.sha256()
    arrays = [np.array([program.num_vars]), program.objective]
    for rows in (program.equalities, program.inequalities):
        arrays += [rows.coeffs.toarray(), rows.rhs]
    for blk in program.psd_blocks:
        iu = np.triu_indices(blk.dim)
        nz = np.flatnonzero(blk.const[iu])
        coo = blk.coeffs.tocoo()
        arrays += [
            np.array([blk.dim]), iu[0][nz], iu[1][nz], blk.const[iu][nz],
            coo.row, iu[0][coo.col], iu[1][coo.col], coo.data,
        ]
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(arr.astype(np.int64 if arr.dtype.kind == "i" else np.float64).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def mpc_net():
    return qp_to_implicit_network(condense_qp(reference_mpc_problem()), attach_hint=False)


def mpc_problem(net, eps):
    return SynthesisProblem(
        network=net, input_set=InputPairSet(1.0, 1.0),
        tolerances=SimilarityTolerances.uniform(eps),
        fixed_gamma_u1=0.0, fixed_gamma_u2=0.0,
    )


class TestOddSymmetry:
    def test_found_on_the_paper_mpc_network(self, mpc_net):
        pi = odd_symmetry(mpc_net)
        # the two halves of the 20 states swap
        assert np.array_equal(pi, np.r_[10:20, 0:10])
        assert np.array_equal(mpc_net.W_x[np.ix_(pi, pi)], mpc_net.W_x)
        assert np.array_equal(mpc_net.W_u[pi], -mpc_net.W_u)
        assert np.array_equal(mpc_net.W_fx[:, pi], -mpc_net.W_fx)

    @pytest.mark.parametrize("seed", range(3))
    def test_absent_from_random_networks(self, seed):
        assert odd_symmetry(random_well_posed_network(seed, n=4, n_u=2, n_g=3)) is None

    def test_absent_after_a_one_ulp_nudge(self, mpc_net):
        W_x = mpc_net.W_x.copy()
        i, j = np.argwhere(W_x != 0)[0]
        W_x[i, j] = np.nextafter(W_x[i, j], np.inf)
        assert odd_symmetry(replace(mpc_net, W_x=W_x)) is None

    def test_reduced_program_sizes(self, mpc_net):
        program, L = assemble_synthesis_sdp(mpc_problem(mpc_net, 1e-5))
        assert (L.num_vars, L.basis.shape) == (505, (505, 275))
        assert program.num_vars == 275
        assert len(program.inequalities) == 523
        assert len(program.equalities) == 2
        assert [b.dim for b in program.psd_blocks] == [23, 24]
        capped = _with_multiplier_cap(mpc_problem(mpc_net, 1e-5), program, L)
        assert len(capped.inequalities) == 545
        analysis, L0 = assemble_synthesis_sdp(mpc_problem(mpc_net, 0.0))
        assert (L0.num_vars, analysis.num_vars) == (35, 25)
        # the 10 coordinates of the neutral face leave the 23-block
        assert [b.dim for b in analysis.psd_blocks] == [13, 24]

    @pytest.mark.parametrize("eps", [1e-5, 0.0])
    def test_reduced_blocks_have_the_spectrum_of_the_full_block(self, mpc_net, eps):
        prob = mpc_problem(mpc_net, eps)
        program, L = assemble_synthesis_sdp(prob)
        phi = np.random.default_rng(3).uniform(0.1, 2.0, size=program.num_vars)
        mults, gammas, Y, _ = _unpack(prob, L, L.basis @ phi)
        M = certificate_matrix(L.dims, mults, prob.input_set, *gammas, *Y)
        Q = np.eye(L.dims.N_p)
        if eps == 0.0:
            # the neutral face, [a; a] in the z slice: the constant and every
            # coefficient of the program vanish on it, and the reduced blocks
            # carry the full block on its complement
            half = np.arange(L.dims.n // 2) + L.dims.sl_z.start
            face = np.zeros((L.dims.N_p, half.size))
            cols = np.arange(half.size)
            face[half, cols] = face[half + half.size, cols] = np.sqrt(0.5)
            m, g, y, _ = _unpack(
                prob, L, np.vstack([np.zeros(L.num_vars), L.basis.T.toarray()])
            )
            A = certificate_matrix(L.dims, m, prob.input_set, *g, *y)
            A[1:] -= A[0]
            assert np.max(np.abs(A @ face)) <= 1e-15
            Q = scipy.linalg.null_space(face.T)
        full = np.linalg.eigvalsh(Q.T @ (-M - _STRICTNESS_SHIFT * np.eye(L.dims.N_p)) @ Q)
        reduced = np.sort(np.concatenate(
            [np.linalg.eigvalsh(block_value(blk, phi)) for blk in program.psd_blocks]
        ))
        np.testing.assert_allclose(reduced, full, rtol=0, atol=1e-12)

    def test_solver_result_is_what_the_solver_returned(self, mpc_net):
        # the solver's point in the program's own orbit coordinates, which
        # checks against the program; sol.theta is that point expanded
        prob = mpc_problem(mpc_net, 1e-5)
        program, L = assemble_synthesis_sdp(prob)
        sol = synthesize(prob, TIGHT)
        phi = sol.solver_result.theta
        assert phi.shape == (program.num_vars,) == (275,)
        assert verify_solution(program, phi).ok(1e-6)
        assert_bit_identical(sol.theta, L.basis @ phi)

    @pytest.mark.parametrize("capped", [False, True])
    def test_rows_are_made_once_per_orbit(self, mpc_net, monkeypatch, capped):
        # the program assembled in theta, reduced by the orbit basis, has
        # exactly the orbit program's rows, each once and in the same order:
        # a mirrored variable's rows are its leader's, so they are not made
        prob = mpc_problem(mpc_net, 1e-5)
        program, L = assemble_synthesis_sdp(prob)
        monkeypatch.setattr(robsyn.synthesis, "odd_symmetry", lambda network: None)
        full, L_full = assemble_synthesis_sdp(prob)
        assert full.num_vars == L.num_vars == 505
        if capped:
            program = _with_multiplier_cap(prob, program, L)
            full = _with_multiplier_cap(prob, full, L_full)
        for name in ("equalities", "inequalities"):
            rows, rows_full = getattr(program, name), getattr(full, name)
            reduced = (rows_full.coeffs @ L.basis).toarray()
            distinct = dict.fromkeys((a.tobytes(), r) for a, r in zip(reduced, rows_full.rhs))
            made = [(a.tobytes(), r) for a, r in zip(rows.coeffs.toarray(), rows.rhs)]
            assert list(distinct) == made
        sizes = (1005, 545) if capped else (973, 523)
        assert (len(full.inequalities), len(program.inequalities)) == sizes

    def test_flipped_fixed_variables_lose_only_implied_rows(self, monkeypatch):
        # state 2 is fixed by pi = [1, 0, 2] and its input weight is zero, so
        # the symmetry flips D_u[2, 0] and D_gz[0, 2] in place: they lie in
        # no orbit, and their box rows reduce to -eps t <= 0, which the
        # floors t >= _T_FLOOR already imply; those two rows are not made
        net = ImplicitNetwork(
            W_x=np.array([[0.2, 0.1, 0.3], [0.1, 0.2, 0.3], [0.15, 0.15, 0.1]]),
            W_u=np.array([[1.0], [-1.0], [0.0]]),
            W_fx=np.array([[1.0, -1.0, 0.0]]),
            W_fu=np.array([[0.5]]),
            b=np.zeros(3),
            b_f=np.zeros(1),
            activation=Activation.relu(),
        )
        assert np.array_equal(odd_symmetry(net), [1, 0, 2])
        eps = 0.05
        prob = small_problem(net, eps)
        program, L = assemble_synthesis_sdp(prob)
        orbit = synthesize(prob)
        monkeypatch.setattr(robsyn.synthesis, "odd_symmetry", lambda network: None)
        full, _ = assemble_synthesis_sdp(prob)
        plain = synthesize(prob)
        reduced = (full.inequalities.coeffs @ L.basis).toarray()
        distinct = dict.fromkeys(
            (a.tobytes(), r) for a, r in zip(reduced, full.inequalities.rhs)
        )
        made = [(a.tobytes(), r) for a, r in zip(
            program.inequalities.coeffs.toarray(), program.inequalities.rhs
        )]
        assert (len(distinct), len(made)) == (24, 22)
        dropped = [np.frombuffer(a) for a, r in distinct if (a, r) not in made]
        col = L.basis.toarray().argmax(axis=1)
        t_cols = {col[L.sl_T_z.start + 2], col[L.sl_T_g.start]}
        assert len(dropped) == 2
        for a in dropped:
            (nz,) = np.flatnonzero(a)
            assert nz in t_cols and a[nz] == -eps
        assert [a for a in made if a not in distinct] == []
        assert orbit.certificate.objective_value == pytest.approx(
            plain.certificate.objective_value, rel=1e-6
        )

    # digests of the programs assembled before the symmetry reduction existed
    @pytest.mark.parametrize(
        "tol, capped, digest",
        [
            (UNIFORM, False, "b26bf2af5263be46"),
            (UNIFORM, True, "33710328a28ee122"),
            (MIXED, False, "90a4430580bd03ad"),
            (ZERO, False, "7e2a3a6a5bc684ac"),
        ],
    )
    def test_program_without_the_symmetry_is_unchanged(self, tol, capped, digest):
        net = random_well_posed_network(7, n=4, n_u=2, n_g=3)
        prob = SynthesisProblem(
            network=net, input_set=InputPairSet(0.7, 1.3), tolerances=tol,
            fixed_gamma_u1=0.5,
        )
        program, L = assemble_synthesis_sdp(prob)
        if capped:
            program = _with_multiplier_cap(prob, program, L)
        assert np.array_equal(L.basis.toarray(), np.eye(L.num_vars))
        assert program_digest(program) == digest


@pytest.fixture(scope="module")
def corpus_problems():
    """The problems of the benchmark's corpus workload: small random ReLU
    and tanh networks, half of them with pinned gains."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads.corpus_problems()


@pytest.fixture(scope="module")
def corpus_programs(corpus_problems):
    return [assemble_synthesis_sdp(prob)[0] for prob in corpus_problems]


def mpc_net_at(horizon):
    """The paper-MPC plant's network at another horizon."""
    qp = condense_qp(replace(reference_mpc_problem(), horizon=horizon))
    return qp_to_implicit_network(qp, attach_hint=False)


class TestSamePrograms:
    """Programs pinned by digest, taken when the PSD blocks came from one
    batched evaluation of every orbit direction: the chunked assembly gives
    the same bytes, neutral-face drops included."""

    @pytest.mark.parametrize(
        "horizon, eps, digest",
        [
            (1, 0.0, "55f78168275647c8"),
            (1, 1e-5, "a63b4f84d744dac6"),
            (1, 1e-1, "ae0be5e2168d4865"),
            (2, 0.0, "155e891140035fd2"),
            (2, 1e-5, "05ab896ae366a73f"),
            (2, 1e-1, "48fe5c7b7052d801"),
            (3, 0.0, "b85e3849d822cb52"),
            (3, 1e-5, "bd160356a4d4d04e"),
            (3, 1e-1, "e1926ce017466b93"),
            (10, 0.0, "d5f1374887938109"),
            (10, 1e-5, "8cc12a349b55c778"),
            (10, 1e-1, "8fdf8b2d8f8e17f5"),
            (20, 0.0, "3a7ba3bbf6cf0740"),
            (20, 1e-5, "7c93590db730e887"),
            (20, 1e-1, "5c013f123881d233"),
        ],
    )
    def test_paper_mpc(self, horizon, eps, digest):
        program, _ = assemble_synthesis_sdp(mpc_problem(mpc_net_at(horizon), eps))
        assert program_digest(program) == digest

    @pytest.mark.parametrize("chunk_bytes", [1, 2**30])
    @pytest.mark.parametrize(
        "eps, digest", [(0.0, "d5f1374887938109"), (1e-5, "8cc12a349b55c778")]
    )
    def test_chunk_size_does_not_change_the_program(
        self, mpc_net, monkeypatch, chunk_bytes, eps, digest
    ):
        # one direction per chunk, and every direction in one chunk
        monkeypatch.setattr(robsyn.synthesis, "_CHUNK_BYTES", chunk_bytes)
        program, _ = assemble_synthesis_sdp(mpc_problem(mpc_net, eps))
        assert program_digest(program) == digest

    def test_corpus(self, corpus_programs):
        assert [program_digest(p) for p in corpus_programs] == [
            "1eb5f76caa12bd9d", "f597eb3c1ddfdb3b", "d366641e59cf7e4d", "15cfe5afec07b26d",
            "5d713fa57b85d411", "c752146abf1b6cf0", "7a771853003c1778", "aec9298b0fea95fe",
            "29c8aff62e49c2d9", "1034b7c230d63915", "564761aecf50bd9a", "b332cd26d7729729",
            "986f7623fc147c9e", "5a478a2b53edb0a8", "bbf0ce10a53c10b7", "f15dd48aa1d706a6",
            "d7fe168077b3047e", "61987adb76829cb7", "34ea763d5ca17b9b", "063e5768fd6d91be",
            "970b33a29a0c535c", "daeab5f6d7b8baf2", "fe8879a73a4add22", "fb5da6e6e1e2fbed",
        ]


def test_assembly_memory_is_bounded_by_the_chunk():
    # horizon 20 has 945 orbit directions and 87x87 certificate matrices:
    # evaluated in one batch they took 172 MB, in chunks under 20 MB
    prob = mpc_problem(mpc_net_at(20), 1e-5)
    tracemalloc.start()
    try:
        assemble_synthesis_sdp(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


def grams_by_both_formulas(program, seed):
    """For each PSD block: the formula _ConeData picked, and the block's part
    of the KKT Gram by the sparse and by the dense formula at one random
    scaling, whose X = Rti Rti' has condition number 1e3."""
    data = _ConeData(program)
    rng = np.random.default_rng(seed)
    out = []
    for gram, (m, sl, mult, _, _) in zip(data.grams, data.blocks):
        G_block = data.G[sl]
        rows = np.flatnonzero(np.diff(G_block.indptr))
        cols = np.unique(G_block.indices)
        Q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
        Q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
        Rti = (Q1 * np.logspace(-1.5, 0, m)) @ Q2
        K_sparse = np.zeros((data.nv, data.nv))
        K_dense = np.zeros((data.nv, data.nv))
        _SparseGram(G_block, rows, m, mult).add_to(K_sparse, Rti)
        _DenseGram(G_block, cols, m, mult).add_to(K_dense, Rti)
        out.append((gram.formula, K_sparse, K_dense))
    return out


def assert_formulas_agree(grams):
    for _, K_sparse, K_dense in grams:
        scale = np.linalg.norm(K_dense)
        assert scale > 0
        assert np.linalg.norm(K_sparse - K_dense) <= 1e-12 * scale


class TestKktGram:
    @pytest.mark.parametrize(
        "eps, capped, formulas",
        [
            (1e-5, False, ["sparse", "sparse"]),
            (1e-1, True, ["sparse", "sparse"]),
            # analysis: the 24-block's coefficients touch 209 of its svec
            # rows but only 21 columns, so it keeps the dense congruences
            (0.0, False, ["sparse", "dense"]),
        ],
    )
    def test_paper_mpc_blocks(self, mpc_net, eps, capped, formulas):
        prob = mpc_problem(mpc_net, eps)
        program, L = assemble_synthesis_sdp(prob)
        if capped:
            program = _with_multiplier_cap(prob, program, L)
        grams = grams_by_both_formulas(program, seed=5)
        assert [formula for formula, _, _ in grams] == formulas
        assert_formulas_agree(grams)

    def test_corpus_blocks(self, corpus_programs):
        assert corpus_programs
        for seed, program in enumerate(corpus_programs):
            assert_formulas_agree(grams_by_both_formulas(program, seed))


def solves_of(monkeypatch, run):
    """(status, iterations, theta bytes) of each solve that run() makes."""
    seen = []
    solve = robsyn.synthesis.solve_conic

    def recorded(program, options=None):
        res = solve(program, options)
        theta = None if res.theta is None else res.theta.tobytes()
        seen.append((res.status, res.iterations, theta))
        return res

    with monkeypatch.context() as m:
        m.setattr(robsyn.synthesis, "solve_conic", recorded)
        run()
    return seen


TIGHT = SolverOptions(feas_tol=1e-8, gap_tol=1e-8)


class TestFixedPatternProducts:
    """The iteration's pieces from data fixed once per solve (_LinearGram
    and the direct potrs) give scipy's bits,
    so every iterate is the one the scipy calls give.  No digest is pinned:
    the bits depend on the BLAS."""

    def test_paper_mpc_fine_program(self, mpc_net):
        program, _ = assemble_synthesis_sdp(mpc_problem(mpc_net, 1e-5))
        assert_fixed_pattern_products_match_scipy(_ConeData(program), seed=0)

    def test_corpus_programs(self, corpus_programs):
        for seed, program in enumerate(corpus_programs):
            assert_fixed_pattern_products_match_scipy(_ConeData(program), seed)

    @pytest.mark.parametrize(
        "run, solves",
        [
            (lambda net: synthesize(mpc_problem(net, 1e-5), TIGHT), 1),
            # every state is zeroable, so only the capped program is solved
            (lambda net: synthesize(mpc_problem(net, 1e-1)), 1),
            (lambda net: analyze_network(
                net, InputPairSet(1.0, 1.0), fixed_gamma_u1=0.0, fixed_gamma_u2=0.0
            ), 1),
        ],
        ids=["fine", "coarse", "analysis"],
    )
    def test_paper_mpc_solves_match_the_scipy_route(self, mpc_net, monkeypatch, run, solves):
        shipped = solves_of(monkeypatch, lambda: run(mpc_net))
        use_scipy_route(monkeypatch)
        assert solves_of(monkeypatch, lambda: run(mpc_net)) == shipped
        assert len(shipped) == solves

    def test_corpus_solves_match_the_scipy_route(self, corpus_problems, monkeypatch):
        # ReLU and tanh, with free and with pinned gains
        def run():
            for problem in corpus_problems[:4]:
                synthesize(problem)

        shipped = solves_of(monkeypatch, run)
        use_scipy_route(monkeypatch)
        assert solves_of(monkeypatch, run) == shipped
        assert len(shipped) == 4


# the paper-MPC fine synthesis, printing a digest of theta and the iterations
FINE_SYNTHESIS = """
import hashlib
from robsyn import (InputPairSet, SimilarityTolerances, SolverOptions, SynthesisProblem,
                    condense_qp, qp_to_implicit_network, reference_mpc_problem, synthesize)
net = qp_to_implicit_network(condense_qp(reference_mpc_problem()), attach_hint=False)
prob = SynthesisProblem(network=net, input_set=InputPairSet(1.0, 1.0),
                        tolerances=SimilarityTolerances.uniform(1e-5),
                        fixed_gamma_u1=0.0, fixed_gamma_u2=0.0)
res = synthesize(prob, SolverOptions(feas_tol=1e-8, gap_tol=1e-8)).solver_result
print(hashlib.sha256(res.theta.tobytes()).hexdigest(), res.iterations)
"""


def test_fine_synthesis_does_not_depend_on_the_blas_thread_count():
    src = str(Path(robsyn.synthesis.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        # the thread count is set in the child's environment only
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", FINE_SYNTHESIS],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(proc.stdout.split())
    assert outputs[0] == outputs[1]


class TestZeroableRows:
    """The rows the tolerance box can zero (_zeroable_rows), which decide
    whether synthesize solves the capped program from the start."""

    @staticmethod
    def rows(net, tolerances):
        return [rows.tolist() for rows in _zeroable_rows(net, tolerances)]

    def test_each_block_has_its_own_tolerance(self):
        # state 0 reads the input; state 1 reads only state 0, within w_x;
        # the output reads state 0 beyond w_fx
        net = ImplicitNetwork(
            W_x=np.array([[0.5, 0.0], [0.05, 0.5]]), W_u=np.array([[0.05], [0.0]]),
            W_fx=np.array([[0.2, 0.0]]), W_fu=Z((1, 1)),
            b=Z(2), b_f=Z(1), activation=Activation.relu(),
        )
        # w_u = 0 with a nonzero W_u row blocks state 0 whatever the others
        blocked = SimilarityTolerances(w_x=0.1, w_u=0.0, w_fx=0.1, w_fu=0.1)
        assert self.rows(net, blocked) == [[1], []]
        assert self.rows(net, replace(blocked, w_u=0.05)) == [[0, 1], [0]]
        # w_x below the W_x entry blocks state 1 while state 0 is live
        assert self.rows(net, replace(blocked, w_x=0.01)) == [[], []]

    def test_a_row_opens_once_the_states_it_reads_are_zeroed(self):
        # a chain: state 1 reads state 0 and the output reads state 1, both
        # beyond the box, so each row is zeroable only after the one before
        net = ImplicitNetwork(
            W_x=np.array([[0.3, 0.0], [0.5, 0.3]]), W_u=np.array([[0.05], [0.0]]),
            W_fx=np.array([[0.0, 0.5]]), W_fu=Z((1, 1)),
            b=Z(2), b_f=Z(1), activation=Activation.relu(),
        )
        assert self.rows(net, SimilarityTolerances.uniform(0.1)) == [[0, 1], [0]]
        # with state 0 held by its input, nothing downstream opens
        assert self.rows(net, SimilarityTolerances.uniform(0.01)) == [[], []]

    def test_a_state_map_the_box_cannot_bring_below_one_is_kept(self):
        net = ImplicitNetwork(
            W_x=1.05 * np.eye(1), W_u=Z((1, 1)), W_fx=Z((1, 1)), W_fu=np.ones((1, 1)),
            b=Z(1), b_f=Z(1), activation=Activation.relu(),
        )
        assert self.rows(net, SimilarityTolerances.uniform(0.05)) == [[], []]
        assert self.rows(net, SimilarityTolerances.uniform(0.06)) == [[0], []]

    def test_a_row_that_is_zero_already_does_not_count(self):
        # a state that reads nothing is zeroable at any tolerance, but the
        # box has nothing to move, so synthesize tries the uncapped program
        # first (see TestAnalysis.test_identity_feedthrough_value)
        net = ImplicitNetwork(
            W_x=Z((1, 1)), W_u=Z((1, 2)), W_fx=Z((2, 1)), W_fu=np.eye(2),
            b=Z(1), b_f=Z(2), activation=Activation.relu(),
        )
        for tolerances in (ZERO, UNIFORM):
            assert self.rows(net, tolerances) == [[0], []]
            assert not _box_zeroes_a_row(net, tolerances)
        moved = replace(net, W_u=np.array([[0.05, 0.0]]))
        assert self.rows(moved, UNIFORM) == [[0], []]
        assert _box_zeroes_a_row(moved, UNIFORM)

    @pytest.mark.parametrize(
        "eps, states, outputs",
        [
            *((eps, [], []) for eps in (0.0, 1e-5, 2e-5, 1e-4, 1e-3, 2e-3)),
            (5e-3, [*range(6, 10), *range(16, 20)], [9]),
            (1e-2, [*range(5, 10), *range(15, 20)], [8, 9]),
            (1e-1, list(range(20)), [*range(5, 10)]),
            (1.0, list(range(20)), list(range(10))),
        ],
    )
    def test_paper_mpc_sets(self, mpc_net, eps, states, outputs):
        # measured; each state set is closed under the odd symmetry pi
        assert self.rows(mpc_net, SimilarityTolerances.uniform(eps)) == [states, outputs]
        pi = odd_symmetry(mpc_net)
        assert sorted(pi[states]) == states


class TestCappedFromTheStart:
    """With a zeroable row, synthesize makes one solve: the capped program,
    with the caller's options, bit for bit a direct solve of it."""

    @pytest.mark.parametrize("eps, iterations", [(5e-3, 37), (1e-2, 34), (1e-1, 25), (1.0, 21)])
    def test_paper_mpc(self, mpc_net, monkeypatch, eps, iterations):
        problem = mpc_problem(mpc_net, eps)
        capped = _with_multiplier_cap(problem, *assemble_synthesis_sdp(problem))
        direct = solve_conic(capped)
        calls = count_solves(monkeypatch)
        sol = synthesize(problem)
        assert len(calls) == 1
        program, options, result = calls[0]
        assert program_digest(program) == program_digest(capped)
        assert (options.max_iters, result.iterations) == (200, iterations)
        assert result.theta.tobytes() == direct.theta.tobytes()
        assert sol.multiplier_capped

    def test_no_zeroable_row_keeps_the_uncapped_first_rung(self, mpc_net, monkeypatch):
        problem = mpc_problem(mpc_net, 1e-5)
        uncapped, _ = assemble_synthesis_sdp(problem)
        calls = count_solves(monkeypatch)
        sol = synthesize(problem)
        assert len(calls) == 1
        program, options, _ = calls[0]
        assert program_digest(program) == program_digest(uncapped)
        assert options.max_iters == _UNCAPPED_ITER_BUDGET
        assert not sol.multiplier_capped


class TestLadder:
    """The rescue: the uncapped program first, then the capped one.  The
    network (seed 21 at tolerance 0.1) has no zeroable row, so synthesize
    takes the ladder rather than solving capped from the start."""

    NET = random_well_posed_network(21, n=3, n_u=1, n_g=2)

    def test_the_network_has_no_zeroable_row(self):
        zeroable = _zeroable_rows(self.NET, SimilarityTolerances.uniform(0.1))
        assert [rows.tolist() for rows in zeroable] == [[], []]

    def _run(self, monkeypatch, capped_result=None):
        # the uncapped rung hands back its best iterate as OPTIMAL after
        # running its whole budget, as the bundled solver's finish does
        net = self.NET
        calls = []
        solve = robsyn.synthesis.solve_conic

        def stub(program, options=None):
            calls.append((len(program.inequalities), options.max_iters))
            result = solve(program, options)
            if len(calls) == 1:
                return replace(
                    result,
                    iterations=options.max_iters,
                    detail="terminated at reduced accuracy (pres 4.9e-07)",
                )
            return capped_result or result

        monkeypatch.setattr(robsyn.synthesis, "solve_conic", stub)
        return synthesize(small_problem(net, 0.1), SolverOptions(max_iters=150)), calls

    def test_budget_exhausted_best_iterate_goes_on_to_the_capped_rung(self, monkeypatch):
        extractions = []
        extract = robsyn.synthesis._extract_solution

        def count_extractions(*args):
            extractions.append(args)
            return extract(*args)

        monkeypatch.setattr(robsyn.synthesis, "_extract_solution", count_extractions)
        sol, calls = self._run(monkeypatch)
        assert len(calls) == 2
        # only the capped rung's solution is extracted; the best iterate
        # would be extracted only if the capped rung failed
        assert len(extractions) == 1
        (rows0, iters0), (rows1, iters1) = calls
        assert iters0 == _UNCAPPED_ITER_BUDGET and iters1 == 150
        assert rows1 > rows0
        assert sol.multiplier_capped
        assert sol.status_label == "optimal (capped multipliers)"

    def test_both_rungs_solve_one_assembly(self, monkeypatch):
        assemblies, programs = [], []
        assemble = robsyn.synthesis.assemble_synthesis_sdp
        solve = robsyn.synthesis.solve_conic

        def count_assemblies(*args, **kwargs):
            assemblies.append(args)
            return assemble(*args, **kwargs)

        def keep_programs(program, options=None):
            programs.append(program)
            return solve(program, options)

        monkeypatch.setattr(robsyn.synthesis, "assemble_synthesis_sdp", count_assemblies)
        monkeypatch.setattr(robsyn.synthesis, "solve_conic", keep_programs)
        sol, calls = self._run(monkeypatch)
        assert len(calls) == 2 and len(assemblies) == 1
        assert sol.multiplier_capped
        # digests of the uncapped and the capped program as two separate
        # assemblies built them before the rescue reused the first
        assert [program_digest(p) for p in programs] == [
            "af3fb3d5cd909107", "880f9717806f7107",
        ]

    def test_best_iterate_is_kept_when_the_capped_rung_fails(self, monkeypatch):
        failed = SolverResult(
            status=SolverStatus.NUMERICAL_FAILURE, theta=None,
            objective_value=np.nan, iterations=3,
            detail="factorization failed",
        )
        sol, calls = self._run(monkeypatch, failed)
        assert len(calls) == 2
        assert not sol.multiplier_capped
        assert sol.status_label == "optimal (reduced accuracy)"


class TestStatusLabel:
    def test_reduced_accuracy_is_named(self):
        net = random_well_posed_network(21, n=3, n_u=1, n_g=2)
        sol = synthesize(small_problem(net, 0.1))
        assert sol.status_label == "optimal"
        sol.solver_result = replace(
            sol.solver_result,
            detail="terminated at reduced accuracy (pres 1.9e-09, dres 2.6e-08, relgap 4.4e-11)",
        )
        assert sol.status_label == "optimal (reduced accuracy)"
        sol.certificate = replace(sol.certificate, lmi_margin=4.8e-9)
        assert sol.status_label == "optimal (reduced accuracy, positive margin)"
        assert sol.status_label.startswith("optimal")

    def test_small_positive_margin_is_named(self, monkeypatch):
        # a healthy instance whose one strict solve ends with a top
        # eigenvalue a few 1e-9 above zero, inside the solver's 1e-7
        # feasibility tolerance: the label says so, and the bound holds
        net = random_well_posed_network(65395002, n=1, n_u=1, n_g=3)
        problem = SynthesisProblem(
            network=net,
            input_set=InputPairSet(1.740275183481812, 1.0685616709046977),
            tolerances=SimilarityTolerances.uniform(0.1331630802569297),
            fixed_gamma_u1=0.0,
            fixed_gamma_u2=0.0,
        )
        calls = count_solves(monkeypatch)
        sol = synthesize(problem)
        assert len(calls) == 1
        assert sol.status_label == "optimal (positive margin)"
        assert 0 < sol.certificate.lmi_margin <= 1e-8
        found = empirical_bound_check(sol.network, sol.certificate, SampleSpec(), 0)
        assert found.violations == 0


class TestObjective:
    @pytest.mark.parametrize("eps", [0.0, 0.1], ids=["analysis", "synthesis"])
    def test_objective_is_the_unit_sum_of_the_gammas(self, eps):
        # both gains free, so all three coefficients enter the objective
        net = random_well_posed_network(17, n=3, n_u=2, n_g=2)
        sol = synthesize(small_problem(net, eps))
        L, c = sol.layout, sol.certificate
        gammas = sol.theta[[L.idx_gamma, L.idx_gamma_u1, L.idx_gamma_u2]]
        assert c.gamma_u1 + c.gamma_u2 > 0
        assert c.objective_value == pytest.approx(gammas.sum(), rel=1e-14)
        # the certificate's coefficients are the solver's clipped at zero,
        # which moves them by rounding only
        assert c.gamma + c.gamma_u1 + c.gamma_u2 == pytest.approx(c.objective_value, rel=1e-9)
