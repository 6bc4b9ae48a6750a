"""Tests for the conic program container, the bundled interior-point solver,
its Nesterov-Todd scaling, and the independent solution checker."""

import logging
import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from helpers import (
    assert_bit_identical,
    assert_fixed_pattern_products_match_scipy,
    block_value,
    verify_solution,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import robsyn.conic
from robsyn.conic import (
    ConicProgram,
    LinearRows,
    PsdBlockMap,
    SolverOptions,
    SolverStatus,
    _ConeData,
    _KktSolver,
    _Block,
    _Scaling,
    _openblas_thread_controls,
    _svec_gathers,
    solve_conic,
    svec,
    svec_indices,
)


def scalar_bound_program():
    # min theta subject to theta - 2 >= 0 as a 1x1 PSD block
    return ConicProgram(
        num_vars=1,
        objective=[1.0],
        psd_blocks=[PsdBlockMap(const=[[-2.0]], coeffs=[[1.0]])],
    )


def arrow_program():
    # min t1 + t2 s.t. [[t1, 1], [1, t2 - 3]] >= 0; optimum t1 = 1, t2 = 4
    return ConicProgram(
        num_vars=2,
        objective=[1.0, 1.0],
        psd_blocks=[
            PsdBlockMap(const=[[0.0, 1.0], [1.0, -3.0]], coeffs=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        ],
    )


def test_scalar_psd_bound():
    res = solve_conic(scalar_bound_program())
    assert res.status == SolverStatus.OPTIMAL
    assert res.theta[0] == pytest.approx(2.0, abs=1e-7)
    assert res.objective_value == pytest.approx(2.0, abs=1e-7)
    assert -verify_solution(scalar_bound_program(), res.theta).psd_min_eig <= 1e-8


def test_arrow_optimum_on_cone_boundary():
    res = solve_conic(arrow_program())
    assert res.status == SolverStatus.OPTIMAL
    assert np.allclose(res.theta, [1.0, 4.0], atol=1e-5)
    assert res.objective_value == pytest.approx(5.0, abs=1e-6)


def test_pure_lp_corner():
    prog = ConicProgram(
        num_vars=2,
        objective=[-1.0, -2.0],
        inequalities=LinearRows(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
            [1.0, 1.0, 0.0, 0.0, 1.5],
        ),
    )
    res = solve_conic(prog)
    assert res.status == SolverStatus.OPTIMAL
    assert np.allclose(res.theta, [0.5, 1.0], atol=1e-6)


NONNEGATIVE_PAIR = LinearRows(-np.eye(2), np.zeros(2))


def test_equality_constraint_is_respected():
    prog = ConicProgram(
        num_vars=2,
        objective=[1.0, 0.0],
        equalities=LinearRows([[1.0, 1.0]], [5.0]),
        inequalities=NONNEGATIVE_PAIR,
        psd_blocks=[PsdBlockMap(const=[[0.0]], coeffs=[[1.0], [1.0]])],
    )
    res = solve_conic(prog)
    assert res.status == SolverStatus.OPTIMAL
    assert verify_solution(prog, res.theta).eq_residual <= 1e-7
    assert res.theta[0] + res.theta[1] == pytest.approx(5.0, abs=1e-7)
    assert res.objective_value == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize(
    "equalities",
    [
        LinearRows([[1.0, 1.0], [2.0, 2.0]], [5.0, 10.0]),
        LinearRows([[1.0, 1.0], [1.0, 1.0]], [5.0, 6.0]),
        LinearRows([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0]),
    ],
    ids=["dependent", "inconsistent", "more-rows-than-variables"],
)
def test_equality_rows_must_be_linearly_independent(equalities):
    prog = ConicProgram(
        num_vars=2,
        objective=[1.0, 0.0],
        equalities=equalities,
        inequalities=NONNEGATIVE_PAIR,
    )
    with pytest.raises(ValueError, match="linearly independent"):
        solve_conic(prog)


def pinned_program():
    # the null space of the equalities is empty: the only candidate is the
    # pinned point, which satisfies the inequalities and the PSD block
    return ConicProgram(
        num_vars=2,
        objective=[1.0, 1.0],
        equalities=LinearRows(np.eye(2), [1.0, 2.0]),
        inequalities=LinearRows([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 4.0]),
        psd_blocks=[
            PsdBlockMap(const=[[0.0, 1.0], [1.0, 0.0]], coeffs=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        ],
    )


def test_all_variables_pinned_solves_at_the_pinned_point():
    prog = pinned_program()
    res = solve_conic(prog)
    assert res.status == SolverStatus.OPTIMAL
    np.testing.assert_allclose(res.theta, [1.0, 2.0], atol=1e-9)
    assert res.objective_value == pytest.approx(3.0, abs=1e-9)
    assert verify_solution(prog, res.theta).eq_residual <= 1e-9


def test_infeasible_program_is_certified():
    prog = ConicProgram(
        num_vars=1,
        objective=[1.0],
        inequalities=LinearRows([[1.0]], [1.0]),
        psd_blocks=[PsdBlockMap(const=[[-2.0]], coeffs=[[1.0]])],
    )
    res = solve_conic(prog)
    assert res.status == SolverStatus.INFEASIBLE
    assert res.theta is None


def test_unbounded_program_reports_numerical_failure():
    prog = ConicProgram(
        num_vars=1,
        objective=[-1.0],
        psd_blocks=[PsdBlockMap(const=[[-1.0]], coeffs=[[1.0]])],
    )
    res = solve_conic(prog)
    assert res.status == SolverStatus.NUMERICAL_FAILURE
    assert "unbounded" in res.detail


def test_iteration_limit_reports_numerical_failure():
    res = solve_conic(arrow_program(), SolverOptions(max_iters=2))
    assert res.status == SolverStatus.NUMERICAL_FAILURE
    assert "iteration limit" in res.detail


def test_solver_is_deterministic():
    r1 = solve_conic(arrow_program())
    r2 = solve_conic(arrow_program())
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.iterations == r2.iterations


def test_verify_solution_reports_violations():
    prog = arrow_program()
    good = verify_solution(prog, [2.0, 4.0])
    assert good.psd_min_eig >= 0.0 and good.ok(1e-9)
    bad = verify_solution(prog, [0.0, 0.0])
    assert bad.psd_min_eig < 0 and not bad.ok(1e-6)


def test_verify_solution_reads_the_linear_rows():
    prog = ConicProgram(
        num_vars=2,
        objective=[1.0, 0.0],
        equalities=LinearRows([[1.0, 1.0]], [5.0]),
        inequalities=LinearRows([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]], [0.0, 0.0, 4.0]),
    )
    # rows -7, 1 and 3 above their bounds; the equality 1 off
    bad = verify_solution(prog, [7.0, -1.0])
    assert (bad.ineq_violation, bad.eq_residual) == (3.0, 1.0)
    good = verify_solution(prog, [3.0, 2.0])
    assert (good.ineq_violation, good.eq_residual) == (0.0, 0.0)


def test_linear_rows_are_kept_canonical():
    # row 0 as the unsorted, duplicated entries (1, 2.0), (0, 1.0), (1, 0.5)
    coeffs = scipy.sparse.csr_array(
        ([2.0, 1.0, 0.5, -1.0], [1, 0, 1, 1], [0, 3, 4]), shape=(2, 2)
    )
    rows = LinearRows(coeffs, [1.0, 0.0])
    assert len(rows) == 2 and rows.coeffs.has_canonical_format
    assert np.array_equal(rows.coeffs.indices, [0, 1, 1])
    assert np.array_equal(rows.coeffs.toarray(), [[1.0, 2.5], [0.0, -1.0]])


def test_psd_block_validation():
    with pytest.raises(ValueError, match="square"):
        PsdBlockMap(const=[[1.0, 0.0]], coeffs=[[1.0]])
    with pytest.raises(ValueError, match="square"):
        PsdBlockMap(const=np.zeros((0, 0)), coeffs=np.zeros((1, 0)))
    with pytest.raises(ValueError, match="3 upper-triangle entries"):
        PsdBlockMap(const=np.eye(2), coeffs=[[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="3 upper-triangle entries"):
        PsdBlockMap(const=np.eye(2), coeffs=scipy.sparse.csr_array(np.ones((1, 4))))
    blk = PsdBlockMap(const=np.eye(2), coeffs=[[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="1 coefficient rows for 2 variables"):
        ConicProgram(num_vars=2, objective=[1.0, 1.0], psd_blocks=[blk])


def test_psd_block_ignores_entries_below_the_diagonal():
    blk = PsdBlockMap(const=[[1.0, 2.0], [99.0, 3.0]], coeffs=[[0.0, 5.0, 0.0]])
    assert np.array_equal(blk.const, [[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(block_value(blk, [1.0]), [[1.0, 7.0], [7.0, 3.0]])


def test_psd_block_matches_a_dense_reference():
    # coefficient rows given dense and as a csr_array, which is kept as is
    rng = np.random.default_rng(3)
    m, nv = 4, 3
    iu = np.triu_indices(m)
    upper = rng.standard_normal((nv, iu[0].size)) * (rng.random((nv, iu[0].size)) < 0.4)
    const = rng.standard_normal((m, m))
    A0 = np.triu(const) + np.triu(const, 1).T
    stack = np.zeros((nv, m, m))
    for k in range(nv):
        stack[k][iu] = upper[k]
        stack[k] = stack[k] + np.triu(stack[k], 1).T
    sparse = scipy.sparse.csr_array(upper)
    for coeffs in (upper, sparse):
        blk = PsdBlockMap(const=const, coeffs=coeffs)
        assert blk.dim == m
        assert np.array_equal(blk.const, A0)
        # row k holds the upper triangle of A_k, row-wise
        assert np.array_equal(blk.coeffs.toarray(), stack[:, iu[0], iu[1]])
    assert blk.coeffs is sparse


def test_iterations_are_logged_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="robsyn.conic")
    res = solve_conic(arrow_program())
    records = [r for r in caplog.records if r.name == "robsyn.conic"]
    # the cone record, then one record per iteration, the converged one included
    assert len(records) == res.iterations + 2
    assert all(r.levelno == logging.DEBUG for r in records)
    assert records[0].getMessage().startswith("cone  ")
    assert records[1].getMessage().startswith("iter   0  pcost")
    caplog.clear()
    caplog.set_level(logging.INFO, logger="robsyn.conic")
    solve_conic(arrow_program())
    assert not [r for r in caplog.records if r.name == "robsyn.conic"]


def two_formula_program():
    # the arrow program plus a second 2x2 block [[1 + t1, t1], [t1, 1 + t2]],
    # which does not bind at the optimum t1 = 1, t2 = 4, objective 5.  The
    # arrow block's coefficients touch 2 of its 3 svec rows (2^2 <= 2 * 2^2:
    # the sparse Gram); the second block's touch all 3 (3^2 > 2 * 2^2: the
    # dense one)
    arrow = arrow_program()
    second = PsdBlockMap(const=np.eye(2), coeffs=[[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return ConicProgram(
        num_vars=2, objective=arrow.objective, psd_blocks=[*arrow.psd_blocks, second]
    )


def test_cone_record_names_each_blocks_gram_formula(caplog):
    caplog.set_level(logging.DEBUG, logger="robsyn.conic")
    res = solve_conic(two_formula_program())
    assert res.status == SolverStatus.OPTIMAL
    assert res.objective_value == pytest.approx(5.0, abs=1e-6)
    cones = [r for r in caplog.records if r.name == "robsyn.conic" and r.msg.startswith("cone")]
    # one record per solve
    assert len(cones) == 1
    assert cones[0].levelno == logging.DEBUG
    assert cones[0].getMessage() == (
        "cone  2 variables  0 linear rows  "
        "block 2: 2/3 svec rows, 2/2 columns, sparse Gram  "
        "block 2: 3/3 svec rows, 2/2 columns, dense Gram"
    )
    assert [g.formula for g in _ConeData(two_formula_program()).grams] == ["sparse", "dense"]


def test_program_validation():
    with pytest.raises(ValueError):
        ConicProgram(num_vars=0, objective=[])
    with pytest.raises(ValueError):
        ConicProgram(num_vars=2, objective=[1.0])
    for rows in ("equalities", "inequalities"):
        with pytest.raises(ValueError, match="3 columns for 2 variables"):
            ConicProgram(num_vars=2, objective=[1.0, 0.0], **{rows: LinearRows(np.eye(3), np.ones(3))})
    with pytest.raises(ValueError, match="one entry per row"):
        LinearRows(np.eye(2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="one entry per row"):
        LinearRows(scipy.sparse.csr_array(np.eye(2)), [[1.0, 2.0]])
    with pytest.raises(ValueError, match="matrix"):
        LinearRows([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        SolverOptions(feas_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)


@pytest.mark.parametrize(
    "field, value",
    [("feas_tol", math.inf), ("gap_tol", math.inf), ("max_iters", 2.5), ("max_iters", True)],
    ids=str,
)
def test_solver_options_reject_non_finite_and_non_integer_values(field, value):
    # infinite tolerances accept the starting point as optimal, a
    # fractional iteration limit fails later in range(), and True, an
    # Integral to Python, would run one iteration
    with pytest.raises(ValueError, match=rf"{field} must be .*, got {value!r}"):
        SolverOptions(**{field: value})


def smat(v, m, mult):
    """The solver's smat, on a block of order m whose rows are all of v."""
    upper, full = _svec_gathers(m)
    return _Block(m, slice(0, v.size), mult, upper, full).smat(v)


def test_svec_round_trip_preserves_inner_products():
    rng = np.random.default_rng(0)
    m = 5
    iu, mult = svec_indices(m)
    X = rng.standard_normal((m, m))
    A = (X + X.T) / 2
    Y = rng.standard_normal((m, m))
    B = (Y + Y.T) / 2
    va, vb = svec(A, mult), svec(B, mult)
    assert np.allclose(smat(va, m, mult), A)
    assert float(va @ vb) == pytest.approx(float(np.trace(A @ B)), rel=1e-12)


def svec_by_fancy_index(A, iu, mult):
    return A[iu] * mult


def smat_by_fancy_index(v, m, iu, mult):
    M = np.zeros((m, m))
    vals = v / mult
    M[iu] = vals
    M[(iu[1], iu[0])] = vals
    return M


@pytest.mark.parametrize("m", range(1, 31))
def test_svec_and_smat_gathers_are_bit_identical_to_fancy_indexing(m):
    # the svec weights, and a scalar weight
    rng = np.random.default_rng(m)
    iu, weights = svec_indices(m)
    A = rng.standard_normal((m, m))        # svec reads the upper triangle only
    v = rng.standard_normal(iu[0].size)
    for mult in (weights, 1.0):
        assert svec(A, mult).tobytes() == svec_by_fancy_index(A, iu, mult).tobytes()
        assert svec(A.T, mult).tobytes() == svec_by_fancy_index(A.T, iu, mult).tobytes()
        M = smat(v, m, mult)
        assert M.shape == (m, m)
        assert M.tobytes() == smat_by_fancy_index(v, m, iu, mult).tobytes()
        # a fresh writeable array each call, sharing no memory with v
        assert M.flags.writeable and not np.shares_memory(M, v)
        M[...] = np.nan
        assert smat(v, m, mult).tobytes() == smat_by_fancy_index(v, m, iu, mult).tobytes()


def program_with_empty_rows():
    # the arrow program's block with a zero inequality row; no coefficient
    # touches the block's off-diagonal entry, so its row of G is empty too
    return ConicProgram(
        num_vars=3,
        objective=[1.0, 1.0, 1.0],
        inequalities=LinearRows(
            [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, -1.0]],
            [0.0, 1.0, 20.0, 0.0],
        ),
        psd_blocks=[
            PsdBlockMap(
                const=[[0.0, 1.0], [1.0, -3.0]],
                coeffs=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
            )
        ],
    )


def program_with_an_equality():
    # min x0 + 2 x1 + 3 x2 over the simplex, solved as theta = x0 + N x
    return ConicProgram(
        num_vars=3,
        objective=[1.0, 2.0, 3.0],
        equalities=LinearRows([[1.0, 1.0, 1.0]], [1.0]),
        inequalities=LinearRows([[-1.0, 0.0, 0.0]], [0.0]),
        psd_blocks=[PsdBlockMap(const=np.zeros((3, 3)), coeffs=np.eye(6)[[0, 3, 5]])],
    )


def dense_row_program():
    # a dense N makes every linear row dense: more pairs than Gram entries
    return lagrange_dual(random_box_sdp(3))


# each program, and whether _LinearGram keeps the pairs of its rows
FIXED_PATTERN_PROGRAMS = [
    (program_with_empty_rows, True),
    (program_with_an_equality, True),
    (pinned_program, True),          # nv = 0
    (arrow_program, True),           # no linear rows
    (dense_row_program, False),
]
FIXED_PATTERN_IDS = [make.__name__ for make, _ in FIXED_PATTERN_PROGRAMS]


@pytest.mark.parametrize("make, paired", FIXED_PATTERN_PROGRAMS, ids=FIXED_PATTERN_IDS)
def test_fixed_pattern_products_are_bit_identical_to_scipy(make, paired):
    data = _ConeData(make())
    assert (data.lp_gram.p is not None) == paired
    assert_fixed_pattern_products_match_scipy(data, seed=0)


@pytest.mark.parametrize("make", [m for m, _ in FIXED_PATTERN_PROGRAMS], ids=FIXED_PATTERN_IDS)
def test_kkt_potrs_is_bit_identical_to_cho_solve(make):
    data = _ConeData(make())
    # interior points: each block's off-diagonal entries stay below
    # 0.2 / sqrt(2), so blocks up to 4 x 4 are diagonally dominant
    rng = np.random.default_rng(1)
    s = data.cone_identity() + rng.uniform(0.0, 0.2, data.rows)
    z = data.cone_identity() + rng.uniform(0.0, 0.2, data.rows)
    kkt = _KktSolver(data, _Scaling(data, s, z))
    b = rng.standard_normal(data.nv)
    expected = scipy.linalg.cho_solve((kkt.R, False), b, check_finite=False)
    assert_bit_identical(kkt._cho_solve(b.copy()), expected)


def random_box_sdp(seed):
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, 6))
    m = int(rng.integers(2, 5))
    coeffs = []
    for k in range(nv):
        X = rng.standard_normal((m, m))
        S = (X + X.T) / 2
        coeffs.append(S[np.triu_indices(m)])
    margin = 1.0 + rng.uniform(0, 2)
    const = margin * np.eye(m)
    # theta_k <= 3 and -theta_k <= 3, row by row
    box = np.repeat(np.eye(nv), 2, axis=0) * np.tile([1.0, -1.0], nv)[:, None]
    return ConicProgram(
        num_vars=nv,
        objective=rng.standard_normal(nv),
        inequalities=LinearRows(box, np.full(2 * nv, 3.0)),
        psd_blocks=[PsdBlockMap(const=const, coeffs=coeffs)],
    )


def lagrange_dual(prog):
    """The Lagrange dual of a program with inequalities and one PSD block,

        maximize  -<Z, A_0> - r'lam  s.t.  <Z, A_k> - (G'lam)_k = c_k,
                  Z >= 0, lam >= 0,

    written as a minimization over the upper triangle of Z and lam."""
    (blk,) = prog.psd_blocks
    m, nv = blk.dim, prog.num_vars
    iu = np.triu_indices(m)
    nz = len(iu[0])
    weight = np.where(iu[0] == iu[1], 1.0, 2.0)      # <Z, A> over the triangle
    A0 = blk.const[iu] * weight
    Ak = blk.coeffs.toarray() * weight
    G = prog.inequalities.coeffs.toarray()
    r = prog.inequalities.rhs
    nl = len(r)
    return ConicProgram(
        num_vars=nz + nl,
        objective=np.concatenate([A0, r]),
        equalities=LinearRows(np.hstack([Ak, -G.T]), prog.objective),
        inequalities=LinearRows(-np.eye(nz + nl)[nz:], np.zeros(nl)),
        psd_blocks=[PsdBlockMap(const=np.zeros((m, m)), coeffs=np.eye(nz + nl, nz))],
    )


@pytest.mark.parametrize("seed", range(10))
def test_random_sdp_closes_the_duality_gap(seed):
    # weak duality: for feasible points c'theta >= -(dual objective), so a
    # zero gap between two verified points proves the primal optimal
    prog = random_box_sdp(seed)
    dual = lagrange_dual(prog)
    r1 = solve_conic(prog)
    r2 = solve_conic(dual)
    assert r1.status == SolverStatus.OPTIMAL
    assert r2.status == SolverStatus.OPTIMAL
    assert verify_solution(prog, r1.theta).ok(1e-6)
    assert verify_solution(dual, r2.theta).ok(1e-6)
    gap = r1.objective_value + r2.objective_value
    assert abs(gap) <= 1e-6 * (1.0 + abs(r1.objective_value))


def random_pd(rng, m):
    X = rng.standard_normal((m, m))
    return X @ X.T + m * np.eye(m)


def random_cone_point(rng, data):
    ((m, sl, mult, _, _),) = data.blocks
    v = np.empty(data.rows)
    v[: data.l] = rng.uniform(0.5, 2.0, data.l)
    v[sl] = svec(random_pd(rng, m), mult)
    return v


def assert_nt_identities(sc, s, z):
    lam = sc.lam_vec()
    np.testing.assert_allclose(sc.WinvT(s), lam, rtol=0, atol=1e-12 * np.abs(lam).max())
    np.testing.assert_allclose(sc.W(z), lam, rtol=0, atol=1e-12 * np.abs(lam).max())
    for R, Rti in zip(sc.R, sc.Rti):
        np.testing.assert_allclose(Rti, np.linalg.inv(R).T, rtol=0, atol=1e-12 * np.abs(Rti).max())


@pytest.mark.parametrize("seed", range(3))
def test_nt_scaling_maps_both_points_to_lambda(seed):
    # W^{-T} s = lam = W z at construction, and again after an update from
    # the scaled coordinates of a step to new interior points
    rng = np.random.default_rng(seed)
    data = _ConeData(random_box_sdp(seed))
    s, z = random_cone_point(rng, data), random_cone_point(rng, data)
    sc = _Scaling(data, s, z)
    assert_nt_identities(sc, s, z)
    s2 = s + 0.5 * (random_cone_point(rng, data) - s)
    z2 = z + 0.5 * (random_cone_point(rng, data) - z)
    sc.update(sc.WinvT(s2), sc.W(z2))
    assert_nt_identities(sc, s2, z2)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_sdp_solutions_verify(seed):
    """Whatever the bundled solver declares optimal must pass the
    independent feasibility check."""
    prog = random_box_sdp(seed)
    res = solve_conic(prog)
    assert res.status == SolverStatus.OPTIMAL
    check = verify_solution(prog, res.theta)
    assert check.ok(1e-6)
    # objective value not better than any sampled feasible point
    rng = np.random.default_rng(seed + 7)
    for _ in range(200):
        cand = rng.uniform(-3, 3, prog.num_vars)
        if verify_solution(prog, cand).ok(1e-9):
            assert res.objective_value <= prog.objective @ cand + 1e-6


# --- BLAS thread counts around a solve --- #


def blas_threads():
    return [get() for get, _ in _openblas_thread_controls()]


def set_blas_threads(counts):
    for (_, set_), count in zip(_openblas_thread_controls(), counts):
        set_(count)


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at 2 threads, so that a pin to 1 shows; the
    process's own counts come back at teardown."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS library is loaded")
    before = blas_threads()
    set_blas_threads([2] * len(controls))
    yield [2] * len(controls)
    set_blas_threads(before)


def record_threads_inside(monkeypatch, inner=None):
    """Replace the solver behind solve_conic by one that records the BLAS
    thread counts it runs under; the first call also runs inner, if given,
    and records the counts again after it."""
    seen = []
    solve = robsyn.conic._solve_bundled

    def recorded(program, options):
        nonlocal inner
        seen.append(blas_threads())
        if inner is not None:
            run, inner = inner, None
            run()
            seen.append(blas_threads())
        return solve(program, options)

    monkeypatch.setattr(robsyn.conic, "_solve_bundled", recorded)
    return seen


def test_solve_runs_on_one_blas_thread_and_restores_the_count(two_blas_threads, monkeypatch):
    seen = record_threads_inside(monkeypatch)
    assert solve_conic(arrow_program()).status == SolverStatus.OPTIMAL
    assert seen == [[1] * len(two_blas_threads)]
    assert blas_threads() == two_blas_threads


def test_blas_threads_restored_after_a_raise(two_blas_threads, monkeypatch):
    seen = record_threads_inside(monkeypatch)
    with pytest.raises(ValueError, match="no inequalities"):
        solve_conic(ConicProgram(num_vars=1, objective=[1.0]))
    assert seen == [[1] * len(two_blas_threads)]
    assert blas_threads() == two_blas_threads


def test_nested_solve_restores_only_at_the_outer_exit(two_blas_threads, monkeypatch):
    inner_seen = []

    def inner():
        inner_seen.append(solve_conic(scalar_bound_program()).status)

    seen = record_threads_inside(monkeypatch, inner)
    solve_conic(arrow_program())
    ones = [1] * len(two_blas_threads)
    # outer entry, inner entry, and the outer region after the inner exit
    assert seen == [ones, ones, ones]
    assert inner_seen == [SolverStatus.OPTIMAL]
    assert blas_threads() == two_blas_threads


def test_overlapping_solves_in_two_threads_restore_the_count(two_blas_threads, monkeypatch):
    # each thread waits inside its first solve for the other, so the two
    # pinned regions overlap at least once
    both_inside = threading.Barrier(2, timeout=30)
    first = threading.local()
    solve = robsyn.conic._solve_bundled
    inside = []

    def meeting(program, options):
        inside.append(blas_threads())
        if not getattr(first, "done", False):
            first.done = True
            both_inside.wait()
        return solve(program, options)

    monkeypatch.setattr(robsyn.conic, "_solve_bundled", meeting)
    statuses = []

    def loop():
        statuses.extend(solve_conic(arrow_program()).status for _ in range(20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=loop) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert statuses == [SolverStatus.OPTIMAL] * 40
    assert inside == [[1] * len(two_blas_threads)] * 40
    assert blas_threads() == two_blas_threads


def test_a_caller_on_one_blas_thread_keeps_it(two_blas_threads):
    ones = [1] * len(two_blas_threads)
    set_blas_threads(ones)
    solve_conic(arrow_program())
    assert blas_threads() == ones
