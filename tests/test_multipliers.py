"""Oracle tests pinning the storage convention of the certificate matrices.

The frozen matrices below were expanded by hand from the scalar definitions;
every builder must reproduce them entry for entry.  The quadratic-form tests
then confirm the same convention on random data, and the hypothesis block
checks the realizability lemma: for vectors assembled from actual network
evaluations the first three certificate terms are nonnegative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_well_posed_network
from robsyn.network import Activation, FixedPointConfig, relu
from robsyn.multipliers import (
    Dims,
    InputPairSet,
    MultiplierSet,
    assemble_p,
    build_omega_g_check,
    build_omega_gamma,
    build_omega_u,
    build_omega_z_check,
    certificate_matrix,
)

D1 = Dims(1, 1, 1)  # p = [gp, gm, up, um, z, u, 1], N_p = 7


def test_dims_layout():
    d = Dims(2, 3, 4)
    assert d.N_p == 2 * 4 + 2 * 3 + 2 + 3 + 1
    assert d.sl_g_pm == slice(0, 8)
    assert d.sl_u_pm == slice(8, 14)
    assert d.sl_z == slice(14, 16)
    assert d.sl_u == slice(16, 19)
    assert d.idx_one == 19


def test_omega_z_frozen_entries():
    # T_z = 1, Psi_z = 0.5, Psi_u = 2, passed as Y = T * Psi
    M = build_omega_z_check(D1, [1.0], [[1.0 * 0.5]], [[1.0 * 2.0]])
    E = np.zeros((7, 7))
    E[4, 4] = -0.5          # sym(1 * 0.5) - 1
    E[4, 5] = E[5, 4] = 1.0  # (1 * 2) / 2
    assert np.array_equal(M, E)


def test_omega_g_frozen_entries():
    # T_g = 2, Psi_gz = 3, Psi_gu = -1, passed as Y = T * Psi
    M = build_omega_g_check(D1, [2.0], [[2.0 * 3.0]], [[2.0 * -1.0]])
    E = np.zeros((7, 7))
    E[0, 0] = E[1, 1] = -2.0
    E[0, 4] = E[4, 0] = 3.0
    E[1, 4] = E[4, 1] = -3.0
    E[0, 5] = E[5, 0] = -1.0
    E[1, 5] = E[5, 1] = 1.0
    assert np.array_equal(M, E)


def test_omega_u_frozen_entries():
    M = build_omega_u(D1, 2.0, 4.0, InputPairSet(0.5, 0.25))
    E = np.zeros((7, 7))
    E[2, 2] = E[3, 3] = -2.0
    E[5, 5] = -2.0
    E[2, 6] = E[6, 2] = -1.0
    E[3, 6] = E[6, 3] = -1.0
    E[6, 6] = 2.0            # 2 * 0.5 + 4 * 0.25
    assert np.array_equal(M, E)


def test_omega_gamma_frozen_entries():
    M = build_omega_gamma(D1, 3.0, 0.5, 2.0)
    E = np.zeros((7, 7))
    E[0, 6] = E[6, 0] = 0.5
    E[1, 6] = E[6, 1] = 0.5
    E[2, 2] = E[3, 3] = -1.0
    E[5, 5] = -1.0
    E[2, 6] = E[6, 2] = -0.25
    E[3, 6] = E[6, 3] = -0.25
    E[6, 6] = -3.0
    assert np.array_equal(M, E)


def random_parts(seed, d):
    rng = np.random.default_rng(seed)
    return {
        "T_z": rng.uniform(0.1, 2.0, d.n),
        "T_g": rng.uniform(0.1, 2.0, d.n_g),
        "Psi_z": rng.standard_normal((d.n, d.n)),
        "Psi_u": rng.standard_normal((d.n, d.n_u)),
        "Psi_gz": rng.standard_normal((d.n_g, d.n)),
        "Psi_gu": rng.standard_normal((d.n_g, d.n_u)),
        "p": rng.standard_normal(d.N_p),
    }


def products(parts):
    """The check builders' Y = T * Psi for the network in parts."""
    T_z, T_g = parts["T_z"][:, None], parts["T_g"][:, None]
    return {
        "Y_z": T_z * parts["Psi_z"],
        "Y_u": T_z * parts["Psi_u"],
        "Y_gz": T_g * parts["Psi_gz"],
        "Y_gu": T_g * parts["Psi_gu"],
    }


@pytest.mark.parametrize("seed", range(8))
def test_omega_z_quadratic_form(seed):
    """p' M p equals z' T_z (Psi_z z + Psi_u u - z) for arbitrary p."""
    d = Dims(3, 2, 2)
    parts = random_parts(seed, d)
    Y = products(parts)
    M = build_omega_z_check(d, parts["T_z"], Y["Y_z"], Y["Y_u"])
    p = parts["p"]
    z, u = p[d.sl_z], p[d.sl_u]
    expect = z @ (parts["T_z"] * (parts["Psi_z"] @ z + parts["Psi_u"] @ u - z))
    assert p @ M @ p == pytest.approx(expect, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_omega_g_quadratic_form(seed):
    """p' M p equals the two-sided ReLU coupling term for arbitrary p."""
    d = Dims(3, 2, 2)
    parts = random_parts(seed, d)
    Y = products(parts)
    M = build_omega_g_check(d, parts["T_g"], Y["Y_gz"], Y["Y_gu"])
    p = parts["p"]
    gp, gm = p[: d.n_g], p[d.n_g : 2 * d.n_g]
    z, u = p[d.sl_z], p[d.sl_u]
    lin = parts["Psi_gz"] @ z + parts["Psi_gu"] @ u
    expect = (
        -gp @ (parts["T_g"] * gp)
        - gm @ (parts["T_g"] * gm)
        + (gp - gm) @ (parts["T_g"] * lin)
    )
    assert p @ M @ p == pytest.approx(expect, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_omega_u_quadratic_form_on_realizable_p(seed):
    """With u_pm = [relu(u); relu(-u)] the form is the slack of the pair set."""
    d = Dims(2, 3, 1)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    p = np.zeros(d.N_p)
    p[d.sl_u_pm] = np.concatenate([relu(u), relu(-u)])
    p[d.sl_u] = u
    p[d.sl_z] = rng.standard_normal(2)
    p[d.sl_g_pm] = rng.standard_normal(2 * d.n_g)
    p[d.idx_one] = 1.0
    ps = InputPairSet(1.5, 2.5)
    M = build_omega_u(d, 0.7, 1.3, ps)
    expect = 0.7 * (ps.eps_u1 - np.sum(np.abs(u))) + 1.3 * (ps.eps_u2 - u @ u)
    assert p @ M @ p == pytest.approx(expect, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_omega_gamma_quadratic_form_on_realizable_p(seed):
    """With both ReLU splits realized the form is ||g~||_1 minus the bound."""
    d = Dims(2, 3, 2)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    g = rng.standard_normal(2)
    p = np.zeros(d.N_p)
    p[d.sl_g_pm] = np.concatenate([relu(g), relu(-g)])
    p[d.sl_u_pm] = np.concatenate([relu(u), relu(-u)])
    p[d.sl_u] = u
    p[d.sl_z] = rng.standard_normal(2)
    p[d.idx_one] = 1.0
    M = build_omega_gamma(d, 0.9, 0.4, 1.1)
    expect = np.sum(np.abs(g)) - 0.9 - 0.4 * np.sum(np.abs(u)) - 1.1 * (u @ u)
    assert p @ M @ p == pytest.approx(expect, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_substitution_identity_is_bit_exact(seed):
    """The check builders with Y = T * Psi reproduce, without any
    floating-point discrepancy, the entries of the Psi-form expansion:
    sym(T_z Psi_z) - T_z and T_z Psi_u / 2 for omega_z, -T_g on both halves
    and +-T_g Psi_g / 2 for omega_g."""
    d = Dims(4, 2, 3)
    parts = random_parts(seed, d)
    Y = products(parts)
    T_z, T_g = parts["T_z"], parts["T_g"]
    A = T_z[:, None] * parts["Psi_z"]
    B = T_z[:, None] * parts["Psi_u"]
    E = np.zeros((d.N_p, d.N_p))
    E[d.sl_z, d.sl_z] = (A + A.T) / 2.0 - np.diag(T_z)
    E[d.sl_z, d.sl_u] = B / 2.0
    E[d.sl_u, d.sl_z] = B.T / 2.0
    assert np.array_equal(build_omega_z_check(d, T_z, Y["Y_z"], Y["Y_u"]), E)
    n_g = d.n_g
    gp, gm = slice(0, n_g), slice(n_g, 2 * n_g)
    C = np.hstack([T_g[:, None] * parts["Psi_gz"], T_g[:, None] * parts["Psi_gu"]]) / 2.0
    zu = slice(d.sl_z.start, d.sl_u.stop)
    E = np.zeros((d.N_p, d.N_p))
    E[gp, gp] = E[gm, gm] = -np.diag(T_g)
    E[gp, zu], E[gm, zu] = C, -C
    E[zu, gp], E[zu, gm] = C.T, -C.T
    assert np.array_equal(build_omega_g_check(d, T_g, Y["Y_gz"], Y["Y_gu"]), E)


@pytest.mark.parametrize("seed", range(5))
def test_builders_produce_exactly_symmetric_matrices(seed):
    d = Dims(3, 2, 2)
    parts = random_parts(seed, d)
    Y = products(parts)
    mats = [
        build_omega_z_check(d, parts["T_z"], Y["Y_z"], Y["Y_u"]),
        build_omega_g_check(d, parts["T_g"], Y["Y_gz"], Y["Y_gu"]),
        build_omega_u(d, 0.3, 0.8, InputPairSet(1.0, 1.0)),
        build_omega_gamma(d, 1.0, 0.2, 0.4),
        build_omega_z_check(d, parts["T_z"], parts["Psi_z"], parts["Psi_u"]),
        build_omega_g_check(d, parts["T_g"], parts["Psi_gz"], parts["Psi_gu"]),
    ]
    for M in mats:
        assert np.array_equal(M, M.T)


def test_batched_certificate_matches_one_at_a_time():
    """Arguments with leading batch axes give, bit for bit, the matrices of
    the individual evaluations."""
    d = Dims(3, 2, 2)
    ps = InputPairSet(0.8, 1.7)
    draws = [random_parts(seed, d) for seed in range(4)]
    rng = np.random.default_rng(0)
    scalars = rng.uniform(0.0, 2.0, (4, 5))
    stack = {key: np.stack([parts[key] for parts in draws]) for key in draws[0]}
    Ys = {key: np.stack([products(parts)[key] for parts in draws]) for key in products(draws[0])}
    batched = certificate_matrix(
        d, MultiplierSet(stack["T_z"], stack["T_g"], scalars[:, 0], scalars[:, 1]), ps,
        scalars[:, 2], scalars[:, 3], scalars[:, 4],
        Ys["Y_z"], Ys["Y_u"], Ys["Y_gz"], Ys["Y_gu"],
    )
    assert batched.shape == (4, d.N_p, d.N_p)
    for b, parts in enumerate(draws):
        Y = products(parts)
        single = certificate_matrix(
            d, MultiplierSet(parts["T_z"], parts["T_g"], scalars[b, 0], scalars[b, 1]), ps,
            scalars[b, 2], scalars[b, 3], scalars[b, 4],
            Y["Y_z"], Y["Y_u"], Y["Y_gz"], Y["Y_gu"],
        )
        assert np.array_equal(batched[b], single)


def test_check_builders_are_linear_in_their_arguments():
    d = Dims(2, 2, 1)
    a, b = 0.7, -1.3
    p1, p2 = random_parts(1, d), random_parts(2, d)
    M1 = build_omega_z_check(d, p1["T_z"], p1["Psi_z"], p1["Psi_u"])
    M2 = build_omega_z_check(d, p2["T_z"], p2["Psi_z"], p2["Psi_u"])
    M = build_omega_z_check(
        d,
        a * p1["T_z"] + b * p2["T_z"],
        a * p1["Psi_z"] + b * p2["Psi_z"],
        a * p1["Psi_u"] + b * p2["Psi_u"],
    )
    assert np.allclose(M, a * M1 + b * M2, atol=1e-12)
    U1 = build_omega_u(d, 0.5, 0.25, InputPairSet(1.0, 2.0))
    U2 = build_omega_u(d, 1.0, 0.5, InputPairSet(1.0, 2.0))
    assert np.allclose(U2, 2.0 * U1, atol=1e-15)


def test_certificate_matrix_is_the_sum_of_the_four_terms():
    d = Dims(2, 1, 2)
    parts = random_parts(3, d)
    mults = MultiplierSet(parts["T_z"], parts["T_g"], 0.4, 0.6)
    ps = InputPairSet(1.0, 1.0)
    M = certificate_matrix(
        d, mults, ps, 1.5, 0.1, 0.2,
        parts["Psi_z"], parts["Psi_u"], parts["Psi_gz"], parts["Psi_gu"],
    )
    expect = (
        build_omega_z_check(d, parts["T_z"], parts["Psi_z"], parts["Psi_u"])
        + build_omega_g_check(d, parts["T_g"], parts["Psi_gz"], parts["Psi_gu"])
        + build_omega_u(d, 0.4, 0.6, ps)
        + build_omega_gamma(d, 1.5, 0.1, 0.2)
    )
    assert np.array_equal(M, expect)


def test_assemble_p_matches_direct_evaluation():
    net = random_well_posed_network(5, n=4, n_u=2, n_g=3)
    rng = np.random.default_rng(9)
    U1, U2 = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    P = assemble_p(net, U1, U2)
    d = Dims.of(net)
    assert P.shape == (6, d.N_p)
    # each row is the single-pair call: bit for bit where p is elementwise in
    # the inputs, to rounding where it comes through evaluate_batch, whose
    # BLAS products do not round a column alone as they do in a batch
    for k in range(6):
        p = assemble_p(net, U1[k], U2[k])
        assert p.shape == (d.N_p,)
        assert np.array_equal(P[k, d.sl_u_pm], p[d.sl_u_pm])
        assert np.array_equal(P[k, d.sl_u], p[d.sl_u])
        np.testing.assert_allclose(P[k], p, rtol=0, atol=1e-14)
    assert np.all(P[:, d.idx_one] == 1.0)
    # the pm splits are complementary relu halves
    g_pm, u_pm = P[:, d.sl_g_pm], P[:, d.sl_u_pm]
    assert np.all(g_pm >= 0) and np.all(u_pm >= 0)
    assert np.allclose(g_pm[:, : d.n_g] * g_pm[:, d.n_g :], 0.0)
    # and g~ really is the output difference
    from robsyn.network import evaluate_batch

    G1, G2 = evaluate_batch(net, U1.T)[0], evaluate_batch(net, U2.T)[0]
    assert np.allclose(g_pm[:, : d.n_g] - g_pm[:, d.n_g :], (G2 - G1).T, atol=1e-8)
    assert np.array_equal(P[:, d.sl_u], U2 - U1)
    assert np.array_equal(u_pm[:, : d.n_u] - u_pm[:, d.n_u :], U2 - U1)


def test_input_pair_set_membership():
    ps = InputPairSet(1.0, 0.5)
    assert ps.contains(np.array([0.5, -0.25]))
    assert not ps.contains(np.array([0.9, -0.2]))      # 1-norm 1.1
    assert not ps.contains(np.array([0.7, 0.2]))       # squared 2-norm 0.53
    # a stack of differences gets one answer per row, each the single call's
    D = np.array([[0.5, -0.25], [0.9, -0.2], [0.7, 0.2], [0.0, 0.0]])
    inside = ps.contains(D)
    assert inside.shape == (4,)
    assert inside.tolist() == [bool(ps.contains(row)) for row in D]
    assert inside.tolist() == [True, False, False, True]
    with pytest.raises(ValueError):
        InputPairSet(-1.0, 1.0)


def test_multiplier_set_rejects_negative_entries():
    with pytest.raises(ValueError):
        MultiplierSet(np.array([1.0, -0.1]), np.array([1.0]), 0.0, 0.0)
    with pytest.raises(ValueError):
        MultiplierSet(np.array([1.0]), np.array([1.0]), -0.5, 0.0)


# --- realizability lemma on actual network evaluations --- #

TOL = 1e-9


def scaled_into(ps, direction):
    """Shrink a direction so it lies inside the pair set."""
    n1 = np.sum(np.abs(direction))
    n2 = np.sqrt(direction @ direction)
    if n1 == 0.0:
        return direction
    scale = min(ps.eps_u1 / n1, np.sqrt(ps.eps_u2) / n2)
    return direction * scale * 0.999


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    n_u=st.integers(1, 4),
    n_g=st.integers(1, 4),
    use_tanh=st.booleans(),
)
def test_certificate_terms_nonnegative_on_realizable_vectors(
    seed, n, n_u, n_g, use_tanh
):
    """For p assembled from two network evaluations with u2 - u1 in the pair
    set, the slope, output-split, and input-set certificate terms are all
    nonnegative up to solver tolerance."""
    act = Activation.tanh() if use_tanh else Activation.relu()
    net = random_well_posed_network(seed, n, n_u, n_g, activation=act)
    rng = np.random.default_rng(seed + 1)
    ps = InputPairSet(1.0, 1.0)
    u1 = rng.uniform(-3, 3, n_u)
    u2 = u1 + scaled_into(ps, rng.standard_normal(n_u))
    cfg = FixedPointConfig(tol=1e-12)
    p = assemble_p(net, u1, u2, cfg)
    d = Dims.of(net)
    slack = TOL * (1.0 + p @ p)
    T_z = rng.uniform(0.0, 2.0, n)
    T_g = rng.uniform(0.0, 2.0, n_g)
    s_z = p @ build_omega_z_check(d, T_z, T_z[:, None] * net.W_x, T_z[:, None] * net.W_u) @ p
    s_g = p @ build_omega_g_check(d, T_g, T_g[:, None] * net.W_fx, T_g[:, None] * net.W_fu) @ p
    s_u = p @ build_omega_u(d, 0.8, 1.2, ps) @ p
    assert s_z >= -slack
    assert s_g >= -slack
    assert s_u >= -slack
