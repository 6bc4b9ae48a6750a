"""Shared factories and oracles for the test suite."""

import numpy as np
import scipy.linalg
import scipy.sparse

import robsyn.conic
from robsyn.mpc import MpcProblem
from robsyn.network import Activation, ImplicitNetwork


def rollout_cost(problem: MpcProblem, w0, v_seq) -> float:
    """Cost computed by simulating the open loop, term by term."""
    N, n_v = problem.horizon, problem.n_v
    v_seq = np.asarray(v_seq, dtype=float).reshape(N, n_v)
    x = np.asarray(w0, dtype=float).reshape(problem.n_x)
    cost = 0.0
    for k in range(N):
        cost += float(v_seq[k] @ problem.R @ v_seq[k])
        x = problem.A @ x + problem.B @ v_seq[k]
        W = problem.P if k == N - 1 else problem.Q
        cost += float(x @ W @ x)
    return cost


def random_well_posed_network(seed, n, n_u, n_g, activation=None, contraction=0.9):
    """Random network with ||W_x||_2 <= contraction < 1, hence well posed."""
    rng = np.random.default_rng(seed)
    W_x = rng.standard_normal((n, n))
    norm = np.linalg.norm(W_x, 2) if n else 0.0
    if norm > 0:
        W_x *= contraction / max(norm, contraction)
    return ImplicitNetwork(
        W_x=W_x,
        W_u=rng.standard_normal((n, n_u)),
        W_fx=rng.standard_normal((n_g, n)),
        W_fu=rng.standard_normal((n_g, n_u)),
        b=rng.standard_normal(n),
        b_f=rng.standard_normal(n_g),
        activation=activation or Activation.relu(),
    )


def lp_gram_by_scipy(G_lp, w):
    """G_lp' diag(w)^-2 G_lp through scipy.sparse: diag(w)^-1 G_lp from a
    row-scaled copy of the CSR data, then (Glw.T @ Glw).toarray()."""
    row_scale = np.repeat(1.0 / w, np.diff(G_lp.indptr))
    Glw = scipy.sparse.csr_array(
        (G_lp.data * row_scale, G_lp.indices, G_lp.indptr), shape=G_lp.shape
    )
    return (Glw.T @ Glw).toarray()


class _ScipyLinearGram:
    def __init__(self, G_lp):
        self.G_lp = G_lp

    def __call__(self, w):
        return lp_gram_by_scipy(self.G_lp, w)


def use_scipy_route(monkeypatch):
    """Run the interior-point iteration on the scipy calls its fixed-pattern
    pieces reproduce: the sparse linear-row Gram and cho_solve."""
    monkeypatch.setattr(robsyn.conic, "_LinearGram", _ScipyLinearGram)
    monkeypatch.setattr(
        robsyn.conic._KktSolver, "_cho_solve",
        lambda self, b: scipy.linalg.cho_solve((self.R, False), b, check_finite=False),
    )


def assert_bit_identical(a, b):
    """Equal dtype, shape and values, and equal bytes, so -0.0 is not 0.0."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def assert_fixed_pattern_products_match_scipy(data, seed):
    """The linear-row Gram on the pattern _ConeData fixes once against
    scipy's, bit for bit, at random row weights."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        w = np.exp(rng.uniform(-5.0, 5.0, data.l))
        assert_bit_identical(data.lp_gram(w), lp_gram_by_scipy(data.G[: data.l], w))
