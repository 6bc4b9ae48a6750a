"""Shared factories and oracles for the test suite.

The oracles here check the library from outside: a solution's feasibility
from the program data alone (verify_solution), the incremental vector p of
two network evaluations (assemble_p), the nonnegativity lemma behind the
relaxation on random networks (lemma_property_suite) and the condensed QP's
cost (total_cost).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

import robsyn.conic
from robsyn.conic import ConicProgram, PsdBlockMap
from robsyn.mpc import CondensedQP, MpcProblem
from robsyn.multipliers import (
    Dims,
    InputPairSet,
    MultiplierSet,
    build_omega_g_check,
    build_omega_u,
    build_omega_z_check,
)
from robsyn.network import (
    Activation,
    FixedPointConfig,
    ImplicitNetwork,
    evaluate_batch,
    relu,
)
from robsyn.verification import SampleSpec, sample_input_pairs


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


def total_cost(qp: CondensedQP, v: np.ndarray, w: np.ndarray) -> float:
    """J(v; w) = v'Hv + 2 v'F w + w'E w of the condensed QP."""
    v = np.asarray(v, dtype=float).reshape(qp.n_dec)
    w = np.asarray(w, dtype=float).reshape(qp.n_x)
    return float(v @ qp.H @ v + 2.0 * v @ qp.F @ w + w @ qp.E @ w)


# --- the solution checker: a candidate theta against the program data --- #


def block_value(blk: PsdBlockMap, theta) -> np.ndarray:
    """A_0 + sum_k theta_k A_k of a PSD block, its upper triangle scattered
    densely and mirrored."""
    m = blk.dim
    upper = np.zeros((m, m))
    upper[np.triu_indices(m)] = blk.coeffs.T @ np.asarray(theta, dtype=float)
    return blk.const + upper + np.triu(upper, 1).T


@dataclass
class SolutionCheck:
    """Feasibility report for a candidate theta, computed from the program
    data alone (no solver internals)."""

    psd_min_eig: float
    ineq_violation: float
    eq_residual: float

    def ok(self, tol: float) -> bool:
        return (
            self.psd_min_eig >= -tol
            and self.ineq_violation <= tol
            and self.eq_residual <= tol
        )


def verify_solution(program: ConicProgram, theta: np.ndarray) -> SolutionCheck:
    theta = np.asarray(theta, dtype=float).reshape(program.num_vars)
    ineq, eq = program.inequalities, program.equalities
    return SolutionCheck(
        psd_min_eig=min(
            (float(np.linalg.eigvalsh(block_value(blk, theta))[0]) for blk in program.psd_blocks),
            default=0.0,
        ),
        ineq_violation=float(np.max(ineq.coeffs @ theta - ineq.rhs, initial=0.0)),
        eq_residual=float(np.max(np.abs(eq.coeffs @ theta - eq.rhs), initial=0.0)),
    )


# --- the incremental vector p and the lemma behind the relaxation --- #


def assemble_p(
    net: ImplicitNetwork,
    U1: np.ndarray,
    U2: np.ndarray,
    config: FixedPointConfig | None = None,
) -> np.ndarray:
    """Evaluate the network at each input pair (a row of U1 and the same row
    of U2) and return one row of p per pair; 1-D inputs give one 1-D p.

    g~ is formed from the weight matrices acting on the state and input
    differences (the biases cancel), which coincides with g(u2) - g(u1).
    """
    d = Dims.of(net)
    U1 = np.asarray(U1, dtype=float)
    shape = U1.shape[:-1]
    U1 = U1.reshape(-1, d.n_u)
    U2 = np.asarray(U2, dtype=float).reshape(U1.shape)
    Z = (evaluate_batch(net, U2.T, config)[1] - evaluate_batch(net, U1.T, config)[1]).T
    U = U2 - U1
    G = Z @ net.W_fx.T + U @ net.W_fu.T
    P = np.empty((len(U), d.N_p))
    P[:, d.sl_g_pm] = np.concatenate([relu(G), relu(-G)], axis=1)
    P[:, d.sl_u_pm] = np.concatenate([relu(U), relu(-U)], axis=1)
    P[:, d.sl_z] = Z
    P[:, d.sl_u] = U
    P[:, d.idx_one] = 1.0
    return P.reshape(shape + (d.N_p,))


_LEMMA_MAX_STATES = 8       # states of the lemma suite's random networks
_LEMMA_SLACK_TOL = 1e-8     # see lemma_property_suite


@dataclass
class LemmaSuiteResult:
    num_networks: int
    pairs_per_network: int
    min_normalized_slack: float
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def lemma_property_suite(
    num_networks: int = 200,
    pairs_per_network: int = 1000,
    seed: int = 0,
) -> LemmaSuiteResult:
    """Stress-test the nonnegativity lemma behind the relaxation.

    For random well-posed networks, random nonnegative multipliers and
    random input pairs from a random pair set, each of the three multiplier
    forms (state slope, output split, input set) evaluated on the realized
    incremental vector must be nonnegative up to _LEMMA_SLACK_TOL (1 + |p|^2).
    """
    rng = np.random.default_rng(seed)
    activations = [Activation.relu(), Activation.tanh(), Activation.sigmoid_shifted()]
    # the realized vectors must be exact well below _LEMMA_SLACK_TOL
    solve = FixedPointConfig(tol=1e-12)
    worst = math.inf
    failures = 0
    for _ in range(num_networks):
        n = int(rng.integers(1, _LEMMA_MAX_STATES + 1))
        n_u = int(rng.integers(1, 4))
        n_g = int(rng.integers(1, 4))
        W_x = rng.standard_normal((n, n))
        sv = np.linalg.svd(W_x, compute_uv=False)[0]
        W_x *= rng.uniform(0.3, 0.95) / max(sv, 1e-12)
        net = ImplicitNetwork(
            W_x=W_x,
            W_u=rng.standard_normal((n, n_u)),
            W_fx=rng.standard_normal((n_g, n)),
            W_fu=rng.standard_normal((n_g, n_u)),
            b=rng.standard_normal(n),
            b_f=rng.standard_normal(n_g),
            activation=activations[int(rng.integers(len(activations)))],
        )
        d = Dims.of(net)
        pairset = InputPairSet(
            eps_u1=float(rng.uniform(0.1, 3.0)), eps_u2=float(rng.uniform(0.1, 3.0))
        )
        mults = MultiplierSet(
            T_z=rng.uniform(0.0, 2.0, size=n),
            T_g=rng.uniform(0.0, 2.0, size=n_g),
            T_u1=float(rng.uniform(0.0, 2.0)),
            T_u2=float(rng.uniform(0.0, 2.0)),
        )
        Oz = build_omega_z_check(
            d, mults.T_z, mults.T_z[:, None] * net.W_x, mults.T_z[:, None] * net.W_u
        )
        Og = build_omega_g_check(
            d, mults.T_g, mults.T_g[:, None] * net.W_fx, mults.T_g[:, None] * net.W_fu
        )
        Ou = build_omega_u(d, mults.T_u1, mults.T_u2, pairset)
        U1, U2 = sample_input_pairs(
            pairset,
            n_u,
            SampleSpec(num_pairs=pairs_per_network, base_box=(-3.0, 3.0)),
            rng,
        )
        P = assemble_p(net, U1, U2, solve)
        norm2 = np.sum(P * P, axis=1)
        for omega in (Oz, Og, Ou):
            s = np.einsum("ki,ij,kj->k", P, omega, P)
            normalized = s / (1.0 + norm2)
            worst = min(worst, float(np.min(normalized)))
            failures += int(np.sum(normalized < -_LEMMA_SLACK_TOL))
    return LemmaSuiteResult(
        num_networks=num_networks,
        pairs_per_network=pairs_per_network,
        min_normalized_slack=worst,
        failures=failures,
    )
