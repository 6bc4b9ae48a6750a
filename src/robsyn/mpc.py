"""Bridge from linear MPC with input saturation to implicit ReLU networks.

The finite-horizon problem

    min   sum_{k=1}^{N-1} x_k' Q x_k  +  x_N' P x_N  +  sum_{k=0}^{N-1} v_k' R v_k
    s.t.  x_{k+1} = A x_k + B v_k,   x_0 = w,   |v_k| <= v_bound,

is condensed to a box-constrained QP in the stacked input vector and then
rewritten, through its KKT conditions, as an implicit network whose state is
half the constraint multiplier vector and whose output is the exact optimal
input sequence.  The bridge network therefore reproduces the MPC law, not an
approximation of it.  The bridge attaches no fixed-point hint unless given
attach_hint=True, which no shipped flow passes, so the network's own
fixed-point solver evaluates it and solve_qp_oracle stays an independent
check of that solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    MaxIterations,
    NonPositiveDefinite,
    SingularH,
    check_count,
)
from .network import Activation, ImplicitNetwork, _as_array, _size


@dataclass
class MpcProblem:
    """Data of the saturated linear-quadratic MPC problem."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    horizon: int
    v_bound: float

    def __post_init__(self):
        # n_x and n_v are read off A and B, which are checked first; every
        # matrix must then have exactly its documented shape
        n_x, n_v = _size(self.A, 0), _size(self.B, -1)
        if n_v == 0:
            # the condensed QP would have no variables
            raise DimensionMismatch(f"B must have a column, got shape {np.shape(self.B)}")
        for name, shape in (("A", (n_x, n_x)), ("B", (n_x, n_v)), ("Q", (n_x, n_x)),
                            ("R", (n_v, n_v)), ("P", (n_x, n_x))):
            M = _as_array(getattr(self, name), shape, name)
            if name in ("Q", "R", "P"):
                if not np.allclose(M, M.T, atol=1e-12):
                    raise DimensionMismatch(f"{name} must be symmetric")
                M = (M + M.T) / 2.0
            setattr(self, name, M)
        check_count(self.horizon, "horizon")
        if not 0 < self.v_bound < math.inf:
            raise ValueError(f"v_bound must be positive and finite, got {self.v_bound!r}")

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_v(self) -> int:
        return self.B.shape[1]


def reference_mpc_problem() -> MpcProblem:
    """The bundled oscillatory second-order plant with horizon 10 and
    saturation at 10; terminal weight is the associated Riccati solution."""
    return MpcProblem(
        A=np.array([[4.0 / 3.0, -2.0 / 3.0], [1.0, 0.0]]),
        B=np.array([[0.0], [1.0]]),
        Q=np.array([[1.0, -2.0 / 3.0], [-2.0 / 3.0, 3.0 / 2.0]]),
        R=np.array([[1.0]]),
        P=np.array([[7.1667, -4.2222], [-4.2222, 4.6852]]),
        horizon=10,
        v_bound=10.0,
    )


@dataclass
class CondensedQP:
    """Condensed form  J(v; w) = v'Hv + 2 v'F w + w'E w  over |v_i| <= v_bound,
    with the box stored in normalized half-space form G v <= c + S_w w
    (unit right-hand side)."""

    H: np.ndarray
    F: np.ndarray
    E: np.ndarray
    G: np.ndarray
    c: np.ndarray
    S_w: np.ndarray
    v_bound: float
    n_x: int
    n_v: int
    horizon: int

    @property
    def n_dec(self) -> int:
        return self.n_v * self.horizon

    def total_cost(self, v: np.ndarray, w: np.ndarray) -> float:
        v = np.asarray(v, dtype=float).reshape(self.n_dec)
        w = np.asarray(w, dtype=float).reshape(self.n_x)
        return float(v @ self.H @ v + 2.0 * v @ self.F @ w + w @ self.E @ w)


def condense_qp(problem: MpcProblem) -> CondensedQP:
    """Eliminate the states of the MPC problem; see the class docstring for
    the stored form.  The quadratic term is symmetrized exactly."""
    N, n_x, n_v = problem.horizon, problem.n_x, problem.n_v
    A, B = problem.A, problem.B
    # Phi rows: A, A^2, ..., A^N; Gamma block (k, j) = A^{k-j} B for j <= k
    Phi = np.zeros((N * n_x, n_x))
    Gamma = np.zeros((N * n_x, N * n_v))
    Apow = np.eye(n_x)
    powers = [Apow]
    for k in range(N):
        Apow = A @ Apow
        powers.append(Apow)
        Phi[k * n_x : (k + 1) * n_x] = Apow
    for k in range(N):
        for j in range(k + 1):
            Gamma[k * n_x : (k + 1) * n_x, j * n_v : (j + 1) * n_v] = (
                powers[k - j] @ B
            )
    Qbar = np.zeros((N * n_x, N * n_x))
    for k in range(N - 1):
        Qbar[k * n_x : (k + 1) * n_x, k * n_x : (k + 1) * n_x] = problem.Q
    Qbar[(N - 1) * n_x :, (N - 1) * n_x :] = problem.P
    Rbar = np.kron(np.eye(N), problem.R)
    H = Gamma.T @ Qbar @ Gamma + Rbar
    H = (H + H.T) / 2.0
    F = Gamma.T @ Qbar @ Phi
    E = Phi.T @ Qbar @ Phi
    E = (E + E.T) / 2.0
    n_dec = N * n_v
    G = np.vstack([np.eye(n_dec), -np.eye(n_dec)]) / problem.v_bound
    return CondensedQP(
        H=H,
        F=F,
        E=E,
        G=G,
        c=np.ones(2 * n_dec),
        S_w=np.zeros((2 * n_dec, n_x)),
        v_bound=problem.v_bound,
        n_x=n_x,
        n_v=n_v,
        horizon=N,
    )


@dataclass
class QpSolution:
    v: np.ndarray
    multipliers: np.ndarray
    iterations: int
    kkt_residual: float


def _check_positive_definite(H: np.ndarray) -> np.ndarray:
    """The eigenvalues of H, ascending, for the bridge and the oracle alike:
    SingularH when the smallest is within 1e-12 max(1, |largest|) of zero,
    NonPositiveDefinite when it is below that."""
    eigs = np.linalg.eigvalsh(H)
    floor = 1e-12 * max(1.0, abs(float(eigs[-1])))
    if float(eigs[0]) <= floor:
        if float(eigs[0]) > -floor:
            raise SingularH("condensed quadratic term is singular")
        raise NonPositiveDefinite(
            f"condensed quadratic term has eigenvalue {float(eigs[0]):.3e} < 0"
        )
    return eigs


# solve_qp_oracle's splitting stops at residuals of 10 _ORACLE_TOL
_ORACLE_TOL = 1e-12
_ORACLE_MAX_ITERS = 20_000


def solve_qp_oracle(qp: CondensedQP, w: np.ndarray) -> QpSolution:
    """Exact solution of the box QP by operator splitting plus an active-set
    polish.

    The splitting alternates a proximal quadratic step (prefactored) with a
    projection onto the box; the polish then solves the KKT system on the
    detected active set so the returned point and multipliers satisfy
    stationarity and complementarity to near machine precision.  Multipliers
    refer to the normalized rows of qp.G.
    """
    n = qp.n_dec
    w = np.asarray(w, dtype=float).reshape(qp.n_x)
    q = qp.F @ w
    vb = qp.v_bound
    eigs = _check_positive_definite(qp.H)
    rho = float(np.sqrt(eigs[0] * eigs[-1]))
    factor = scipy.linalg.cho_factor(2.0 * qp.H + rho * np.eye(n))
    relax = 1.6
    v = np.zeros(n)
    z = np.zeros(n)
    u = np.zeros(n)
    it = 0
    for it in range(1, _ORACLE_MAX_ITERS + 1):
        v = scipy.linalg.cho_solve(factor, rho * (z - u) - 2.0 * q)
        v_rel = relax * v + (1.0 - relax) * z
        z_new = np.clip(v_rel + u, -vb, vb)
        u = u + v_rel - z_new
        primal = float(np.max(np.abs(v - z_new))) if n else 0.0
        dual = rho * float(np.max(np.abs(z_new - z))) if n else 0.0
        z = z_new
        if primal <= _ORACLE_TOL * 10 and dual <= _ORACLE_TOL * 10:
            break
    else:
        raise MaxIterations(f"splitting did not converge in {_ORACLE_MAX_ITERS} iterations")

    # active-set polish: fix saturated coordinates at the bound, re-solve for
    # the free ones, and repair the set until the KKT conditions hold
    grad_tol = 1e-9 * max(1.0, float(np.max(np.abs(q))), float(np.max(np.abs(qp.H))))
    active_lo = z <= -vb + 1e-7 * vb
    active_hi = z >= vb - 1e-7 * vb
    for _ in range(2 * n + 2):
        vfix = np.where(active_hi, vb, np.where(active_lo, -vb, 0.0))
        free = ~(active_lo | active_hi)
        vp = vfix.copy()
        if np.any(free):
            Hff = qp.H[np.ix_(free, free)]
            rhs = -(q[free] + qp.H[np.ix_(free, ~free)] @ vfix[~free])
            vp[free] = np.linalg.solve(Hff, rhs)
        grad = qp.H @ vp + q                       # half the cost gradient
        mult_hi = np.where(active_hi, -2.0 * vb * grad, 0.0)
        mult_lo = np.where(active_lo, 2.0 * vb * grad, 0.0)
        wrong_mult_hi = active_hi & (mult_hi < -grad_tol)
        wrong_mult_lo = active_lo & (mult_lo < -grad_tol)
        breach_hi = free & (vp > vb + 1e-12 * vb)
        breach_lo = free & (vp < -vb - 1e-12 * vb)
        if not np.any(wrong_mult_hi | wrong_mult_lo | breach_hi | breach_lo):
            v = vp
            break
        active_hi = (active_hi & ~wrong_mult_hi) | breach_hi
        active_lo = (active_lo & ~wrong_mult_lo) | breach_lo
    else:
        vp = np.clip(v, -vb, vb)
        grad = qp.H @ vp + q
        v = vp
        active_hi = vp >= vb - 1e-9 * vb
        active_lo = vp <= -vb + 1e-9 * vb
        mult_hi = np.where(active_hi, np.maximum(-2.0 * vb * grad, 0.0), 0.0)
        mult_lo = np.where(active_lo, np.maximum(2.0 * vb * grad, 0.0), 0.0)
    lam = np.concatenate([np.maximum(mult_hi, 0.0), np.maximum(mult_lo, 0.0)])
    stat = 2.0 * (qp.H @ v + q) + qp.G.T @ lam
    comp = lam * (qp.G @ v - qp.c)
    kkt = max(
        float(np.max(np.abs(stat))) if n else 0.0,
        float(np.max(np.abs(comp))) if n else 0.0,
        float(np.max(qp.G @ v - qp.c)) if n else 0.0,
    )
    return QpSolution(v=v, multipliers=lam, iterations=it, kkt_residual=kkt)


def qp_to_implicit_network(qp: CondensedQP, attach_hint: bool = False) -> ImplicitNetwork:
    """Rewrite the box QP's KKT system as an implicit ReLU network.

    The network state is half the multiplier vector; eliminating the input
    through stationarity leaves a fixed-point equation in that state whose
    ReLU form encodes complementarity.  The output map returns the optimal
    stacked input sequence, so evaluating the network IS solving the QP.
    """
    _check_positive_definite(qp.H)
    factor = scipy.linalg.cho_factor(qp.H)
    n_dec = qp.n_dec
    HiG = scipy.linalg.cho_solve(factor, qp.G.T)       # H^{-1} G'
    HiF = scipy.linalg.cho_solve(factor, qp.F)          # H^{-1} F
    W_x = np.eye(2 * n_dec) - qp.G @ HiG
    W_u = -(qp.S_w + qp.G @ HiF)
    b = -qp.c
    W_fx = -HiG
    W_fu = -HiF
    b_f = np.zeros(n_dec)
    net = ImplicitNetwork(
        W_x=W_x,
        W_u=W_u,
        W_fx=W_fx,
        W_fu=W_fu,
        b=b,
        b_f=b_f,
        activation=Activation.relu(),
    )
    if attach_hint:
        net = net.with_hint(lambda u: solve_qp_oracle(qp, u).multipliers / 2.0)
    return net


def simulate_closed_loop(
    problem: MpcProblem,
    w0: np.ndarray,
    steps: int,
    controller=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll the closed loop w+ = A w + B v_0(w) forward.

    controller maps the state to the stacked input sequence; only the first
    input block is applied.  With controller=None the exact QP oracle is used.
    Returns (W, V) with W of shape (steps + 1, n_x) and V of shape
    (steps, n_v).
    """
    qp = condense_qp(problem)
    if controller is None:
        controller = lambda w: solve_qp_oracle(qp, w).v
    w = np.asarray(w0, dtype=float).reshape(problem.n_x)
    W = np.zeros((steps + 1, problem.n_x))
    V = np.zeros((steps, problem.n_v))
    W[0] = w
    for k in range(steps):
        v_full = np.asarray(controller(w), dtype=float).reshape(qp.n_dec)
        v0 = v_full[: problem.n_v]
        V[k] = v0
        w = problem.A @ w + problem.B @ v0
        W[k + 1] = w
    return W, V
