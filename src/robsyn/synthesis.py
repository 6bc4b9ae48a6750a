"""Joint synthesis of an approximating implicit network and its certificate.

One semidefinite program decides everything at once: diagonal multipliers
certifying well-posedness of the synthesized network, products Y = T * Psi
standing in for its weights (the change of variables that makes the search
convex), and the three coefficients (gamma, gamma_u1, gamma_u2) of a bound

    ||g(u2) - g(u1)||_1  <=  gamma + gamma_u1 ||u~||_1 + gamma_u2 ||u~||_2^2

valid for every input pair drawn from the given pair set.

The program is written in deviation coordinates: a weight block with a
positive tolerance eps contributes the deviations D = Y - T W of its
products from the reference network's, and the weight-channel rows
|D_ij| <= eps t_i keep each synthesized weight Psi = W + D / T within
|Psi_ij - W_ij| <= eps.  A block with tolerance zero contributes no
variables; its product is T W.  With all tolerances zero the program is
the analysis program, and analyze_network is exactly that case.

The certificate itself is written down once, in
multipliers.certificate_matrix.  The PSD block is derived from it: _unpack
maps a decision vector to the certificate's arguments, and the affine map
is evaluated at zero and at every unit vector in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .conic import (
    ConicProgram,
    PsdBlockMap,
    SolverOptions,
    SolverResult,
    SolverStatus,
    solve_conic,
)
from .errors import Infeasible, NumericalFailure
from .multipliers import Dims, InputPairSet, MultiplierSet, certificate_matrix
from .network import ImplicitNetwork

# Fallback margin for structurally marginal instances: when the certificate
# matrix has a fixed neutral eigendirection (a direction whose quadratic form
# is identically zero for every multiplier choice), the strictly shifted
# program is infeasible by exactly the shift although valid certificates
# exist in the closure.  Rather than fail, such instances are re-solved with
# the margin relaxed to this small positive slack; the reported lmi_margin
# makes the relaxation visible.
MARGINAL_RELAXATION = 5e-8

# Fraction of the strictness shift a strict-rung solution must keep as
# margin (lmi_margin <= -fraction * shift).  A marginal instance has no
# strictly shifted solution, yet when the shift lies below the solver's
# feasibility tolerance the solve can still converge, to a point of the
# closure whose certificate matrix is singular (lmi_margin zero to
# rounding).  Such a solution goes on to the relaxed margin like an
# infeasible one.  Healthy strict solutions keep a margin of the order of
# the shift.
_KEPT_MARGIN_FRACTION = 1e-3

# Iteration budget for first-attempt (uncapped) solves.  Healthy instances
# converge well inside this; an instance drifting along an unbounded
# multiplier ray (see SynthesisProblem.t_cap) only burns iterations, so the
# budget bounds the cost of discovering that the capped rescue is needed.
_UNCAPPED_ITER_BUDGET = 80


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights on the three bound coefficients in the synthesis objective."""

    gamma: float = 1.0
    gamma_u1: float = 1.0
    gamma_u2: float = 1.0

    def __post_init__(self):
        vals = (self.gamma, self.gamma_u1, self.gamma_u2)
        if any(v < 0 for v in vals):
            raise ValueError("objective weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("at least one objective weight must be positive")


@dataclass(frozen=True)
class SimilarityTolerances:
    """Per-block absolute deviation budgets for the synthesized weights.

    A budget eps on block W means every entry satisfies
    |Psi[i, j] - W[i, j]| <= eps (enforced in the convexified variables as
    |Y[i, j] - t_i W[i, j]| <= eps * t_i).  A budget of zero
    pins the block to the reference exactly.
    """

    w_x: float = 0.0
    w_u: float = 0.0
    w_fx: float = 0.0
    w_fu: float = 0.0

    def __post_init__(self):
        for name in ("w_x", "w_u", "w_fx", "w_fu"):
            if getattr(self, name) < 0:
                raise ValueError(f"tolerance {name} must be nonnegative")

    @classmethod
    def uniform(cls, eps: float) -> "SimilarityTolerances":
        return cls(w_x=eps, w_u=eps, w_fx=eps, w_fu=eps)


@dataclass
class SynthesisProblem:
    """Reference network, input pair set, tolerances and options for one run.

    strictness_shift is the margin by which the certificate matrix is pushed
    into the negative definite cone; t_floor is the lower bound on the
    diagonal multipliers (both keep the synthesized network certifiably
    well-posed rather than marginally so).  t_cap bounds the multipliers
    from above in the capped rescue solve (see synthesize); it is far above
    the scale of any multiplier the uncapped program resolves.
    fixed_gamma_u1/u2 pin a bound coefficient to a given value instead of
    optimizing it.
    """

    network: ImplicitNetwork
    input_set: InputPairSet
    tolerances: SimilarityTolerances
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    fixed_gamma_u1: float | None = None
    fixed_gamma_u2: float | None = None
    strictness_shift: float = 1e-8
    t_floor: float = 1e-6
    t_cap: float = 1e6

    def __post_init__(self):
        act = self.network.activation
        if act.slope_lo < 0 or act.slope_hi > 1:
            raise ValueError(
                "certificate requires activation slopes restricted to [0, 1], "
                f"got [{act.slope_lo}, {act.slope_hi}]"
            )
        if self.strictness_shift <= 0:
            raise ValueError("strictness_shift must be positive")
        if self.t_floor <= 0:
            raise ValueError("t_floor must be positive")
        if self.t_cap <= self.t_floor:
            raise ValueError("t_cap must exceed t_floor")
        for name in ("fixed_gamma_u1", "fixed_gamma_u2"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class VariableLayout:
    """Index map of the decision vector.

    Order: diag T_z, diag T_g, T_u1, T_u2, then the row-major deviations
    D = Y - T W of the convexified weight blocks Y_z, Y_u, Y_gz, Y_gu from
    the reference network's (W_x, W_u, W_fx, W_fu), then gamma, gamma_u1,
    gamma_u2.  A block with tolerance zero has an empty slice: its product
    is Y = T W and the block has no variables.

    Deviation rather than Y coordinates keep the weight rows well
    conditioned.  In Y they carry t_i (W_ij +- eps), so near the optimum the
    interior-point normal matrix holds large t_i W_ij^2 terms that cancel
    almost exactly and swamp the curvature the certificate block gives t_i;
    in D they read +-D_ij <= eps t_i.
    """

    dims: Dims
    sl_T_z: slice
    sl_T_g: slice
    idx_T_u1: int
    idx_T_u2: int
    sl_D_z: slice
    sl_D_u: slice
    sl_D_gz: slice
    sl_D_gu: slice
    idx_gamma: int
    idx_gamma_u1: int
    idx_gamma_u2: int
    num_vars: int


def layout_variables(dims: Dims, tolerances: SimilarityTolerances) -> VariableLayout:
    n, n_u, n_g = dims.n, dims.n_u, dims.n_g
    pos = 0

    def take(count: int) -> slice:
        nonlocal pos
        sl = slice(pos, pos + count)
        pos += count
        return sl

    def deviations(rows: int, cols: int, eps: float) -> slice:
        return take(rows * cols if eps > 0 else 0)

    return VariableLayout(
        dims=dims,
        sl_T_z=take(n),
        sl_T_g=take(n_g),
        idx_T_u1=take(1).start,
        idx_T_u2=take(1).start,
        sl_D_z=deviations(n, n, tolerances.w_x),
        sl_D_u=deviations(n, n_u, tolerances.w_u),
        sl_D_gz=deviations(n_g, n, tolerances.w_fx),
        sl_D_gu=deviations(n_g, n_u, tolerances.w_fu),
        idx_gamma=take(1).start,
        idx_gamma_u1=take(1).start,
        idx_gamma_u2=take(1).start,
        num_vars=pos,
    )


def _unpack(problem: SynthesisProblem, layout: VariableLayout, theta: np.ndarray):
    """The certificate's arguments at the decision vector theta.

    Returns the multipliers, the bound coefficients (gamma, gamma_u1,
    gamma_u2), the weight products [Y_z, Y_u, Y_gz, Y_gu] and their
    deviations D from T W.  A block with positive tolerance has
    Y = T W + D; a block with tolerance zero has Y = T W and D None.
    theta may carry leading batch axes, which every output then carries.
    """
    net = problem.network
    batch = theta.shape[:-1]
    T_z = theta[..., layout.sl_T_z]
    T_g = theta[..., layout.sl_T_g]
    mults = MultiplierSet(
        T_z=T_z, T_g=T_g, T_u1=theta[..., layout.idx_T_u1], T_u2=theta[..., layout.idx_T_u2]
    )
    gammas = tuple(
        theta[..., k] for k in (layout.idx_gamma, layout.idx_gamma_u1, layout.idx_gamma_u2)
    )
    products, deviations = [], []
    for W, T, sl in (
        (net.W_x, T_z, layout.sl_D_z),
        (net.W_u, T_z, layout.sl_D_u),
        (net.W_fx, T_g, layout.sl_D_gz),
        (net.W_fu, T_g, layout.sl_D_gu),
    ):
        TW = T[..., :, None] * W
        if sl.start == sl.stop:
            products.append(TW)
            deviations.append(None)
        else:
            D = theta[..., sl].reshape(batch + W.shape)
            products.append(TW + D)
            deviations.append(D)
    return mults, gammas, products, deviations


def _unit_row(num_vars: int, entries) -> np.ndarray:
    row = np.zeros(num_vars)
    for idx, val in entries:
        row[idx] += val
    return row


def _psd_block(
    problem: SynthesisProblem, layout: VariableLayout, shift: float
) -> PsdBlockMap:
    """S(theta) = -M(theta) - shift I >= 0, derived from the certificate.

    M is affine in theta, so one batched evaluation of certificate_matrix at
    0 and at every unit vector gives A_0 = -M(0) - shift I and
    A_k = -(M(e_k) - M(0)).
    """
    dims = layout.dims
    nv = layout.num_vars
    mults, gammas, products, _ = _unpack(
        problem, layout, np.vstack([np.zeros(nv), np.eye(nv)])
    )
    M = certificate_matrix(dims, mults, problem.input_set, *gammas, *products)
    A0 = -M[0] - shift * np.eye(dims.N_p)
    A = M[1:]
    A -= M[0]
    np.negative(A, out=A)
    iu = np.triu_indices(dims.N_p)
    upper = A[:, iu[0], iu[1]]
    k, e = np.nonzero(upper)
    c = np.flatnonzero(A0[iu])
    return PsdBlockMap(
        dim=dims.N_p,
        const=list(zip(iu[0][c].tolist(), iu[1][c].tolist(), A0[iu][c].tolist())),
        coeffs=list(
            zip(k.tolist(), iu[0][e].tolist(), iu[1][e].tolist(), upper[k, e].tolist())
        ),
    )


def assemble_synthesis_sdp(
    problem: SynthesisProblem,
    shift_override: float | None = None,
    capped: bool = False,
) -> tuple[ConicProgram, VariableLayout]:
    """Build the conic program for the given problem, in deviation
    coordinates (see VariableLayout).

    shift_override replaces the problem's strictness shift (negative values
    relax the margin; used for the marginal-instance fallback).  capped adds
    T <= t_cap rows on every diagonal multiplier; synthesize solves that
    variant only after the uncapped program fails numerically.
    """
    dims = Dims.of(problem.network)
    tol = problem.tolerances
    layout = layout_variables(dims, tol)
    nv = layout.num_vars

    # the PSD block first, so that its dense transients are freed before
    # the program's long-lived rows are allocated
    shift = problem.strictness_shift if shift_override is None else shift_override
    block = _psd_block(problem, layout, shift)

    objective = np.zeros(nv)
    objective[layout.idx_gamma] = problem.weights.gamma
    objective[layout.idx_gamma_u1] = problem.weights.gamma_u1
    objective[layout.idx_gamma_u2] = problem.weights.gamma_u2

    equalities = []
    inequalities = []

    # weight rows +-D_ij - eps t_i <= 0, i.e. |Psi_ij - W_ij| <= eps
    for sl_D, sl_T, cols, eps in (
        (layout.sl_D_z, layout.sl_T_z, dims.n, tol.w_x),
        (layout.sl_D_u, layout.sl_T_z, dims.n_u, tol.w_u),
        (layout.sl_D_gz, layout.sl_T_g, dims.n, tol.w_fx),
        (layout.sl_D_gu, layout.sl_T_g, dims.n_u, tol.w_fu),
    ):
        for k in range(sl_D.start, sl_D.stop):
            t_idx = sl_T.start + (k - sl_D.start) // cols
            inequalities.append((_unit_row(nv, [(k, 1.0), (t_idx, -eps)]), 0.0))
            inequalities.append((_unit_row(nv, [(k, -1.0), (t_idx, -eps)]), 0.0))

    for sl in (layout.sl_T_z, layout.sl_T_g):
        for idx in range(sl.start, sl.stop):
            inequalities.append((_unit_row(nv, [(idx, -1.0)]), -problem.t_floor))
    inequalities.append((_unit_row(nv, [(layout.idx_T_u1, -1.0)]), 0.0))
    inequalities.append((_unit_row(nv, [(layout.idx_T_u2, -1.0)]), 0.0))
    if capped:
        # closes off the ray along which loose-tolerance instances run away
        for sl in (layout.sl_T_z, layout.sl_T_g):
            for idx in range(sl.start, sl.stop):
                inequalities.append((_unit_row(nv, [(idx, 1.0)]), problem.t_cap))
        inequalities.append((_unit_row(nv, [(layout.idx_T_u1, 1.0)]), problem.t_cap))
        inequalities.append((_unit_row(nv, [(layout.idx_T_u2, 1.0)]), problem.t_cap))
    inequalities.append((_unit_row(nv, [(layout.idx_gamma, -1.0)]), 0.0))

    # fixed bound coefficients are pinned by equality; the nonnegativity row
    # is dropped so a strictly feasible interior survives
    if problem.fixed_gamma_u1 is None:
        inequalities.append((_unit_row(nv, [(layout.idx_gamma_u1, -1.0)]), 0.0))
    else:
        equalities.append(
            (_unit_row(nv, [(layout.idx_gamma_u1, 1.0)]), problem.fixed_gamma_u1)
        )
    if problem.fixed_gamma_u2 is None:
        inequalities.append((_unit_row(nv, [(layout.idx_gamma_u2, -1.0)]), 0.0))
    else:
        equalities.append(
            (_unit_row(nv, [(layout.idx_gamma_u2, 1.0)]), problem.fixed_gamma_u2)
        )

    program = ConicProgram(
        num_vars=nv,
        objective=objective,
        equalities=equalities,
        inequalities=inequalities,
        psd_blocks=[block],
    )
    return program, layout


@dataclass(frozen=True)
class RobustnessCertificate:
    """Certified bound coefficients over a given input pair set.

    lmi_margin is the largest eigenvalue of the certificate matrix at the
    solution (valid certificates are negative definite, so this should sit
    at or below -strictness_shift up to solver tolerance).
    """

    gamma: float
    gamma_u1: float
    gamma_u2: float
    input_set: InputPairSet
    lmi_margin: float
    objective_value: float

    def bound(self, u_diff: np.ndarray) -> float:
        """Certified value of gamma + gamma_u1 ||u~||_1 + gamma_u2 ||u~||_2^2."""
        u_diff = np.asarray(u_diff, dtype=float).reshape(-1)
        return (
            self.gamma
            + self.gamma_u1 * float(np.sum(np.abs(u_diff)))
            + self.gamma_u2 * float(u_diff @ u_diff)
        )


@dataclass
class SynthesisSolution:
    """A solved program: the synthesized network, its certificate, the
    multipliers, and the solver's decision vector theta with its layout
    (both in deviation coordinates, see VariableLayout)."""

    network: ImplicitNetwork
    certificate: RobustnessCertificate
    multipliers: MultiplierSet
    theta: np.ndarray
    layout: VariableLayout
    solver_result: SolverResult
    strictness_relaxed: bool = False
    multiplier_capped: bool = False

    @property
    def status_label(self) -> str:
        """Solve outcome plus whichever fallbacks were needed to reach it;
        a solve that stopped short of its tolerances and returned its best
        iterate is noted as reduced accuracy."""
        notes = []
        if self.solver_result.detail:
            notes.append("reduced accuracy")
        if self.strictness_relaxed:
            notes.append("relaxed margin")
        if self.multiplier_capped:
            notes.append("capped multipliers")
        return f"optimal ({', '.join(notes)})" if notes else "optimal"


def _extract_solution(
    problem: SynthesisProblem, layout: VariableLayout, result: SolverResult
) -> SynthesisSolution:
    theta = result.theta
    # the sign-constrained scalars may come back a rounding error below zero
    scalars = [
        layout.idx_T_u1, layout.idx_T_u2,
        layout.idx_gamma, layout.idx_gamma_u1, layout.idx_gamma_u2,
    ]
    clipped = theta.copy()
    clipped[scalars] = np.maximum(clipped[scalars], 0.0)
    mults, gammas, products, deviations = _unpack(problem, layout, clipped)
    ref = problem.network
    # Psi = Y / T = W + D / T, exactly W for a block with tolerance zero
    Psi = [
        W.copy() if D is None else W + D / T[:, None]
        for W, T, D in zip(
            (ref.W_x, ref.W_u, ref.W_fx, ref.W_fu),
            (mults.T_z, mults.T_z, mults.T_g, mults.T_g),
            deviations,
        )
    ]
    network = ImplicitNetwork(
        W_x=Psi[0],
        W_u=Psi[1],
        W_fx=Psi[2],
        W_fu=Psi[3],
        b=ref.b.copy(),
        b_f=ref.b_f.copy(),
        activation=ref.activation,
    )
    M = certificate_matrix(layout.dims, mults, problem.input_set, *gammas, *products)
    gamma, gamma_u1, gamma_u2 = (float(g) for g in gammas)
    certificate = RobustnessCertificate(
        gamma=gamma,
        gamma_u1=gamma_u1,
        gamma_u2=gamma_u2,
        input_set=problem.input_set,
        lmi_margin=float(np.linalg.eigvalsh(M)[-1]),
        objective_value=result.objective_value,
    )
    return SynthesisSolution(
        network=network,
        certificate=certificate,
        multipliers=mults,
        theta=theta,
        layout=layout,
        solver_result=result,
    )


def _keeps_margin(problem: SynthesisProblem, sol: SynthesisSolution) -> bool:
    kept = _KEPT_MARGIN_FRACTION * problem.strictness_shift
    return sol.certificate.lmi_margin <= -kept


def synthesize(
    problem: SynthesisProblem,
    options: SolverOptions | None = None,
    backend: str = "bundled",
) -> SynthesisSolution:
    """Solve the joint synthesis program and extract network plus certificate.

    Two fallbacks may engage, each recorded on the returned solution: a
    relaxed strictness margin for structurally marginal instances
    (strictness_relaxed) and a multiplier cap for instances whose optimal
    multipliers run away (multiplier_capped).  Raises Infeasible when no
    certificate exists within the tolerances and NumericalFailure when the
    solver cannot resolve the instance on any rung.
    """
    opts = options if options is not None else SolverOptions()
    budget = opts
    if opts.max_iters > _UNCAPPED_ITER_BUDGET:
        budget = replace(opts, max_iters=_UNCAPPED_ITER_BUDGET)

    # Fallback ladder.  Strict margin first, relaxed (see MARGINAL_RELAXATION)
    # second; within each margin the uncapped program is tried before the
    # capped rescue, so healthy instances keep the smaller program and full
    # accuracy.  A genuinely uncertifiable problem stays infeasible under
    # every rung, so nothing is masked.
    first_detail = None
    for relaxed in (False, True):
        shift = -MARGINAL_RELAXATION if relaxed else None
        program, layout = assemble_synthesis_sdp(problem, shift_override=shift)
        result = solve_conic(program, budget, backend)
        if result.status is SolverStatus.OPTIMAL:
            sol = _extract_solution(problem, layout, result)
            if relaxed or _keeps_margin(problem, sol):
                sol.strictness_relaxed = relaxed
                return sol
            # a closure point: the cap cannot restore a margin either
            continue
        if first_detail is None:
            first_detail = result.detail
        if result.status is not SolverStatus.INFEASIBLE:
            # numerical breakdown, usually a runaway multiplier ray; capping
            # T restores a bounded optimal face
            program, layout = assemble_synthesis_sdp(
                problem, shift_override=shift, capped=True
            )
            result = solve_conic(program, opts, backend)
            if result.status is SolverStatus.OPTIMAL:
                sol = _extract_solution(problem, layout, result)
                if relaxed or _keeps_margin(problem, sol):
                    sol.strictness_relaxed = relaxed
                    sol.multiplier_capped = True
                    return sol
        # fall through to the relaxed margin: either this margin is
        # infeasible (the cap cannot manufacture that, it sits far above any
        # resolvable multiplier scale) or both solves broke down

    if result.status is SolverStatus.INFEASIBLE:
        raise Infeasible(
            "no certificate exists for the requested tolerances and input set"
        )
    raise NumericalFailure(f"solver failed: {result.detail or first_detail}")


def analyze_network(
    network: ImplicitNetwork,
    input_set: InputPairSet,
    weights: ObjectiveWeights | None = None,
    fixed_gamma_u1: float | None = None,
    fixed_gamma_u2: float | None = None,
    strictness_shift: float = 1e-8,
    t_floor: float = 1e-6,
    options: SolverOptions | None = None,
    backend: str = "bundled",
) -> SynthesisSolution:
    """Certify the given network as-is (no weight freedom).

    This is synthesis with all tolerances zero: no weight block has
    variables, so the program holds only the multipliers and the bound
    coefficients.  The returned network has the input network's weights.
    """
    problem = SynthesisProblem(
        network=network,
        input_set=input_set,
        tolerances=SimilarityTolerances.uniform(0.0),
        weights=weights or ObjectiveWeights(),
        fixed_gamma_u1=fixed_gamma_u1,
        fixed_gamma_u2=fixed_gamma_u2,
        strictness_shift=strictness_shift,
        t_floor=t_floor,
    )
    return synthesize(problem, options, backend)
