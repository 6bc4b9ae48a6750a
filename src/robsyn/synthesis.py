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
|Psi_ij - W_ij| <= eps.  The state block Y_z enters the certificate only
through its symmetric part, so each mirrored pair D_ij, D_ji is one
variable s_ij, their sum, bounded by the sum of the two boxes; extraction
splits it back (see _extract_solution).  A block with tolerance zero
contributes no variables; its product is T W.  With all tolerances zero
the program is the analysis program, and analyze_network is exactly that
case.

The certificate itself is written down once, in
multipliers.certificate_matrix.  The PSD block is derived from it: _unpack
maps a decision vector to the certificate's arguments, and the affine map
is evaluated once at zero and then at the basis directions a fixed-size
chunk at a time, keeping only each chunk's nonzero coefficients, so that
assembly memory is bounded by the chunk and the nonzeros, not by the
number of variables (see _psd_blocks).

When the reference network is odd under a permutation pi of its states
(W_x[pi][:, pi] == W_x, W_u[pi] == -W_u and W_fx[:, pi] == -W_fx, exactly;
see odd_symmetry), the program is solved over the orbits of that symmetry.
The symmetry acts on the decision vector as a signed permutation, on the
certificate's vector p as a signed permutation Pi, and the certificate
obeys M(g theta) = Pi M(theta) Pi'.  The program is convex and the weight
boxes, the floors and the objective are invariant, so averaging any optimum
over the group gives an invariant optimum with the same objective (Gatermann
& Parrilo, "Symmetry groups, semidefinite programs, and sums of squares",
J. Pure Appl. Algebra 2004).  The program's variables are therefore the
orbit coordinates phi of theta = U phi (VariableLayout.basis), its rows are
a' U, made once per orbit because mirrored rows coincide, and its PSD block,
which commutes with Pi on the orbits, splits into one block per eigenspace
of Pi.  A fixed variable that the symmetry flips is zero on the orbits: its
box rows reduce to -eps t <= 0, implied by the floors, and are not made.
The solution is expanded back to theta before extraction, so the
synthesized network is exactly odd too.
A network without the symmetry is reduced by the trivial group, the
degenerate case: U = I and one eigenspace, all of p, so its program is the
program in theta itself, built on the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse

from .conic import (
    ConicProgram,
    LinearRows,
    PsdBlockMap,
    SolverOptions,
    SolverResult,
    SolverStatus,
    solve_conic,
    svec_indices,
)
from .errors import Infeasible, NumericalFailure
from .multipliers import Dims, InputPairSet, MultiplierSet, certificate_matrix
from .network import ImplicitNetwork

# A block coordinate whose row, in the constant and in every coefficient
# matrix, is at most this fraction of the block's largest entry is neutral:
# the certificate matrix vanishes on it for every decision vector (the face
# V = {[a; a]} of the MPC bridge networks' z slice), so no strictly shifted
# block exists and the coordinate is dropped instead.  Such rows are rounding
# noise of the block's assembly, at most 5.1e-17 of the largest entry on the
# paper-MPC network and its bridges; live rows are at least 2.6e-2 of it.
# The threshold sits well above the first and far below the second.
_NEUTRAL_ROW = 1e-12

# Iteration budget for first-attempt (uncapped) solves, which only
# instances whose tolerance box zeroes no row make (see _box_zeroes_a_row).
# Healthy instances converge well inside this; an instance drifting along
# an unbounded multiplier ray (see _MULTIPLIER_CAP) that the rule does not
# foresee only burns iterations, so the budget bounds the cost of
# discovering that the capped rescue is needed.
_UNCAPPED_ITER_BUDGET = 80

# Upper bound on every diagonal multiplier in the capped solve (see
# synthesize): far above the scale of any multiplier the uncapped program
# resolves, it only closes off the ray along which the multipliers of the
# rows a loose tolerance can zero run away.  An instance with such a row
# is solved capped from the start; any other only as the rescue.
_MULTIPLIER_CAP = 1e6

# Size of one chunk of certificate matrices in _psd_blocks: the columns of
# the orbit basis are evaluated this many bytes' worth at a time, so that
# assembly memory does not grow with the number of variables.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights on the three bound coefficients in the synthesis objective."""

    gamma: float = 1.0
    gamma_u1: float = 1.0
    gamma_u2: float = 1.0

    def __post_init__(self):
        for name in ("gamma", "gamma_u1", "gamma_u2"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"objective weights must be nonnegative and finite, got {value!r} for {name}"
                )
        if self.gamma == self.gamma_u1 == self.gamma_u2 == 0:
            raise ValueError("at least one objective weight must be positive")


@dataclass(frozen=True)
class SimilarityTolerances:
    """Per-block absolute deviation budgets for the synthesized weights.

    A budget eps on block W means every entry satisfies
    |Psi[i, j] - W[i, j]| <= eps (enforced in the convexified variables as
    |Y[i, j] - t_i W[i, j]| <= eps * t_i; for the state block W_x, whose
    mirrored entries the program merges, as
    |Y[i, j] + Y[j, i] - t_i W[i, j] - t_j W[j, i]| <= eps * (t_i + t_j)).
    A budget of zero pins the block to the reference exactly.
    """

    w_x: float = 0.0
    w_u: float = 0.0
    w_fx: float = 0.0
    w_fu: float = 0.0

    def __post_init__(self):
        for name in ("w_x", "w_u", "w_fx", "w_fu"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"tolerance {name} must be nonnegative and finite, got {value!r}")

    @classmethod
    def uniform(cls, eps: float) -> "SimilarityTolerances":
        return cls(w_x=eps, w_u=eps, w_fx=eps, w_fu=eps)


@dataclass
class SynthesisProblem:
    """Reference network, input pair set, tolerances and options for one run.

    strictness_shift is the margin by which the certificate matrix is pushed
    into the negative definite cone; t_floor is the lower bound on the
    diagonal multipliers (both keep the synthesized network certifiably
    well-posed rather than marginally so).  fixed_gamma_u1/u2 pin a bound
    coefficient to a given value instead of optimizing it.
    """

    network: ImplicitNetwork
    input_set: InputPairSet
    tolerances: SimilarityTolerances
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    fixed_gamma_u1: float | None = None
    fixed_gamma_u2: float | None = None
    strictness_shift: float = 1e-8
    t_floor: float = 1e-6

    def __post_init__(self):
        for name in ("strictness_shift", "t_floor"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("fixed_gamma_u1", "fixed_gamma_u2"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


@dataclass(frozen=True)
class VariableLayout:
    """Index map of the decision vector.

    Order: diag T_z, diag T_g, T_u1, T_u2, then the deviations D = Y - T W
    of the convexified weight blocks Y_z, Y_u, Y_gz, Y_gu from the reference
    network's (W_x, W_u, W_fx, W_fu), then gamma, gamma_u1, gamma_u2.  The
    D of Y_u, Y_gz and Y_gu are row-major.  Y_z enters the certificate only
    through (Y_z + Y_z') / 2, so D_ij and D_ji only through their sum: its
    slice holds the n (n + 1) / 2 sums s_ij = D_ij + D_ji (i < j) and
    s_ii = D_ii, upper triangle row-major, placed in an upper-triangular
    D_z.  A block with tolerance zero has an empty slice: its product is
    Y = T W and the block has no variables.

    Deviation rather than Y coordinates keep the weight rows well
    conditioned.  In Y they carry t_i (W_ij +- eps), so near the optimum the
    interior-point normal matrix holds large t_i W_ij^2 terms that cancel
    almost exactly and swamp the curvature the certificate block gives t_i;
    in D they read +-D_ij <= eps t_i, and +-s_ij <= eps (t_i + t_j) for
    a merged pair, the exact sum of the two boxes.

    basis is the orbit basis U (sparse, num_vars x columns, entries 0 and
    +-1) of the program's symmetry group: the program's variables are the
    coefficients phi of theta = U phi (see assemble_synthesis_sdp).
    layout_variables gives the trivial group's U = I, under which phi is
    theta itself; assembly replaces it for an odd network.
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
    basis: scipy.sparse.csr_array = field(compare=False, repr=False)


def layout_variables(dims: Dims, tolerances: SimilarityTolerances) -> VariableLayout:
    n, n_u, n_g = dims.n, dims.n_u, dims.n_g
    pos = 0

    def take(count: int) -> slice:
        nonlocal pos
        sl = slice(pos, pos + count)
        pos += count
        return sl

    def deviations(count: int, eps: float) -> slice:
        return take(count if eps > 0 else 0)

    return VariableLayout(
        dims=dims,
        sl_T_z=take(n),
        sl_T_g=take(n_g),
        idx_T_u1=take(1).start,
        idx_T_u2=take(1).start,
        sl_D_z=deviations(n * (n + 1) // 2, tolerances.w_x),
        sl_D_u=deviations(n * n_u, tolerances.w_u),
        sl_D_gz=deviations(n_g * n, tolerances.w_fx),
        sl_D_gu=deviations(n_g * n_u, tolerances.w_fu),
        idx_gamma=take(1).start,
        idx_gamma_u1=take(1).start,
        idx_gamma_u2=take(1).start,
        num_vars=pos,
        basis=scipy.sparse.eye_array(pos, format="csr"),
    )


def _unpack(problem: SynthesisProblem, layout: VariableLayout, theta: np.ndarray):
    """The certificate's arguments at the decision vector theta.

    Returns the multipliers, the bound coefficients (gamma, gamma_u1,
    gamma_u2), the weight products [Y_z, Y_u, Y_gz, Y_gu] and their
    deviations D from T W.  A block with positive tolerance has
    Y = T W + D, where D_z is upper triangular (see VariableLayout); a
    block with tolerance zero has Y = T W and D None.
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
            continue
        if sl is layout.sl_D_z:
            iu = np.triu_indices(W.shape[0])
            D = np.zeros(batch + W.shape)
            D[..., iu[0], iu[1]] = theta[..., sl]
        else:
            D = theta[..., sl].reshape(batch + W.shape)
        products.append(TW + D)
        deviations.append(D)
    return mults, gammas, products, deviations


def odd_symmetry(network: ImplicitNetwork) -> np.ndarray | None:
    """The state permutation pi under which the network is odd, or None.

    The candidate pairs each row of W_u with the one row equal to its
    negation; it is accepted when it is an involution with
    W_x[pi][:, pi] == W_x and W_fx[:, pi] == -W_fx, all exactly.  Then
    z -> z[pi], u -> -u, g -> -g maps the network's incremental relations
    onto themselves.  The biases do not enter the certificate, so they are
    not compared.
    """
    W_u = network.W_u + 0.0  # -0.0 -> 0.0, so equal rows have equal bytes
    rows: dict[bytes, list[int]] = {}
    for j, row in enumerate(W_u):
        rows.setdefault(row.tobytes(), []).append(j)
    pi = []
    for row in W_u:
        match = rows.get((0.0 - row).tobytes(), [])
        if len(match) != 1:
            return None
        pi.append(match[0])
    pi = np.array(pi, dtype=np.intp)
    if (
        np.array_equal(pi[pi], np.arange(pi.size))
        and np.array_equal(network.W_x[np.ix_(pi, pi)], network.W_x)
        and np.array_equal(network.W_fx[:, pi], -network.W_fx)
    ):
        return pi
    return None


def _variable_action(layout: VariableLayout, pi: np.ndarray):
    """The symmetry on the decision vector, (g theta)[k] = sign[k] theta[perm[k]]:
    T_z[i] ~ T_z[pi i], s_ij ~ s_{pi i, pi j}, D_u[i, :] ~ -D_u[pi i, :] and
    D_gz[:, j] ~ -D_gz[:, pi j]; T_g, T_u1, T_u2, D_gu and the gammas are
    fixed."""
    n, n_u, n_g = layout.dims.n, layout.dims.n_u, layout.dims.n_g
    perm = np.arange(layout.num_vars)
    sign = np.ones(layout.num_vars)
    iu = np.triu_indices(n)
    merged = np.zeros((n, n), dtype=np.intp)
    merged[iu] = merged.T[iu] = np.arange(iu[0].size)
    for sl, moved, flip in (
        (layout.sl_T_z, pi, False),
        (layout.sl_D_z, merged[pi[iu[0]], pi[iu[1]]], False),
        (layout.sl_D_u, (pi[:, None] * n_u + np.arange(n_u)).ravel(), True),
        (layout.sl_D_gz, (np.arange(n_g)[:, None] * n + pi).ravel(), True),
    ):
        if sl.start < sl.stop:
            perm[sl] = sl.start + moved
            sign[sl] = -1.0 if flip else 1.0
    return perm, sign


def _state_action(dims: Dims, pi: np.ndarray):
    """The symmetry on p, (Pi p)[k] = sign[k] p[perm[k]]: g+ <-> g-,
    u+ <-> u-, z -> z[pi], u -> -u and 1 -> 1."""
    perm = np.arange(dims.N_p)
    sign = np.ones(dims.N_p)
    for sl in (dims.sl_g_pm, dims.sl_u_pm):
        perm[sl] = np.roll(perm[sl], (sl.stop - sl.start) // 2)
    perm[dims.sl_z] = dims.sl_z.start + pi
    sign[dims.sl_u] = -1.0
    return perm, sign


def _orbit_basis(perm: np.ndarray, sign: np.ndarray) -> scipy.sparse.csr_array:
    """Basis of {x : x = sign * x[perm]} for a signed involution: a column
    e_k + sign[k] e_perm[k] per swapped pair k < perm[k] and e_k per fixed k
    with sign +1 (a fixed k with sign -1 is zero on the subspace).  Entries
    are 0 and +-1, at most one per row; the columns are ordered by their
    first index."""
    k = np.arange(perm.size)
    leads = (k < perm) | ((k == perm) & (sign > 0))
    first = k[leads]
    # each k's column: its own if it leads, its partner's if that leads
    col = np.full(perm.size, -1)
    col[perm[first]] = col[first] = np.arange(first.size)
    member = col >= 0
    indptr = np.zeros(perm.size + 1, dtype=np.intp)
    np.cumsum(member, out=indptr[1:])
    return scipy.sparse.csr_array(
        (np.where(leads, 1.0, sign[perm])[member], col[member], indptr),
        shape=(perm.size, first.size),
    )


def _psd_blocks(
    problem: SynthesisProblem,
    layout: VariableLayout,
    eigenbases: list,
) -> list[PsdBlockMap]:
    """S(theta) = -M(theta) - shift I >= 0 on the live coordinates, with
    shift the problem's strictness_shift, derived from the certificate.

    M is affine in theta, so certificate_matrix evaluated at 0 and at each
    column u_r of the orbit basis gives A_0 = -M(0) and A_r = -(M(u_r) -
    M(0)).  The rows of [0; U'] are evaluated a chunk at a time,
    _CHUNK_BYTES worth of matrices per chunk, each chunk's rows made dense
    from U's entries alone, so memory is bounded by the chunk and the
    blocks' nonzeros, not by the number of columns.  Each entry of
    eigenbases holds the eigenvectors V (entries 0 and +-1) of one
    eigenspace of the symmetry on p; on the orbits M commutes with that
    symmetry, so S is block diagonal in the orthonormal eigenbasis and each
    V gives one block, V' S V with its columns normalised.  With entries 0
    and +-1 each product adds at most two nonzero terms, so the entries zero
    by symmetry come out exactly zero, and the trivial group's V = I gives
    the whole block unchanged.  Of each chunk's projection only the
    nonzeros of the upper triangles are kept; they become one CSR matrix
    per block at the end.

    A coordinate whose row is zero to rounding in A_0 and in every A_r
    (see _NEUTRAL_ROW; the row maxima run over the chunks) spans a face on
    which M is zero whatever theta is, so M <= -shift I cannot hold there
    (facial reduction; Borwein & Wolkowicz 1981, Permenter & Parrilo 2018).
    The block keeps the principal sub-block of the other, live,
    coordinates, and the shift applies to those; a block with every
    coordinate live is left as built.

    Each block is handed over in the solver's format: the dense constant,
    and row r of the coefficients the nonzeros of the upper triangle of A_r.
    """
    dims = layout.dims
    U = layout.basis
    nv = U.shape[1]
    # row j of the stack [0; U'] is theta = 0 for j = 0 and u_{j-1} after;
    # a variable has at most one entry in U, in its orbit's column
    var = np.repeat(np.arange(U.shape[0]), np.diff(U.indptr))
    row = U.indices + 1
    step = max(1, _CHUNK_BYTES // (8 * dims.N_p**2))
    for start in range(0, nv + 1, step):
        stop = min(start + step, nv + 1)
        chunk = (row >= start) & (row < stop)
        theta = np.zeros((stop - start, layout.num_vars))
        theta[row[chunk] - start, var[chunk]] = U.data[chunk]
        mults, gammas, products, _ = _unpack(problem, layout, theta)
        A = certificate_matrix(dims, mults, problem.input_set, *gammas, *products)
        if start == 0:
            M0 = A[0].copy()
            # per eigenspace: V, its column scale 1 / (|v_i| |v_j|) (exactly
            # 1/2 between two swapped pairs), the upper triangle's indices,
            # the constant, the running row maxima and the chunks' nonzeros
            spaces = []
            for V in eigenbases:
                counts = np.count_nonzero(V, axis=0)
                scale = 1.0 / np.sqrt(np.outer(counts, counts))
                A0 = (V.T @ -M0 @ V) * scale
                iu = svec_indices(V.shape[1])[0]
                spaces.append((V, scale, iu, A0, np.abs(A0).max(axis=1), []))
        # row 0 becomes exactly zero, so it adds no nonzero and no maximum
        A -= M0
        np.negative(A, out=A)
        for V, scale, iu, _, rows, nonzeros in spaces:
            A_blk = (V.T @ A @ V) * scale
            np.maximum(rows, np.abs(A_blk).max(axis=(0, 2)), out=rows)
            svecs = A_blk[:, iu[0], iu[1]]
            r, c = np.nonzero(svecs)
            nonzeros.append((start - 1 + r, c, svecs[r, c]))
    blocks = []
    for _, _, iu, A0, rows, nonzeros in spaces:
        live = rows > _NEUTRAL_ROW * rows.max()
        # each svec entry's position among the live coordinates' entries
        kept = live[iu[0]] & live[iu[1]]
        position = np.cumsum(kept) - 1
        r, c, values = (np.concatenate(parts) for parts in zip(*nonzeros))
        keep = kept[c]
        coeffs = scipy.sparse.csr_array(
            (values[keep], position[c[keep]], np.searchsorted(r[keep], np.arange(nv + 1))),
            shape=(nv, np.count_nonzero(kept)),
        )
        A0 = A0[np.ix_(live, live)]
        shift = problem.strictness_shift * np.eye(A0.shape[0])
        blocks.append(PsdBlockMap(const=A0 - shift, coeffs=coeffs))
    return blocks


def _rows_over(rows: list, U: scipy.sparse.csr_array) -> LinearRows:
    """The rows (a' U, r) over the orbit coordinates of rows (a, r), each a
    given by its (variable, coefficient) entries.  A variable has at most
    one entry in U, in its orbit's column, so a' U moves each entry of a
    there, times U's entry.  A row is made only when its first variable
    leads its orbit (is its column's first): the other variable's rows are
    the leader's, mirrored, and a variable in no orbit is zero on them."""
    var = np.repeat(np.arange(U.shape[0]), np.diff(U.indptr))
    # per variable: its orbit's column, its entry of U there, whether it leads
    col, unit, leads = np.zeros((3, U.shape[0]))
    col[var], unit[var] = U.indices, U.data
    leads[var[np.unique(U.indices, return_index=True)[1]]] = 1.0
    kept = [(entries, r) for entries, r in rows if leads[entries[0][0]]]
    k, a = np.array([e for entries, _ in kept for e in entries]).reshape(-1, 2).T
    k = k.astype(np.intp)
    reduced = scipy.sparse.csr_array(
        (a * unit[k], col[k].astype(np.intp), np.cumsum([0] + [len(e) for e, _ in kept])),
        shape=(len(kept), U.shape[1]),
    )
    return LinearRows(reduced, [r for _, r in kept])


def assemble_synthesis_sdp(problem: SynthesisProblem) -> tuple[ConicProgram, VariableLayout]:
    """Build the conic program for the given problem, in deviation
    coordinates (see VariableLayout).

    The program is over the orbit coordinates phi of theta = U phi, with U
    the returned layout's basis: every row is a' U, made once per orbit
    (see _rows_over), and the PSD block is split into one block per
    eigenspace of the symmetry on p.  An odd network (see odd_symmetry) is
    reduced by its odd symmetry: for the paper-MPC network at a positive
    uniform tolerance that is 275 variables instead of 505, 523 inequality
    rows instead of 973, and blocks of 23 and 24 instead of one of 47;
    analysis has 25 variables instead of 35.  Any other network is reduced
    by the trivial group, so U = I and its program is in theta itself.

    Each PSD block requires M <= -strictness_shift I on its live
    coordinates; a neutral face, on which M vanishes whatever the decision
    vector, is dropped from the block (see _psd_blocks).  On the paper-MPC
    network that is 10 coordinates of the 23-block in analysis (blocks of 13
    and 24) and none at a positive tolerance.  The inequality rows end with
    gamma >= 0 and, for each unpinned gain, gamma_u >= 0 (see
    _with_multiplier_cap, which inserts its rows before them).
    """
    dims = Dims.of(problem.network)
    tol = problem.tolerances
    layout = layout_variables(dims, tol)
    # the trivial group's action on p; the odd symmetry replaces it and U
    perm, sign = np.arange(dims.N_p), np.ones(dims.N_p)
    pi = odd_symmetry(problem.network)
    if pi is not None:
        layout = replace(layout, basis=_orbit_basis(*_variable_action(layout, pi)))
        perm, sign = _state_action(dims, pi)
    # one block per nonempty eigenspace; the trivial group has only the first
    eigenbases = [
        V.toarray() for V in (_orbit_basis(perm, sign), _orbit_basis(perm, -sign)) if V.shape[1]
    ]

    objective = np.zeros(layout.num_vars)
    objective[layout.idx_gamma] = problem.weights.gamma
    objective[layout.idx_gamma_u1] = problem.weights.gamma_u1
    objective[layout.idx_gamma_u2] = problem.weights.gamma_u2

    # rows in theta as (variable, coefficient) entries and right-hand side:
    # weight rows +-D_ij - eps t_i <= 0, i.e. |Psi_ij - W_ij| <= eps, and
    # +-s_ij - eps (t_i + t_j) <= 0 for a merged pair s_ij = D_ij + D_ji
    t_z = layout.sl_T_z.start
    merged = range(layout.sl_D_z.start, layout.sl_D_z.stop)
    boxes = [
        (k, (t_z + i,) if i == j else (t_z + i, t_z + j), tol.w_x)
        for k, i, j in zip(merged, *np.triu_indices(dims.n))
    ]
    for sl_D, sl_T, cols, eps in (
        (layout.sl_D_u, layout.sl_T_z, dims.n_u, tol.w_u),
        (layout.sl_D_gz, layout.sl_T_g, dims.n, tol.w_fx),
        (layout.sl_D_gu, layout.sl_T_g, dims.n_u, tol.w_fu),
    ):
        for k in range(sl_D.start, sl_D.stop):
            boxes.append((k, (sl_T.start + (k - sl_D.start) // cols,), eps))
    inequalities = [
        ([(k, sign)] + [(t, -eps) for t in t_idx], 0.0)
        for k, t_idx, eps in boxes
        for sign in (1.0, -1.0)
    ]
    # floors on diag T_z and diag T_g, which lead the decision vector
    inequalities += [([(k, -1.0)], -problem.t_floor) for k in range(layout.sl_T_g.stop)]
    for k in (layout.idx_T_u1, layout.idx_T_u2, layout.idx_gamma):
        inequalities.append(([(k, -1.0)], 0.0))

    # fixed bound coefficients are pinned by equality; the nonnegativity row
    # is dropped so a strictly feasible interior survives
    u1, u2 = layout.idx_gamma_u1, layout.idx_gamma_u2
    gains = [(u1, problem.fixed_gamma_u1), (u2, problem.fixed_gamma_u2)]
    inequalities += [([(k, -1.0)], 0.0) for k, fixed in gains if fixed is None]
    equalities = [([(k, 1.0)], fixed) for k, fixed in gains if fixed is not None]

    U = layout.basis
    program = ConicProgram(
        num_vars=U.shape[1],
        objective=objective @ U + 0.0,
        equalities=_rows_over(equalities, U),
        inequalities=_rows_over(inequalities, U),
        psd_blocks=_psd_blocks(problem, layout, eigenbases),
    )
    return program, layout


def _zeroable_rows(
    network: ImplicitNetwork, tolerances: SimilarityTolerances
) -> tuple[np.ndarray, np.ndarray]:
    """The state and output rows that weights within the tolerance box of
    the network's can zero, as sorted index arrays.

    A state row i is zeroable when |W_u[i]| <= w_u, its off-diagonal W_x row
    over the live states is <= w_x and W_x[i, i] - w_x < 1: its state can
    then be held at zero.  An output row k is zeroable when
    |W_fu[k]| <= w_fu and its W_fx row over the live states is <= w_fx.  A
    zeroed state is no longer live, so the rule repeats until nothing
    changes.  The multipliers of these rows are the ones that run away (see
    _MULTIPLIER_CAP): their terms of the certificate can be made to vanish,
    so the uncapped optimum is an infimum.
    """
    tol = tolerances
    fits_x = np.abs(network.W_x) <= tol.w_x
    np.fill_diagonal(fits_x, True)
    fits_fx = np.abs(network.W_fx) <= tol.w_fx
    may_zero = np.all(np.abs(network.W_u) <= tol.w_u, axis=1) & (
        network.W_x.diagonal() - tol.w_x < 1
    )
    states = np.zeros(network.n, dtype=bool)
    while True:
        # a row fits when each entry fits or lies in a zeroed state's column
        grown = may_zero & np.all(fits_x | states, axis=1)
        if np.array_equal(grown, states):
            break
        states = grown
    outputs = np.all(np.abs(network.W_fu) <= tol.w_fu, axis=1) & np.all(fits_fx | states, axis=1)
    return np.flatnonzero(states), np.flatnonzero(outputs)


def _box_zeroes_a_row(network: ImplicitNetwork, tolerances: SimilarityTolerances) -> bool:
    """Whether the tolerance box zeroes a row that the network does not have
    at zero already: a zeroable row (see _zeroable_rows) with a nonzero
    entry off the W_x diagonal.  A row that is zero in the reference is
    left to the ladder, since the box moves nothing to zero it: the small
    networks with such rows (a state that reads and feeds nothing, an
    output that reads nothing) end their uncapped solves optimal or
    infeasible in 7 to 37 iterations."""
    states, outputs = _zeroable_rows(network, tolerances)
    off_diagonal = network.W_x - np.diag(network.W_x.diagonal())
    return any(
        np.any(W[rows])
        for W, rows in (
            (off_diagonal, states), (network.W_u, states),
            (network.W_fx, outputs), (network.W_fu, outputs),
        )
    )


def _with_multiplier_cap(
    problem: SynthesisProblem, program: ConicProgram, layout: VariableLayout
) -> ConicProgram:
    """The rescue program: the assembled program plus T <= _MULTIPLIER_CAP
    on every diagonal multiplier (diag T_z, diag T_g, T_u1 and T_u2, which
    lead the decision vector), placed before the trailing gamma >= 0 rows."""
    caps = [([(k, 1.0)], _MULTIPLIER_CAP) for k in range(layout.idx_T_u2 + 1)]
    caps = _rows_over(caps, layout.basis)
    rows = program.inequalities
    cut = len(rows) - 1 - (problem.fixed_gamma_u1 is None) - (problem.fixed_gamma_u2 is None)
    return replace(program, inequalities=LinearRows(
        scipy.sparse.vstack([rows.coeffs[:cut], caps.coeffs, rows.coeffs[cut:]], format="csr"),
        np.concatenate([rows.rhs[:cut], caps.rhs, rows.rhs[cut:]]),
    ))


@dataclass(frozen=True)
class RobustnessCertificate:
    """Certified bound coefficients over a given input pair set.

    lmi_margin is the largest eigenvalue of the certificate matrix at the
    solution.  On its live coordinates the program holds the matrix at or
    below -strictness_shift, up to solver tolerance; on a neutral face (see
    _psd_blocks) the matrix is zero whatever the multipliers, and its
    eigenvalues there are rounding noise of either sign.  A positive value
    is reported as is and named by SynthesisSolution.status_label.
    """

    gamma: float
    gamma_u1: float
    gamma_u2: float
    input_set: InputPairSet
    lmi_margin: float
    objective_value: float

    def bound(self, u_diff: np.ndarray) -> float | np.ndarray:
        """Certified value of gamma + gamma_u1 ||u~||_1 + gamma_u2 ||u~||_2^2;
        for a stack of differences, one value per row (the norms reduce the
        last axis)."""
        d = np.asarray(u_diff, dtype=float)
        return (
            self.gamma
            + self.gamma_u1 * np.sum(np.abs(d), axis=-1)
            + self.gamma_u2 * np.sum(d * d, axis=-1)
        )


@dataclass
class SynthesisSolution:
    """A solved program: the synthesized network, its certificate, the
    multipliers, and the decision vector theta with its layout (both in full
    deviation coordinates, see VariableLayout, also when the program was
    solved over the orbits of a symmetry).  solver_result is what
    solve_conic returned, so its theta is in the program's own variables:
    the orbit coordinates phi, with theta = layout.basis @ phi."""

    network: ImplicitNetwork
    certificate: RobustnessCertificate
    multipliers: MultiplierSet
    theta: np.ndarray
    layout: VariableLayout
    solver_result: SolverResult
    multiplier_capped: bool = False

    @property
    def status_label(self) -> str:
        """Solve outcome plus what the solution's data says about it: a
        solve that stopped short of its tolerances and returned its best
        iterate is noted as reduced accuracy, a certificate matrix whose top
        eigenvalue is above zero as positive margin, and the multiplier cap
        fallback as capped multipliers."""
        notes = []
        if self.solver_result.detail:
            notes.append("reduced accuracy")
        if self.certificate.lmi_margin > 0:
            notes.append("positive margin")
        if self.multiplier_capped:
            notes.append("capped multipliers")
        return f"optimal ({', '.join(notes)})" if notes else "optimal"


def _extract_solution(
    problem: SynthesisProblem, layout: VariableLayout, result: SolverResult
) -> SynthesisSolution:
    """The solution of a solve over the orbit coordinates phi, expanded back
    to theta = U phi; the returned solver_result is the solver's, with phi."""
    theta = layout.basis @ result.theta
    # the sign-constrained scalars may come back a rounding error below zero
    scalars = [
        layout.idx_T_u1, layout.idx_T_u2,
        layout.idx_gamma, layout.idx_gamma_u1, layout.idx_gamma_u2,
    ]
    clipped = theta.copy()
    clipped[scalars] = np.maximum(clipped[scalars], 0.0)
    mults, gammas, products, deviations = _unpack(problem, layout, clipped)
    if deviations[0] is not None:
        # split each merged s_ij (i < j) in proportion to the multipliers,
        # D_ij = s_ij t_i / (t_i + t_j) and D_ji = s_ij t_j / (t_i + t_j), so
        # that both weights move by s_ij / (t_i + t_j), inside both boxes,
        # and D_ij + D_ji = s_ij keeps the certificate's symmetric part
        T = mults.T_z
        S = np.triu(deviations[0], 1)
        deviations[0] = np.diag(np.diag(deviations[0])) + (S + S.T) * (
            T[:, None] / (T[:, None] + T[None, :])
        )
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


def synthesize(
    problem: SynthesisProblem,
    options: SolverOptions | None = None,
) -> SynthesisSolution:
    """Solve the joint synthesis program and extract network plus certificate.

    The program is assembled once.  One fallback may engage, recorded on
    the returned solution: the same program with a multiplier cap (see
    _with_multiplier_cap) for instances whose optimal multipliers run away
    (multiplier_capped).  When the tolerance box zeroes a row (see
    _box_zeroes_a_row), the uncapped optimum is an infimum, so the capped
    program is solved from the start, with the caller's options.
    Otherwise the uncapped program is solved first, within
    _UNCAPPED_ITER_BUDGET iterations, and the capped one only when it runs
    out of budget or breaks down.  A structurally marginal instance needs
    no fallback, since the neutral face of its certificate matrix is
    dropped from the program (see _psd_blocks).
    Raises Infeasible when no certificate exists within the tolerances and
    NumericalFailure when the solver cannot resolve the instance on either
    rung.
    """
    opts = options if options is not None else SolverOptions()
    program, layout = assemble_synthesis_sdp(problem)

    uncapped = None
    if not _box_zeroes_a_row(problem.network, problem.tolerances):
        # The uncapped program is tried before the capped rescue, so healthy
        # instances keep the smaller program and full accuracy.  A genuinely
        # uncertifiable problem is infeasible under both, so nothing is masked.
        budget = opts
        if opts.max_iters > _UNCAPPED_ITER_BUDGET:
            budget = replace(opts, max_iters=_UNCAPPED_ITER_BUDGET)
        uncapped = solve_conic(program, budget)
        if uncapped.status is SolverStatus.OPTIMAL and uncapped.iterations < budget.max_iters:
            return _extract_solution(problem, layout, uncapped)
        if uncapped.status is SolverStatus.INFEASIBLE:
            # the cap cannot manufacture feasibility, it sits far above any
            # resolvable multiplier scale
            raise Infeasible("no certificate exists for the requested tolerances and input set")

    # a zeroable row, a numerical breakdown, or the best iterate of a solve
    # that ran out of budget: all the sign of a runaway multiplier ray, and
    # capping T restores a bounded optimal face
    capped = solve_conic(_with_multiplier_cap(problem, program, layout), opts)
    if capped.status is SolverStatus.OPTIMAL:
        sol = _extract_solution(problem, layout, capped)
        sol.multiplier_capped = True
        return sol
    if uncapped is not None and uncapped.status is SolverStatus.OPTIMAL:
        # the cap did worse than the uncapped best iterate
        return _extract_solution(problem, layout, uncapped)
    if capped.status is SolverStatus.INFEASIBLE:
        raise Infeasible("no certificate exists for the requested tolerances and input set")
    raise NumericalFailure(f"solver failed: {capped.detail}")


def analyze_network(
    network: ImplicitNetwork,
    input_set: InputPairSet,
    fixed_gamma_u1: float | None = None,
    fixed_gamma_u2: float | None = None,
) -> SynthesisSolution:
    """Certify the given network as-is (no weight freedom).

    This is synthesis with all tolerances zero: no weight block has
    variables, so the program holds only the multipliers and the bound
    coefficients.  The returned network has the input network's weights;
    the objective weights, strictness_shift and t_floor are
    SynthesisProblem's defaults and the solver options SolverOptions()'s.
    For others, call synthesize with SimilarityTolerances.uniform(0.0).
    """
    problem = SynthesisProblem(
        network=network,
        input_set=input_set,
        tolerances=SimilarityTolerances.uniform(0.0),
        fixed_gamma_u1=fixed_gamma_u1,
        fixed_gamma_u2=fixed_gamma_u2,
    )
    return synthesize(problem)
