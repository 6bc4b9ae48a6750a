"""Self-contained conic solver for linear SDPs.

A ConicProgram is

    minimize    objective . theta
    subject to  A_eq theta == b_eq,  A_in theta <= b_in   (LinearRows each)
                A_0 + sum_k theta_k A_k  >= 0             (each PSD block)

Each part keeps one format from assembly to solver: a LinearRows is one
sparse matrix of rows and one right-hand side; a PsdBlockMap holds A_0 as a
dense symmetric matrix and the A_k as the rows of one sparse matrix, row k
the upper triangle of A_k.  The solver takes G and h straight from these
(see _ConeData).  The equality rows, which must be linearly independent,
are eliminated once: theta = x0 + N x with N spanning their null space.
The solver is an interior-point method for the homogeneous self-dual
embedding of the remaining cone program  min c'x  s.t.  Gx + s = h,
s in R+^l x PSD x ..., with a Mehrotra predictor-corrector and
Nesterov-Todd scaling; one KKT solver (_KktSolver) and one scaling routine
(_Scaling.update) serve both the initial point and the iterations.
Symmetric matrices travel in scaled svec coordinates (upper triangle
row-wise, off-diagonals times sqrt(2)), so dot products of svec vectors
are trace inner products; svec and smat are one gather each.  Two
implementation points carry the numerics: the scaling is updated
multiplicatively from scaled step data instead of being refactored from
the raw, nearly singular (s, z) pair, and search directions get
_REFINEMENT_PASSES passes of iterative refinement against the full
embedding residuals, because the tau-superposition cancels badly near
convergence.  The predictor and the corrector are one routine (direction
in _solve_bundled), which returns the step, its scaled ds and dz, and the
step to the cone's boundary; each refinement pass reuses the W dz formed
before it for the same dz.

The products with G, G' and N are scipy's sparse @ on CSR matrices
_ConeData forms once per solve.  Two pieces of the KKT solver read data
fixed once instead of calling scipy each time: the linear rows' part of
the KKT Gram is one gather and one np.bincount over a pattern _ConeData
fixes (rows too dense for that pattern keep the sparse product; see
_LinearGram), and the Cholesky solves call LAPACK's potrs directly.  Each
forms the same floating-point operations in the same order as
(Glw.T @ Glw).toarray() with Glw = diag(w)^-1 G_lp, and as cho_solve, so
the iterates are bit for bit those of the scipy calls, without their
per-call argument checks and dispatch, which on small programs cost more
than the arithmetic.

Each iteration's cost is the Gram matrix of the scaled constraints (the
Schur complement).  A PSD block adds its part by one of two formulas,
picked once per block from the sparsity of its coefficients (Fujisawa,
Kojima & Nakata, Math. Prog. 1997): G_r' H_r G_r over the r svec rows the
coefficients touch, with H_r gathered from the symmetric Kronecker product
of the scaling (_SparseGram), or the dense congruences of the n_b
coefficient matrices that touch the block (_DenseGram).  The first
gathers the r^2 entries of H_r; the second takes each of the n_b m^2
entries of those m x m coefficient matrices through two m x m products in
BLAS.  Measured on one core, the two cost about the same per entry (about
10 ns) at m = 24, so a block takes the sparse formula when
r^2 <= n_b m^2.  On smaller blocks this leans to the sparse formula, where
either takes a few tens of microseconds.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import logging
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import check_count

# DEBUG records: one per solve for the cone (_ConeData), one per
# interior-point iteration
logger = logging.getLogger(__name__)


def _csr(matrix) -> scipy.sparse.csr_array:
    """A csr_array as it is; anything else through np.asarray, as the CSR
    array built straight from its nonzeros, which row-major np.nonzero lists
    in CSR order (csr_array(dense) goes through COO, about twice as slow)."""
    if isinstance(matrix, scipy.sparse.csr_array):
        return matrix
    dense = np.asarray(matrix, dtype=float)
    if dense.ndim != 2:
        raise ValueError(f"expected a matrix, not shape {dense.shape}")
    rows, cols = np.nonzero(dense)
    indptr = np.searchsorted(rows, np.arange(dense.shape[0] + 1))
    return scipy.sparse.csr_array((dense[rows, cols], cols, indptr), shape=dense.shape)


@dataclass
class PsdBlockMap:
    """Affine map theta -> A_0 + sum_k theta_k A_k into symmetric m x m
    matrices.

    const is A_0 as a dense symmetric array; only its upper triangle is
    read, and the lower one is filled from it.  coeffs is a csr_array with
    one row per program variable: row k holds the upper triangle of A_k,
    row-wise in svec_indices order and unscaled, so it has m (m + 1) / 2
    columns and stores A_k's nonzeros only.  Anything np.asarray accepts
    may be passed for either; a csr_array is kept as given (see _csr).
    """

    const: np.ndarray
    coeffs: scipy.sparse.csr_array

    def __post_init__(self):
        const = np.asarray(self.const, dtype=float)
        if const.ndim != 2 or const.shape[0] != const.shape[1] or not const.size:
            raise ValueError(f"the constant must be a nonempty square matrix, not {const.shape}")
        upper = np.triu(const)
        self.const = upper + np.triu(upper, 1).T
        self.coeffs = _csr(self.coeffs)
        width = self.dim * (self.dim + 1) // 2
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != width:
            raise ValueError(
                f"coefficient rows must have {width} upper-triangle entries, "
                f"not shape {self.coeffs.shape}"
            )

    @property
    def dim(self) -> int:
        return self.const.shape[0]

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        """The block value at a particular theta."""
        upper = self.coeffs.T @ np.asarray(theta, dtype=float)
        return self.const + smat(upper, self.dim, 1.0)


@dataclass
class LinearRows:
    """Rows coeffs @ theta against rhs, one entry of rhs per row; len()
    counts them.  coeffs (see _csr) has one column per program variable and
    is kept canonical, so that a product sums each row's terms in column
    order."""

    coeffs: scipy.sparse.csr_array
    rhs: np.ndarray

    def __post_init__(self):
        self.coeffs = _csr(self.coeffs)
        self.coeffs.sum_duplicates()
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.shape != (len(self),):
            raise ValueError(f"need one entry per row ({len(self)}), not {self.rhs.shape}")

    def __len__(self) -> int:
        return self.coeffs.shape[0]


@dataclass
class ConicProgram:
    """Linear SDP in inequality/equality/PSD-block form; see module docstring.
    equalities and inequalities default to no rows."""

    num_vars: int
    objective: np.ndarray
    equalities: LinearRows | None = None
    inequalities: LinearRows | None = None
    psd_blocks: list = field(default_factory=list)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("program must have at least one variable")
        self.objective = np.asarray(self.objective, dtype=float).reshape(self.num_vars)
        for name in ("equalities", "inequalities"):
            if getattr(self, name) is None:
                setattr(self, name, LinearRows(np.zeros((0, self.num_vars)), []))
            width = getattr(self, name).coeffs.shape[1]
            if width != self.num_vars:
                raise ValueError(f"{name}: {width} columns for {self.num_vars} variables")
        for blk in self.psd_blocks:
            if blk.coeffs.shape[0] != self.num_vars:
                raise ValueError(
                    f"a PSD block has {blk.coeffs.shape[0]} coefficient rows "
                    f"for {self.num_vars} variables"
                )


@dataclass
class SolverOptions:
    feas_tol: float = 1e-7
    gap_tol: float = 1e-7
    max_iters: int = 200

    def __post_init__(self):
        for name in ("feas_tol", "gap_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        check_count(self.max_iters, "max_iters")


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolverResult:
    status: SolverStatus
    theta: np.ndarray | None
    objective_value: float
    iterations: int
    detail: str = ""


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
            (float(np.linalg.eigvalsh(blk.evaluate(theta))[0]) for blk in program.psd_blocks),
            default=0.0,
        ),
        ineq_violation=float(np.max(ineq.coeffs @ theta - ineq.rhs, initial=0.0)),
        eq_residual=float(np.max(np.abs(eq.coeffs @ theta - eq.rhs), initial=0.0)),
    )


# --- svec utilities --- #

_SQRT2 = math.sqrt(2.0)


@functools.cache
def svec_indices(m: int):
    """The upper triangle's indices, row-wise, and each entry's svec weight
    (1 on the diagonal, sqrt(2) off it); computed once per m, read-only."""
    iu = np.triu_indices(m)
    mult = np.where(iu[0] == iu[1], 1.0, _SQRT2)
    for arr in (*iu, mult):
        arr.flags.writeable = False
    return iu, mult


@functools.cache
def _svec_gathers(m: int):
    """Flat indices into a C-ordered m x m array: the upper triangle's,
    row-wise, and for each of its m * m entries the svec position that
    holds it; computed once per m, read-only."""
    iu, _ = svec_indices(m)
    upper = iu[0] * m + iu[1]
    full = np.empty(m * m, dtype=np.intp)
    full[upper] = full[iu[1] * m + iu[0]] = np.arange(iu[0].size)
    for arr in (upper, full):
        arr.flags.writeable = False
    return upper, full


def svec(A: np.ndarray, mult) -> np.ndarray:
    """The upper triangle of A, row-wise, times mult (the svec weights of
    svec_indices, or a scalar)."""
    upper, _ = _svec_gathers(A.shape[0])
    return A.take(upper) * mult


def smat(v: np.ndarray, m: int, mult) -> np.ndarray:
    """The symmetric m x m matrix whose upper triangle, row-wise, is
    v / mult; a new array."""
    _, full = _svec_gathers(m)
    return (v / mult).take(full).reshape(m, m)


# --- homogeneous self-dual interior-point solver --- #


class _Block(NamedTuple):
    """One PSD block of the cone: its order m, its rows sl of a cone
    vector, and svec_indices' weights and _svec_gathers' arrays for m."""

    m: int
    sl: slice
    mult: np.ndarray
    upper: np.ndarray
    full: np.ndarray

    def smat(self, v: np.ndarray) -> np.ndarray:
        """smat of this block's rows of the cone vector v."""
        return (v[self.sl] / self.mult).take(self.full).reshape(self.m, self.m)

    def svec(self, A: np.ndarray) -> np.ndarray:
        return A.take(self.upper) * self.mult


class _LinearGram:
    """w -> G_lp' diag(w)^-2 G_lp as a dense matrix, for the linear rows
    G_lp (CSR) of a solve, by one np.bincount over the ordered pairs of
    stored entries within each row.  The pairs are sorted by output entry
    and, within one, by row, so each entry sums the products of the
    row-scaled values row by row from zero: the sum scipy forms for
    (Glw.T @ Glw).toarray() with Glw = diag(w)^-1 G_lp, bit for bit.

    A row of k entries has k^2 pairs, so the pairs are kept only while
    they are no more than the nv^2 entries of the Gram they sum into;
    denser rows (a general LP's, say) keep that scipy product, whose
    memory is the Gram's."""

    def __init__(self, G_lp: scipy.sparse.csr_array):
        self.G_lp = G_lp
        self.nv = G_lp.shape[1]
        lengths = np.diff(G_lp.indptr)
        self.rows = np.repeat(np.arange(G_lp.shape[0]), lengths)
        reps = lengths[self.rows]       # the entries each entry pairs with
        self.p = None
        if reps.sum() > self.nv * self.nv:
            return
        # pair (p, q) for every two stored entries p, q of one row, row by row
        p = np.repeat(np.arange(self.rows.size), reps)
        starts = np.cumsum(reps) - reps
        q = G_lp.indptr[self.rows][p] + np.arange(p.size) - starts[p]
        entry = G_lp.indices[p].astype(np.intp) * self.nv + G_lp.indices[q]
        order = np.argsort(entry, kind="stable")
        self.p, self.q, self.entry = p[order], q[order], entry[order]

    def __call__(self, w: np.ndarray) -> np.ndarray:
        G_lp = self.G_lp
        vals = G_lp.data * (1.0 / w).take(self.rows)
        if self.p is None:
            Glw = scipy.sparse.csr_array((vals, G_lp.indices, G_lp.indptr), shape=G_lp.shape)
            return (Glw.T @ Glw).toarray()
        K = np.bincount(self.entry, vals.take(self.p) * vals.take(self.q),
                        minlength=self.nv * self.nv)
        # np.bincount of no entries is int64 even with weights
        return K.astype(float, copy=False).reshape(self.nv, self.nv)


class _ConeData:
    """Standard-form data min c'x, Gx + s = h with s in R+^l x PSD(m_1) x ...
    derived from a ConicProgram by eliminating its equalities once:
    theta = x0 + N x, where x0 is the least-norm solution of the equalities
    and the orthonormal columns of N span their null space.  Both come from
    a pivoted QR factorisation A' P = Q [R1; 0] of the equality matrix:
    x0 = Q1 R1^{-T} P'b and N = Q2.  For equalities that pin single
    variables Q is a signed permutation, and G = G_theta N stays as sparse
    as the program.  Equality rows must be linearly independent; the pivots
    of R1 show whether they are.  A program without equalities is solved in
    theta itself: x0 = 0, N is None and G = G_theta.

    The inequalities' rows lead G_theta and h as they are.  A PSD block's
    rows of G_theta are -svec(A_k) in column k: the block's coeffs with each
    column scaled by its svec weight, transposed by reading its CSR arrays
    as CSC arrays; its part of h is svec(const).

    Each block's part of the KKT Gram is built by one of two formulas
    (grams, one per block), picked here from the block's rows of G: with r
    the svec rows its coefficients touch and n_b the columns that touch
    it, _SparseGram when r^2 <= n_b m^2 and _DenseGram otherwise (see the
    module docstring).  Only a dense block gets the (n_b, m, m) stack of
    its coefficient matrices.  One DEBUG record per solve gives each
    block's sizes and formula.

    G is held sparse, and G' as its own CSR matrix GT: the inequality rows
    have one or two terms and each A_k a handful of entries, so a product
    with G or G' costs its few thousand nonzeros rather than rows x nv.
    The linear rows' Gram runs on a pattern fixed here once (lp_gram; see
    _LinearGram)."""

    def __init__(self, program: ConicProgram):
        nv = program.num_vars
        ne = len(program.equalities)
        self.x0 = np.zeros(nv)
        self.N = None
        if ne:
            A = program.equalities.coeffs.toarray()
            b = program.equalities.rhs
            Q, R, perm = scipy.linalg.qr(A.T, pivoting=True)
            pivots = np.abs(np.diag(R))
            rank = np.count_nonzero(pivots > pivots[0] * max(A.shape) * np.finfo(float).eps)
            if rank < ne:
                raise ValueError(
                    f"the {ne} equality rows have rank {rank}; "
                    "they must be linearly independent"
                )
            self.x0 = Q[:, :ne] @ scipy.linalg.solve_triangular(R[:ne], b[perm], trans="T")
            self.N = _csr(Q[:, ne:])
        # the solver's variables are x, one per dimension of the null space
        self.nv = nv - ne
        self.c = program.objective if self.N is None else self.N.T @ program.objective
        # objective value at x0, the constant term of c'theta
        self.c0 = float(program.objective @ self.x0)
        self.l = len(program.inequalities)
        G_parts = [program.inequalities.coeffs]
        h = [program.inequalities.rhs]
        self.blocks = []
        offset = self.l
        for blk in program.psd_blocks:
            m = blk.dim
            _, mult = svec_indices(m)
            msv = m * (m + 1) // 2
            self.blocks.append(_Block(m, slice(offset, offset + msv), mult, *_svec_gathers(m)))
            # rows of G for this block, -svec(A_k) in column k: coeffs with
            # its columns scaled to svec and its CSR arrays read as the CSC
            # arrays of the transpose
            C = blk.coeffs
            G_parts.append(scipy.sparse.csc_array(
                (-C.data * mult[C.indices], C.indices, C.indptr), shape=(msv, nv)
            ).tocsr())
            h.append(svec(blk.const, mult))
            offset += msv
        self.rows = offset
        G_theta = scipy.sparse.vstack(G_parts, format="csr")
        h = np.concatenate(h)
        if self.N is None:
            self.G, self.h = G_theta, h
        else:
            self.G = (G_theta @ self.N).tocsr()
            self.h = h - G_theta @ self.x0
        self.GT = self.G.T.tocsr()
        self.degree = self.l + sum(blk.m for blk in self.blocks)
        # the LP rows enter the per-iteration KKT matrix only through
        # G_lp' diag(w)^-2 G_lp
        self.lp_gram = _LinearGram(self.G[: self.l])
        self.grams = []
        notes = []
        for m, sl, mult, _, _ in self.blocks:
            G_block = self.G[sl]
            rows = np.flatnonzero(np.diff(G_block.indptr))
            cols = np.unique(G_block.indices)
            if rows.size**2 <= cols.size * m * m:
                self.grams.append(_SparseGram(G_block, rows, m, mult))
            else:
                self.grams.append(_DenseGram(G_block, cols, m, mult))
            notes.append(
                f"block {m}: {rows.size}/{mult.size} svec rows, "
                f"{cols.size}/{self.nv} columns, {self.grams[-1].formula} Gram"
            )
        logger.debug(
            "cone  %d variables  %d linear rows  %s", self.nv, self.l, "  ".join(notes)
        )

    def theta(self, x: np.ndarray) -> np.ndarray:
        """The program's variables at the point x."""
        return self.x0 + (x if self.N is None else self.N @ x)

    def cone_identity(self) -> np.ndarray:
        e = np.zeros(self.rows)
        e[: self.l] = 1.0
        for blk in self.blocks:
            e[blk.sl] = blk.svec(np.eye(blk.m))
        return e

    def min_cone_eig(self, v: np.ndarray) -> float:
        """Smallest 'eigenvalue' of a cone point (LP entries and PSD spectra)."""
        worst = float(np.min(v[: self.l], initial=math.inf))
        for blk in self.blocks:
            worst = min(worst, float(np.linalg.eigvalsh(blk.smat(v))[0]))
        return worst


class _Scaling:
    """Nesterov-Todd scaling, kept current across iterations by multiplicative
    updates from scaled step data (update), never refactored from raw s, z.

    Each update also fixes what the products of the iteration read: per
    block, the factor pairs (L, R) of the four congruences L M R, and the
    sig_i + sig_j and sqrt(sig_i sig_j) that jordan_div_lam and max_step
    divide by."""

    def __init__(self, data: _ConeData, s: np.ndarray, z: np.ndarray):
        self.data = data
        self.w = np.ones(data.l)
        self.lam_lp = np.zeros(data.l)
        self.R = [np.eye(blk.m) for blk in data.blocks]
        self.Rti = [np.eye(blk.m) for blk in data.blocks]      # R^{-T}
        self.lam_psd = [np.zeros(blk.m) for blk in data.blocks]
        # the scaling at s = z = e is the identity, so this update from it
        # is the scaling of (s, z)
        self.update(s, z)

    def update(self, ls: np.ndarray, lz: np.ndarray) -> None:
        """Refresh the scaling for stepped points given in scaled coordinates:
        ls = lam + alpha W^{-T} ds, lz = lam + alpha W dz, both interior."""
        d = self.data
        a = ls[: d.l]
        b = lz[: d.l]
        self.w *= np.sqrt(a / b)
        self.lam_lp = np.sqrt(a * b)
        for idx, blk in enumerate(d.blocks):
            Ls = np.linalg.cholesky(blk.smat(ls))
            Lz = np.linalg.cholesky(blk.smat(lz))
            U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
            isq = 1.0 / np.sqrt(sig)
            self.R[idx] = self.R[idx] @ (Ls @ Vt.T * isq)
            self.Rti[idx] = self.Rti[idx] @ (Lz @ U * isq)
            self.lam_psd[idx] = sig
        self._W = [(R.T, R) for R in self.R]
        self._WT = [(R, R.T) for R in self.R]
        self._WinvT = [(Rti.T, Rti) for Rti in self.Rti]
        self._Winv = [(Rti, Rti.T) for Rti in self.Rti]
        self._sig_mean = [(sig[:, None] + sig[None, :]) / 2.0 for sig in self.lam_psd]
        self._sig_root = [np.sqrt(sig[:, None] * sig[None, :]) for sig in self.lam_psd]

    def lam_vec(self) -> np.ndarray:
        out = np.zeros(self.data.rows)
        out[: self.data.l] = self.lam_lp
        for blk, sig in zip(self.data.blocks, self.lam_psd):
            out[blk.sl] = blk.svec(np.diag(sig))
        return out

    def _congruence(self, v, lp_op, factors):
        """lp_op(v, w) on the LP rows, L M R on each block."""
        d = self.data
        out = np.empty_like(v)
        lp_op(v[: d.l], self.w, out=out[: d.l])
        for blk, (L, R) in zip(d.blocks, factors):
            out[blk.sl] = blk.svec(L @ blk.smat(v) @ R)
        return out

    def W(self, v):          # R' M R
        return self._congruence(v, np.multiply, self._W)

    def WT(self, v):         # R M R'
        return self._congruence(v, np.multiply, self._WT)

    def WinvT(self, v):      # R^{-1} M R^{-T} = Rti' M Rti
        return self._congruence(v, np.divide, self._WinvT)

    def Winv(self, v):       # R^{-T} M R^{-1} = Rti M Rti'
        return self._congruence(v, np.divide, self._Winv)

    def jordan_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = self.data
        out = np.empty_like(a)
        out[: d.l] = a[: d.l] * b[: d.l]
        for blk in d.blocks:
            A = blk.smat(a)
            B = blk.smat(b)
            out[blk.sl] = blk.svec((A @ B + B @ A) / 2.0)
        return out

    def jordan_div_lam(self, v: np.ndarray) -> np.ndarray:
        """lam \\ v for the current scaling point (lam diagonal per block)."""
        d = self.data
        out = np.empty_like(v)
        out[: d.l] = v[: d.l] / self.lam_lp
        for blk, denom in zip(d.blocks, self._sig_mean):
            out[blk.sl] = blk.svec(blk.smat(v) / denom)
        return out

    def max_step(self, v: np.ndarray) -> float:
        """Largest t with lam + a*v in the cone for all a in [0, t]."""
        d = self.data
        neg = v[: d.l] < 0
        t = float(np.min(self.lam_lp[neg] / -v[: d.l][neg], initial=math.inf))
        for blk, root in zip(d.blocks, self._sig_root):
            emin = float(np.linalg.eigvalsh(blk.smat(v) / root)[0])
            if emin < 0:
                t = min(t, 1.0 / -emin)
        return t


# Relative diagonal shift of the reduced KKT matrix before its Cholesky
# factorisation.  Near the optimum of a nearly degenerate program the scaled
# constraints approach rank loss along the optimal face, and the unshifted
# factorisation returns directions that no refinement recovers; the shift
# keeps it stable, and the _REFINEMENT_PASSES passes in f4 correct each
# direction against the unshifted embedding.  A larger shift leaves more for
# those two passes to correct than they can.
_KKT_REGULARIZATION = 1e-12
_REFINEMENT_PASSES = 2


class _SparseGram:
    """A PSD block's part of the KKT Gram from its coefficient nonzeros.

    The block's rows of Gs = W^{-T} G add to the Gram the matrix whose
    entry (k, l) is <A_k, X A_l X>, with X = Rti Rti'.  In svec coordinates
    svec(X V X) = H svec(V) with H = X (x)s X, the symmetric Kronecker
    product of Todd, Toh & Tutuncu (SIAM J. Optim. 1998),

        H[p, q] = w_p w_q (X_ik X_jl + X_il X_jk) / 2

    for p = (i, j), q = (k, l) and svec weights w, so the block adds
    G_r' H_r G_r, where G_r holds the r rows of the block's G that any
    coefficient touches and H_r is H on those rows.  The factors
    w_p / sqrt(2) are folded into G_r here; an iteration then gathers four
    r x r blocks of X and runs two sparse products with G_r's nonzeros."""

    formula = "sparse"

    def __init__(self, G_block, rows: np.ndarray, m: int, mult: np.ndarray):
        iu, _ = svec_indices(m)
        self.i, self.j = iu[0][rows], iu[1][rows]
        G_r = G_block[rows]
        row_scale = np.repeat(mult[rows] / _SQRT2, np.diff(G_r.indptr))
        self.GrT = scipy.sparse.csr_array(
            (G_r.data * row_scale, G_r.indices, G_r.indptr), shape=G_r.shape
        ).T.tocsr()

    def add_to(self, K: np.ndarray, Rti: np.ndarray) -> None:
        X = Rti @ Rti.T
        # columns i_q and j_q of X; the r x r blocks are then row gathers
        Xi, Xj = X.take(self.i, axis=1), X.take(self.j, axis=1)
        H = Xi.take(self.i, axis=0) * Xj.take(self.j, axis=0)
        H += Xj.take(self.i, axis=0) * Xi.take(self.j, axis=0)
        K += self.GrT @ (self.GrT @ H).T


class _DenseGram:
    """A PSD block's part of the KKT Gram from dense congruences: P P',
    with row k of P the svec of Rti' A_k Rti, for the n_b variables whose
    A_k is nonzero on the block (the block's nonzero columns of G)."""

    formula = "dense"

    def __init__(self, G_block, cols: np.ndarray, m: int, mult: np.ndarray):
        self.mult = mult
        self.upper, full = _svec_gathers(m)
        self.ix = np.ix_(cols, cols)
        # column k of the block's G is -svec(A_k)
        svecs = -G_block[:, cols].T.toarray()
        self.stack = (svecs / mult).take(full, axis=1).reshape(cols.size, m, m)

    def add_to(self, K: np.ndarray, Rti: np.ndarray) -> None:
        B = Rti.T @ self.stack @ Rti
        P = B.reshape(B.shape[0], -1).take(self.upper, axis=1) * self.mult
        K[self.ix] += P @ P.T


class _KktSolver:
    """Reduced-system solver by Cholesky factorisation of the seminormal
    equations, as in the default KKT solvers of Vandenberghe, "The CVXOPT
    linear and quadratic cone program solvers" (2010).

    With Gs = W^{-T} G, the reduced matrix is Gs'Gs = R'R, and Gs enters a
    solve only through the products Gs' w and Gs u.  Forming Gs'Gs squares
    the condition number of Gs, which a QR of Gs would avoid, but a QR of
    the dense scaled constraint matrix costs several times the product; the
    refinement passes in f4, taken against the full embedding residuals,
    recover the accuracy the squaring gives away.  The LP rows enter
    through their Gram on its fixed pattern (_LinearGram); each PSD block
    adds its part by the formula _ConeData picked for it (_SparseGram or
    _DenseGram).  The solves with R call the LAPACK potrs that
    scipy.linalg.cho_solve wraps, fetched once per factorisation, and the
    products with G and G' are scipy's, on _ConeData's G and GT.  A solve
    applies the scaling as the two congruences Winv(WinvT(.)) through smat
    and svec: applying a block's H there instead, or fusing the two
    congruences into one without the svec between them, made the step
    length collapse on the paper-MPC fine synthesis.  It is the solver's only KKT solver: the
    initial point uses it at the identity scaling."""

    def __init__(self, data: _ConeData, scaling: _Scaling):
        self.data = data
        self.sc = scaling
        K = data.lp_gram(scaling.w)
        for gram, Rti in zip(data.grams, scaling.Rti):
            gram.add_to(K, Rti)
        # raises LinAlgError if a variable drops out of the scaled constraints
        self.R = scipy.linalg.cholesky(
            K + np.diag(_KKT_REGULARIZATION * np.diag(K)), check_finite=False
        )
        (self._potrs,) = scipy.linalg.get_lapack_funcs(("potrs",), (self.R,))

    def _cho_solve(self, b: np.ndarray) -> np.ndarray:
        """R'R u = b for a fresh b, which it overwrites: cho_solve's potrs
        call and info check, without its argument handling."""
        if not b.size:      # potrs rejects the empty system cho_solve allows
            return b
        u, info = self._potrs(self.R, b, lower=False, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return u

    def solve(self, bx: np.ndarray, bz: np.ndarray):
        """Solve  G'uz = bx;  G ux - W'W uz = bz."""
        d, sc = self.data, self.sc
        ux = self._cho_solve(bx + d.GT @ sc.Winv(sc.WinvT(bz)))
        uz = sc.Winv(sc.WinvT(d.G @ ux - bz))
        if not (np.isfinite(ux).all() and np.isfinite(uz).all()):
            raise np.linalg.LinAlgError("non-finite KKT solution")
        return ux, uz


def _result(program: ConicProgram, status, theta, iterations, detail="") -> SolverResult:
    """The solver's answer, with the objective value at theta (if any)."""
    value = math.nan if theta is None else float(program.objective @ theta)
    return SolverResult(status, theta, value, iterations, detail)


def _initial_point(data: _ConeData, e: np.ndarray):
    """Least-norm heuristic: the two KKT solves at the identity scaling
    (s = z = e, so W = I), with s and z shifted into the cone interior."""

    def interior(v):
        shift = data.min_cone_eig(v)
        return v + (1.0 - shift) * e if shift <= 0 else v

    kkt = _KktSolver(data, _Scaling(data, e, e))
    x, zhat = kkt.solve(np.zeros(data.nv), data.h)
    _, z = kkt.solve(-data.c, np.zeros_like(data.h))
    return x, interior(-zhat), interior(z)


def _solve_bundled(program: ConicProgram, options: SolverOptions) -> SolverResult:
    data = _ConeData(program)
    if data.rows == 0:
        raise ValueError("program has no inequalities and no PSD blocks")
    c, h = data.c, data.h
    G, GT = data.G, data.GT
    e = data.cone_identity()

    try:
        x, s, z = _initial_point(data, e)
    except np.linalg.LinAlgError:
        x = np.zeros(data.nv)
        s = e.copy()
        z = e.copy()
    tau, kappa = 1.0, 1.0

    sc = _Scaling(data, s, z)
    lam = sc.lam_vec()

    norm_h = max(1.0, float(np.linalg.norm(h)))
    norm_c = max(1.0, float(np.linalg.norm(c)))

    # best near-solution seen so far; lets a stalled run terminate usefully
    # when the instance's attainable accuracy sits just above the tolerances
    best_theta = None
    best_score = math.inf
    best_note = ""

    def finish(it, detail):
        if best_theta is not None and best_score <= 10.0:
            return _result(
                program, SolverStatus.OPTIMAL, best_theta, it,
                f"terminated at reduced accuracy ({best_note})",
            )
        return _result(program, SolverStatus.NUMERICAL_FAILURE, None, it, detail)

    for it in range(options.max_iters):
        # raw cone points reconstructed from the scaling so s'z == |lam|^2
        s = sc.WT(lam)
        z = sc.Winv(lam)
        GTz = GT @ z
        Gx = G @ x
        rx = GTz + c * tau
        rz = Gx + s - h * tau
        rtau = kappa + float(c @ x) + float(h @ z)
        gap = float(lam @ lam)
        mu = (gap + tau * kappa) / (data.degree + 1)

        pcost = data.c0 + float(c @ x) / tau
        pres = float(np.linalg.norm(rz)) / norm_h / tau
        dres = float(np.linalg.norm(rx)) / norm_c / tau
        rel_gap = gap / tau**2 / max(1.0, abs(pcost))
        note = f"pres {pres:.1e}, dres {dres:.1e}, relgap {rel_gap:.1e}"
        score = max(
            pres / options.feas_tol, dres / options.feas_tol, rel_gap / options.gap_tol
        )
        if math.isfinite(score) and score < best_score:
            best_score = score
            best_theta = data.theta(x / tau)
            best_note = note
        logger.debug(
            "iter %3d  pcost %+.6e  pres %.2e  dres %.2e  relgap %.2e  tau %.2e  kappa %.2e",
            it, pcost, pres, dres, rel_gap, tau, kappa,
        )
        if pres <= options.feas_tol and dres <= options.feas_tol and rel_gap <= options.gap_tol:
            return _result(program, SolverStatus.OPTIMAL, data.theta(x / tau), it)
        # infeasibility certificates
        ct = float(h @ z)
        if ct < 0 and float(np.linalg.norm(GTz)) / norm_c / (-ct) <= options.feas_tol:
            return _result(
                program, SolverStatus.INFEASIBLE, None, it,
                "primal infeasibility certificate found",
            )
        if float(c @ x) < 0:
            resid = float(np.linalg.norm(Gx + s))
            if resid / norm_h / (-float(c @ x)) <= options.feas_tol:
                return _result(
                    program, SolverStatus.NUMERICAL_FAILURE, None, it,
                    "dual infeasibility certificate: objective unbounded below",
                )

        try:
            kkt = _KktSolver(data, sc)
            x1, z1 = kkt.solve(-c, h)
        except np.linalg.LinAlgError:
            return finish(it, f"factorization failed ({note})")
        denom = float(c @ x1) + float(h @ z1) - kappa / tau

        def f4_once(bx, bz, btau, bs, bkap):
            """One pass of the full linearized embedding:
            G'dz + c dtau = bx;  G dx + ds - h dtau = bz;
            dkap + c'dx + h'dz = btau;  W^{-T} ds + W dz = bs;
            tau dkap + kappa dtau = bkap.  Also returns the W dz it forms."""
            u0x, u0z = kkt.solve(bx, bz - sc.WT(bs))
            num = btau - bkap / tau - (float(c @ u0x) + float(h @ u0z))
            dtau = num / denom
            dx = u0x + dtau * x1
            dz = u0z + dtau * z1
            Wdz = sc.W(dz)
            ds = sc.WT(bs - Wdz)
            dkap = (bkap - kappa * dtau) / tau
            return dx, dz, ds, dtau, dkap, Wdz

        def f4(bx, bz, btau, bs, bkap):
            """f4_once refined _REFINEMENT_PASSES times against the full
            residuals; returns dx, ds, dtau, dkap and the final W dz."""
            dx, dz, ds, dtau, dkap, Wdz = f4_once(bx, bz, btau, bs, bkap)
            for _ in range(_REFINEMENT_PASSES):
                r1 = bx - (GT @ dz + c * dtau)
                r2 = bz - (G @ dx + ds - h * dtau)
                r3 = btau - (dkap + float(c @ dx) + float(h @ dz))
                r4 = bs - (sc.WinvT(ds) + Wdz)
                r5 = bkap - (tau * dkap + kappa * dtau)
                cx, cz, cs, ctau, ckap, _ = f4_once(r1, r2, r3, r4, r5)
                dx = dx + cx
                dz = dz + cz
                ds = ds + cs
                dtau += ctau
                dkap += ckap
                Wdz = sc.W(dz)      # the next pass's residual, or the result
            return dx, ds, dtau, dkap, Wdz

        lam_sq = sc.jordan_mul(lam, lam)

        def direction(sigma, comp_corr, kap_corr):
            """The search direction dx, dtau, dkap for centering sigma and the
            given second-order corrections, its scaled W^{-T} ds and W dz, and
            the largest step that keeps every iterate in the cone."""
            eta = 1.0 - sigma
            rho = sc.jordan_div_lam(sigma * mu * e - lam_sq - comp_corr)
            dk_rhs = sigma * mu - tau * kappa - kap_corr
            dx, ds, dtau, dkap, dz_scaled = f4(
                -eta * rx, -eta * rz, -eta * rtau, rho, dk_rhs
            )
            ds_scaled = sc.WinvT(ds)
            alpha = min(
                sc.max_step(ds_scaled),
                sc.max_step(dz_scaled),
                tau / -dtau if dtau < 0 else math.inf,
                kappa / -dkap if dkap < 0 else math.inf,
            )
            return dx, dtau, dkap, ds_scaled, dz_scaled, alpha

        # predictor (sigma = 0), then the Mehrotra corrector
        _, dtaua, dkapa, dsa_scaled, dza_scaled, alpha = direction(0.0, 0.0, 0.0)
        sigma = min(1.0, max(0.0, (1.0 - min(1.0, alpha)) ** 3))
        comp_corr = sc.jordan_mul(dsa_scaled, dza_scaled)
        dx, dtau, dkap, ds_scaled, dz_scaled, alpha = direction(
            sigma, comp_corr, dtaua * dkapa
        )
        step = min(1.0, 0.99 * alpha)
        if step <= 1e-10 or not math.isfinite(step):
            return finish(it, f"step length collapsed ({note})")
        x = x + step * dx
        tau = tau + step * dtau
        kappa = kappa + step * dkap
        try:
            sc.update(lam + step * ds_scaled, lam + step * dz_scaled)
        except np.linalg.LinAlgError:
            return finish(it, f"scaling update failed ({note})")
        lam = sc.lam_vec()

    return finish(options.max_iters, f"iteration limit reached ({note})")


# (get, set) thread-count symbols of the OpenBLAS builds: numpy's bundled
# 64-bit-integer build, scipy's bundled build, then a system OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) ctypes functions for each OpenBLAS library loaded in this
    process, found once from /proc/self/maps; importing this module loads
    numpy's and scipy's BLAS, so both are there by the first solve.  Empty
    where there is no OpenBLAS (MKL, Accelerate) or no /proc."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return tuple(controls)


class _OneBlasThread:
    """Re-entrant context that runs every loaded OpenBLAS on one thread and
    gives each library back its previous thread count at the last exit.

    Each iteration's dense KKT work (congruences, Gram, Cholesky of a
    matrix of a few hundred rows) is too small to gain from a second BLAS
    thread, and on a busy 2-core machine waiting for that thread to be
    scheduled made the paper-MPC synthesis about 2x slower.  With one thread
    the result no longer depends on the machine's thread count either.

    The thread count is process-global: while any solve runs, BLAS calls
    from every other Python thread run on one thread too.  The lock and the
    depth count make overlapping solves in several threads, and nested
    ones, save the counts at the first entry and restore them at the last
    exit only."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                controls = _openblas_thread_controls()
                self._saved = [get() for get, _ in controls]
                for _, set_ in controls:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_), count in zip(_openblas_thread_controls(), self._saved):
                    set_(count)


_ONE_BLAS_THREAD = _OneBlasThread()


def solve_conic(program: ConicProgram, options: SolverOptions | None = None) -> SolverResult:
    """Solve the program with the bundled interior-point solver.

    The solve runs OpenBLAS on one thread and restores the caller's thread
    counts when it returns or raises; see _OneBlasThread."""
    with _ONE_BLAS_THREAD:
        return _solve_bundled(program, options or SolverOptions())
