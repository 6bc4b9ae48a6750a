"""Quadratic-form certificates for incremental 1-norm robustness.

Everything here operates on the stacked incremental vector

    p = [g_pm; u_pm; z_tilde; u_tilde; 1],        g_pm = [relu(g~); relu(-g~)],
                                                  u_pm = [relu(u~); relu(-u~)],

where tilde quantities are differences between two evaluations of a network
at inputs u1, u2.  Dims is the one layout of p, and assemble_p, which takes
stacks of input pairs, is its one builder.  Each omega builder returns a
symmetric matrix whose quadratic form p' M p equals the scalar certificate
term it encodes:

    omega_z:      z~' T_z (Psi_z z~ + Psi_u u~ - z~)            (slope restriction)
    omega_g:      r(g~)' T_g (g~ - r(g~)) + r(-g~)' T_g (-g~ - r(-g~))
    omega_u:      T_u1 eps_u1 + T_u2 eps_u2 - T_u1 ||u~||_1 - T_u2 ||u~||_2^2
    omega_gamma:  ||g~||_1 - gamma - gamma_u1 ||u~||_1 - gamma_u2 ||u~||_2^2

The first three are nonnegative for realizable p (slope-restricted states,
u1 - u2 inside the input set), so their sum dominating omega_gamma yields the
robustness bound.  omega_z is the one place the activations' slope bound
is written down: every secant of each shipped activation (network.Activation)
lies in [0, 1], so each state difference is z~_i = s v~_i for some s in
[0, 1], with v~ = Psi_z z~ + Psi_u u~ the pre-activation difference, and
z~_i (v~_i - z~_i) = s (1 - s) v~_i^2 >= 0.  The omega_z and omega_g builders
(the "check" builders) take the bilinear products Y = T*Psi as free
matrices, which is what makes the synthesis program convex; a network
(Psi_z, Psi_u, Psi_gz, Psi_gu) is certified by passing Y = T*Psi.
certificate_matrix is the one written-down certificate: the synthesis
program derives its PSD block from it.

Storage convention: off-diagonal blocks appear halved on each side of the
diagonal, and hermitian-sum blocks He(X) = X + X' are stored as their
symmetric part, so that the quadratic forms above hold without spurious
factors of two.  The convention is pinned by the scalar-form tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .network import FixedPointConfig, ImplicitNetwork, evaluate_batch, relu


@dataclass(frozen=True)
class Dims:
    """Dimensions (n, n_u, n_g) of a network and the one layout of p: the
    slices below place each part, and assemble_p fills them."""

    n: int
    n_u: int
    n_g: int

    @property
    def N_p(self) -> int:
        return 2 * self.n_g + 2 * self.n_u + self.n + self.n_u + 1

    # block slices into p, in declaration order
    @property
    def sl_g_pm(self) -> slice:
        return slice(0, 2 * self.n_g)

    @property
    def sl_u_pm(self) -> slice:
        return slice(2 * self.n_g, 2 * self.n_g + 2 * self.n_u)

    @property
    def sl_z(self) -> slice:
        a = 2 * self.n_g + 2 * self.n_u
        return slice(a, a + self.n)

    @property
    def sl_u(self) -> slice:
        a = 2 * self.n_g + 2 * self.n_u + self.n
        return slice(a, a + self.n_u)

    @property
    def idx_one(self) -> int:
        return self.N_p - 1

    @staticmethod
    def of(net: ImplicitNetwork) -> "Dims":
        return Dims(net.n, net.n_u, net.n_g)


@dataclass(frozen=True)
class InputPairSet:
    """Input-difference set {u~ : ||u~||_1 <= eps_u1 and ||u~||_2^2 <= eps_u2}."""

    eps_u1: float
    eps_u2: float

    def __post_init__(self):
        for name in ("eps_u1", "eps_u2"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"input pair set radii must be nonnegative and finite, got {value!r} for {name}"
                )

    def contains(self, u_diff: np.ndarray) -> bool | np.ndarray:
        """Whether u~ lies in the set; for a stack of differences, one answer
        per row (the norms reduce the last axis)."""
        d = np.asarray(u_diff, dtype=float)
        return (np.sum(np.abs(d), axis=-1) <= self.eps_u1) & (
            np.sum(d * d, axis=-1) <= self.eps_u2
        )


@dataclass
class MultiplierSet:
    """Diagonal multipliers (T_z, T_g) and scalars (T_u1, T_u2), all >= 0.

    All four may carry the same leading batch axes (T_z then has shape
    (..., n)), describing one multiplier set per batch index.
    """

    T_z: np.ndarray
    T_g: np.ndarray
    T_u1: float
    T_u2: float

    def __post_init__(self):
        self.T_z = np.atleast_1d(np.asarray(self.T_z, dtype=float))
        self.T_g = np.atleast_1d(np.asarray(self.T_g, dtype=float))
        if any(np.any(np.asarray(v) < 0) for v in (self.T_z, self.T_g, self.T_u1, self.T_u2)):
            raise ValueError("multipliers must be nonnegative")


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


def _check_diag(name: str, arr: np.ndarray, length: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape[-1] != length:
        raise DimensionMismatch(f"{name} must have {length} entries, got {arr.shape[-1]}")
    return arr


def _set_pair(M: np.ndarray, rows: slice, cols: slice | int, X) -> None:
    # an off-diagonal block and its mirror image, so symmetry is bit-exact;
    # an integer cols is a single column, mirrored as a row of the same values
    M[..., rows, cols] = X
    M[..., cols, rows] = X if isinstance(cols, int) else np.swapaxes(X, -1, -2)


def _set_diag(M: np.ndarray, sl: slice, values) -> None:
    idx = np.arange(sl.start, sl.stop)
    M[..., idx, idx] = values


def build_omega_z_check(
    dims: Dims, T_z: np.ndarray, Y_z: np.ndarray, Y_u: np.ndarray
) -> np.ndarray:
    """Slope-restriction certificate for the internal states, with Y_z, Y_u
    standing in for T_z Psi_z, T_z Psi_u of a network (Psi_z, Psi_u):
    p' M p = z~' (Y_z z~ + Y_u u~ - T_z z~)."""
    T_z = _check_diag("T_z", T_z, dims.n)
    batch = T_z.shape[:-1]
    M = np.zeros(batch + (dims.N_p, dims.N_p))
    A = np.asarray(Y_z, dtype=float).reshape(batch + (dims.n, dims.n))
    S = (A + np.swapaxes(A, -1, -2)) / 2.0
    idx = np.arange(dims.n)
    S[..., idx, idx] -= T_z
    M[..., dims.sl_z, dims.sl_z] = S
    B = np.asarray(Y_u, dtype=float).reshape(batch + (dims.n, dims.n_u))
    _set_pair(M, dims.sl_z, dims.sl_u, B / 2.0)
    return M


def build_omega_g_check(
    dims: Dims, T_g: np.ndarray, Y_gz: np.ndarray, Y_gu: np.ndarray
) -> np.ndarray:
    """Output-channel certificate tying g_pm to the two ReLU halves of g~,
    with Y_gz, Y_gu standing in for T_g Psi_gz, T_g Psi_gu:
    p' M p = r(g~)' T_g (g~ - r(g~)) + r(-g~)' T_g (-g~ - r(-g~))."""
    T_g = _check_diag("T_g", T_g, dims.n_g)
    batch = T_g.shape[:-1]
    n_g = dims.n_g
    M = np.zeros(batch + (dims.N_p, dims.N_p))
    gp = slice(0, n_g)
    gm = slice(n_g, 2 * n_g)
    _set_diag(M, gp, -T_g)
    _set_diag(M, gm, -T_g)
    Cz = np.asarray(Y_gz, dtype=float).reshape(batch + (n_g, dims.n))
    Cu = np.asarray(Y_gu, dtype=float).reshape(batch + (n_g, dims.n_u))
    _set_pair(M, gp, dims.sl_z, Cz / 2.0)
    _set_pair(M, gm, dims.sl_z, -Cz / 2.0)
    _set_pair(M, gp, dims.sl_u, Cu / 2.0)
    _set_pair(M, gm, dims.sl_u, -Cu / 2.0)
    return M


def build_omega_u(dims: Dims, T_u1: float, T_u2: float, pairset: InputPairSet) -> np.ndarray:
    """Input-set certificate: for u_pm realized from u~ inside the pair set,
    p' M p = T_u1 (eps_u1 - ||u~||_1) + T_u2 (eps_u2 - ||u~||_2^2) >= 0."""
    T_u1 = np.asarray(T_u1, dtype=float)
    T_u2 = np.asarray(T_u2, dtype=float)
    if np.any(T_u1 < 0) or np.any(T_u2 < 0):
        raise ValueError("T_u1 and T_u2 must be nonnegative")
    batch = np.broadcast_shapes(T_u1.shape, T_u2.shape)
    M = np.zeros(batch + (dims.N_p, dims.N_p))
    half_u2 = (-0.5 * T_u2)[..., None]
    _set_diag(M, dims.sl_u_pm, half_u2)
    _set_diag(M, dims.sl_u, half_u2)
    _set_pair(M, dims.sl_u_pm, dims.idx_one, (-0.5 * T_u1)[..., None])
    M[..., dims.idx_one, dims.idx_one] = T_u1 * pairset.eps_u1 + T_u2 * pairset.eps_u2
    return M


def build_omega_gamma(
    dims: Dims, gamma: float, gamma_u1: float, gamma_u2: float
) -> np.ndarray:
    """Bound side of the certificate:
    p' M p = ||g~||_1 - gamma - gamma_u1 ||u~||_1 - gamma_u2 ||u~||_2^2."""
    gamma, gamma_u1, gamma_u2 = (
        np.asarray(v, dtype=float) for v in (gamma, gamma_u1, gamma_u2)
    )
    batch = np.broadcast_shapes(gamma.shape, gamma_u1.shape, gamma_u2.shape)
    M = np.zeros(batch + (dims.N_p, dims.N_p))
    half_u2 = (-0.5 * gamma_u2)[..., None]
    _set_diag(M, dims.sl_u_pm, half_u2)
    _set_diag(M, dims.sl_u, half_u2)
    _set_pair(M, dims.sl_g_pm, dims.idx_one, 0.5)
    _set_pair(M, dims.sl_u_pm, dims.idx_one, (-0.5 * gamma_u1)[..., None])
    M[..., dims.idx_one, dims.idx_one] = -gamma
    return M


def certificate_matrix(
    dims: Dims,
    mults: MultiplierSet,
    pairset: InputPairSet,
    gamma: float,
    gamma_u1: float,
    gamma_u2: float,
    Y_z: np.ndarray,
    Y_u: np.ndarray,
    Y_gz: np.ndarray,
    Y_gu: np.ndarray,
) -> np.ndarray:
    """Sum of the four certificate matrices in their convexified form.

    Negative semidefiniteness of this matrix is the synthesis feasibility
    condition; with Y = T*W it reduces to the analysis condition.  The
    multipliers, bound coefficients and Y blocks may carry the same leading
    batch axes, giving one matrix per batch index; the synthesis program
    derives its PSD block from such batched evaluations, one per chunk of
    its variables' directions (see synthesis._psd_blocks).
    """
    M = build_omega_z_check(dims, mults.T_z, Y_z, Y_u)
    M += build_omega_g_check(dims, mults.T_g, Y_gz, Y_gu)
    M += build_omega_u(dims, mults.T_u1, mults.T_u2, pairset)
    M += build_omega_gamma(dims, gamma, gamma_u1, gamma_u2)
    return M
