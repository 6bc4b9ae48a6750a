"""Output checks of the benchmark, computed apart from the solver.

The certificate matrix is rebuilt here from the scalar forms that the
docstring of ``robsyn.multipliers`` states, not from the program's matrix
builders: a quadratic form q(p) is evaluated term by term and its symmetric
matrix recovered by polarization,

    M_ii = q(e_i),        M_ij = (q(e_i + e_j) - q(e_i) - q(e_j)) / 2.

Two of the norms in those forms are written as quadratic forms in a chosen
way, the same way the program's certificate uses: ||u~||_1 and ||g~||_1 as
the constant entry of p times the sum of the split parts u_pm and g_pm, and
||u~||_2^2 as (u_pm'u_pm + u~'u~) / 2.  Another choice agrees on every
realizable p but adds a form that vanishes only there, which can move the
top eigenvalue across zero.

Everything here takes plain arrays, so a check can be fed a deliberately
corrupted output (a negative multiplier, a shifted weight) that the
program's own types would refuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A sampled output gap may exceed the certified bound by rounding only.
GAP_RTOL = 1e-9
# The fixed-point residual a network evaluation must reach to be trusted.
RESIDUAL_TOL = 1e-8
# Slack on the weight band, the one criterion 7 of the acceptance suite uses.
WEIGHT_SLACK = 1e-6


@dataclass(frozen=True)
class Failure:
    """One failed check: which, the offending value, and what it means."""

    check: str
    value: float
    detail: str


@dataclass
class Certificate:
    """The numbers a certificate consists of, as plain values."""

    T_z: np.ndarray
    T_g: np.ndarray
    T_u1: float
    T_u2: float
    eps_u1: float
    eps_u2: float
    gamma: float
    gamma_u1: float
    gamma_u2: float

    @staticmethod
    def of(sol) -> "Certificate":
        """Read the multipliers, the pair set and the gammas off a
        ``robsyn.synthesis.SynthesisSolution``."""
        c = sol.certificate
        m = sol.multipliers
        return Certificate(
            T_z=np.array(m.T_z, dtype=float),
            T_g=np.array(m.T_g, dtype=float),
            T_u1=float(m.T_u1),
            T_u2=float(m.T_u2),
            eps_u1=float(c.input_set.eps_u1),
            eps_u2=float(c.input_set.eps_u2),
            gamma=float(c.gamma),
            gamma_u1=float(c.gamma_u1),
            gamma_u2=float(c.gamma_u2),
        )

    def bound(self, D: np.ndarray) -> np.ndarray:
        """Certified bound for each difference row of D."""
        return (
            self.gamma
            + self.gamma_u1 * np.sum(np.abs(D), axis=1)
            + self.gamma_u2 * np.sum(D * D, axis=1)
        )


def _quadratic_form(W, cert: Certificate, P: np.ndarray) -> np.ndarray:
    """Sum of the four scalar certificate terms at each column of P.

    W is (W_x, W_u, W_fx, W_fu) of the network the certificate speaks for;
    P stacks [g_pm; u_pm; z~; u~; 1] by columns.
    """
    W_x, W_u, W_fx, W_fu = W
    n, n_u, n_g = W_x.shape[0], W_u.shape[1], W_fx.shape[0]
    gp, gm = P[:n_g], P[n_g : 2 * n_g]
    u_pm = P[2 * n_g : 2 * n_g + 2 * n_u]
    a = 2 * n_g + 2 * n_u
    z, u, one = P[a : a + n], P[a + n : a + n + n_u], P[-1]

    norm1_u = one * np.sum(u_pm, axis=0)
    norm2sq_u = (np.sum(u_pm * u_pm, axis=0) + np.sum(u * u, axis=0)) / 2.0
    norm1_g = one * np.sum(gp + gm, axis=0)
    g = W_fx @ z + W_fu @ u

    # z~' T_z (Psi_z z~ + Psi_u u~ - z~)
    omega_z = np.sum(cert.T_z[:, None] * z * (W_x @ z + W_u @ u - z), axis=0)
    # r(g~)' T_g (g~ - r(g~)) + r(-g~)' T_g (-g~ - r(-g~))
    omega_g = np.sum(cert.T_g[:, None] * (gp * (g - gp) + gm * (-g - gm)), axis=0)
    # T_u1 eps_u1 + T_u2 eps_u2 - T_u1 ||u~||_1 - T_u2 ||u~||_2^2
    omega_u = (
        cert.T_u1 * (cert.eps_u1 * one * one - norm1_u)
        + cert.T_u2 * (cert.eps_u2 * one * one - norm2sq_u)
    )
    # ||g~||_1 - gamma - gamma_u1 ||u~||_1 - gamma_u2 ||u~||_2^2
    omega_gamma = (
        norm1_g
        - cert.gamma * one * one
        - cert.gamma_u1 * norm1_u
        - cert.gamma_u2 * norm2sq_u
    )
    return omega_z + omega_g + omega_u + omega_gamma


def certificate_matrix(W, cert: Certificate) -> np.ndarray:
    """Symmetric matrix of the certificate's quadratic form, by polarization."""
    n, n_u, n_g = W[0].shape[0], W[1].shape[1], W[2].shape[0]
    N = 2 * n_g + 2 * n_u + n + n_u + 1
    eye = np.eye(N)
    diag = _quadratic_form(W, cert, eye)
    iu, ju = np.triu_indices(N, k=1)
    both = _quadratic_form(W, cert, eye[:, iu] + eye[:, ju])
    M = np.diag(diag)
    off = (both - diag[iu] - diag[ju]) / 2.0
    M[iu, ju] = off
    M[ju, iu] = off
    return M


def weights_of(net) -> tuple:
    return (net.W_x, net.W_u, net.W_fx, net.W_fu)


def top_eigenvalue(net, cert: Certificate) -> float:
    return float(np.linalg.eigvalsh(certificate_matrix(weights_of(net), cert))[-1])


def max_deviation(net, ref) -> float:
    """Largest entrywise distance between the weight blocks of two networks."""
    return max(
        float(np.max(np.abs(a - b))) if a.size else 0.0
        for a, b in zip(weights_of(net), weights_of(ref))
    )


def sample_pairs(
    rng: np.random.Generator,
    n_u: int,
    count: int,
    box: tuple[float, float],
    eps_u1: float,
    eps_u2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(U1, U2) with one pair per row: U1 uniform over the box, U2 - U1 in
    the pair set, half of the differences within 10% of its boundary."""
    U1 = rng.uniform(box[0], box[1], size=(count, n_u))
    D = rng.standard_normal((count, n_u))
    reach = np.minimum(
        eps_u1 / np.sum(np.abs(D), axis=1),
        math.sqrt(eps_u2) / np.linalg.norm(D, axis=1),
    )
    frac = np.where(
        np.arange(count) % 2 == 0,
        rng.uniform(0.9, 1.0, size=count),
        rng.uniform(0.0, 1.0, size=count),
    )
    D *= (reach * frac * (1.0 - 1e-12))[:, None]
    return U1, U1 + D


def _activation(kind: str, S: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(S, 0.0)
    if kind == "tanh":
        return np.tanh(S)
    raise ValueError(f"no reference activation for {kind!r}")


def fixed_point_residual(net, X: np.ndarray, U: np.ndarray) -> float:
    """max |x - phi(W_x x + W_u u + b)| over the columns of X and U."""
    if X.size == 0:
        return 0.0
    S = net.W_x @ X + net.W_u @ U + net.b[:, None]
    return float(np.max(np.abs(X - _activation(net.activation.kind, S))))


def check_certificate(net, ref, cert: Certificate, tolerance: float) -> list[Failure]:
    """The eigenvalue and weight-band checks; returns the failures found."""
    failures = []
    lam = top_eigenvalue(net, cert)
    if not lam <= 0.0:
        failures.append(Failure("eigenvalue", lam, "certificate matrix is not <= 0"))
    dev = max_deviation(net, ref)
    if not dev <= tolerance + WEIGHT_SLACK:
        failures.append(Failure("weights", dev, f"a weight moved by more than {tolerance:g}"))
    return failures


def check_pairs(G1, G2, U1, U2, cert: Certificate) -> list[Failure]:
    """The sampled-pair check: no 1-norm output gap may exceed the certified
    bound.  G1, G2 hold outputs by columns, U1, U2 inputs by rows."""
    bound = cert.bound(U2 - U1)
    margin = bound - np.sum(np.abs(G2 - G1), axis=0)
    bad = int(np.sum(margin < -GAP_RTOL * (1.0 + bound)))
    if bad:
        return [Failure("pairs", float(np.min(margin)), f"{bad} sampled pairs exceed the bound")]
    return []
