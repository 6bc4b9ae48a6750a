"""Implicit neural networks with slope-restricted activations.

A network here is the implicit model

    x = phi(W_x x + W_u u + b),        f(u) = W_fx x + W_fu u + b_f,

where phi is one of the shipped elementwise activations (relu, tanh and a
shifted sigmoid), each with every secant slope in [0, 1].  That bound is
not stored here: it is written once, in the certificate's slope term
(multipliers.build_omega_z_check).  One batched routine computes the fixed
points of all inputs at once: semismooth Newton for ReLU networks, and
damped Picard iteration with Anderson mixing for every other activation
and for the inputs where Newton stalls.  evaluate is evaluate_batch on a
single input.  A network may carry an exact fixed-point hint that bypasses
iteration; mpc.qp_to_implicit_network attaches one unless given
attach_hint=False, as every shipped flow builds the bridge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonConvergence, SchemaError, check_count


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def _sigmoid_shifted(x: np.ndarray) -> np.ndarray:
    # logistic sigmoid recentered through the origin; secant slopes lie in (0, 1/4]
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float))) - 0.5


_SHIPPED_ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": relu,
    "tanh": np.tanh,
    "sigmoid_shifted": _sigmoid_shifted,
}


@dataclass(frozen=True)
class Activation:
    """One of the shipped elementwise activations, named by kind.

    Every secant (phi(a) - phi(b)) / (a - b) of each lies in [0, 1], the
    slope restriction the certificate's slope term assumes
    (multipliers.build_omega_z_check).
    """

    kind: str

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SHIPPED_ACTIVATIONS:
            raise SchemaError(f"unknown activation kind {self.kind!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _SHIPPED_ACTIVATIONS[self.kind](np.asarray(x, dtype=float))

    @staticmethod
    def relu() -> "Activation":
        return Activation("relu")

    @staticmethod
    def tanh() -> "Activation":
        return Activation("tanh")

    @staticmethod
    def sigmoid_shifted() -> "Activation":
        return Activation("sigmoid_shifted")


@dataclass
class FixedPointConfig:
    """Controls the fixed-point solve in evaluate / evaluate_batch.

    acceleration "newton" solves ReLU networks by semismooth Newton;
    "anderson", and every other activation, uses damped Picard iteration
    with Anderson mixing.  tol bounds the residual of every returned state,
    and max_iters the number of Picard sweeps.
    """

    tol: float = 1e-10
    max_iters: int = 100_000
    acceleration: str = "newton"

    def __post_init__(self):
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol!r}")
        check_count(self.max_iters, "max_iters")
        if self.acceleration not in ("newton", "anderson"):
            raise ValueError(f"unknown acceleration {self.acceleration!r}")


# Picard steps are x + _DAMPING (phi(W_x x + q) - x); Newton takes at most
# _NEWTON_SWEEPS steps before the columns where it stalls go to Picard.
_DAMPING = 0.5
_NEWTON_SWEEPS = 60


def _as_matrix(obj, rows: int, cols: int, name: str) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as ex:
        raise SchemaError(f"field {name!r} is not a numeric array: {ex}") from None
    if rows * cols == 0:
        if arr.size != 0:
            raise DimensionMismatch(
                f"field {name!r}: expected shape {(rows, cols)}, got {arr.shape}"
            )
        return arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise DimensionMismatch(
            f"field {name!r}: expected shape {(rows, cols)}, got {arr.shape}"
        )
    return arr


def _as_vector(obj, length: int, name: str) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as ex:
        raise SchemaError(f"field {name!r} is not a numeric array: {ex}") from None
    if length == 0:
        if arr.size != 0:
            raise DimensionMismatch(f"field {name!r}: expected length 0, got {arr.shape}")
        return arr.reshape(0)
    if arr.shape != (length,):
        raise DimensionMismatch(
            f"field {name!r}: expected shape ({length},), got {arr.shape}"
        )
    return arr


@dataclass
class ImplicitNetwork:
    """Implicit network x = phi(W_x x + W_u u + b), f(u) = W_fx x + W_fu u + b_f."""

    W_x: np.ndarray
    W_u: np.ndarray
    W_fx: np.ndarray
    W_fu: np.ndarray
    b: np.ndarray
    b_f: np.ndarray
    activation: Activation = field(default_factory=Activation.relu)
    # optional exact solver u -> x attached by producers that know more
    # structure than the iteration does (e.g. the QP bridge); never serialized
    fixed_point_hint: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        W_x = np.asarray(self.W_x, dtype=float)
        if W_x.ndim != 2 or W_x.shape[0] != W_x.shape[1]:
            raise DimensionMismatch(f"W_x must be square, got {W_x.shape}")
        self.W_x = W_x
        n = W_x.shape[0]
        self.W_u = np.asarray(self.W_u, dtype=float)
        if self.W_u.ndim == 1 and n > 0:
            self.W_u = self.W_u.reshape(n, -1)
        if self.W_u.ndim != 2 or self.W_u.shape[0] != n:
            raise DimensionMismatch(f"W_u must be ({n}, n_u), got {self.W_u.shape}")
        n_u = self.W_u.shape[1]
        self.W_fx = np.asarray(self.W_fx, dtype=float)
        if self.W_fx.ndim == 1 and n > 0:
            self.W_fx = self.W_fx.reshape(-1, n)
        if self.W_fx.ndim != 2 or self.W_fx.shape[1] != n:
            raise DimensionMismatch(f"W_fx must be (n_g, {n}), got {self.W_fx.shape}")
        n_g = self.W_fx.shape[0]
        self.W_fu = np.asarray(self.W_fu, dtype=float)
        if self.W_fu.shape != (n_g, n_u):
            if self.W_fu.size == n_g * n_u:
                self.W_fu = self.W_fu.reshape(n_g, n_u)
            else:
                raise DimensionMismatch(
                    f"W_fu must be ({n_g}, {n_u}), got {self.W_fu.shape}"
                )
        self.b = np.asarray(self.b, dtype=float).reshape(n)
        self.b_f = np.asarray(self.b_f, dtype=float).reshape(n_g)
        for name, arr in (("W_x", self.W_x), ("W_u", self.W_u), ("W_fx", self.W_fx),
                          ("W_fu", self.W_fu), ("b", self.b), ("b_f", self.b_f)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise SchemaError(f"{name} contains non-finite entries")

    @property
    def n(self) -> int:
        return self.W_x.shape[0]

    @property
    def n_u(self) -> int:
        return self.W_u.shape[1]

    @property
    def n_g(self) -> int:
        return self.W_fx.shape[0]

    def pre_activation(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.W_x @ x + self.W_u @ u + self.b

    def residual(self, x: np.ndarray, u: np.ndarray) -> float:
        """Infinity norm of x - phi(W_x x + W_u u + b)."""
        if self.n == 0:
            return 0.0
        return float(np.max(np.abs(x - self.activation(self.pre_activation(x, u)))))

    def with_hint(self, hint: Callable[[np.ndarray], np.ndarray] | None) -> "ImplicitNetwork":
        return replace(self, fixed_point_hint=hint)


@dataclass
class EvalResult:
    g: np.ndarray
    x: np.ndarray
    iterations: int


def _fixed_points(net: ImplicitNetwork, Q: np.ndarray, cfg: FixedPointConfig):
    """Solve x = phi(W_x x + q) for every column q of Q; returns (X, sweeps).

    ReLU networks under "newton" take semismooth Newton steps on
    s = W_x relu(s) + q with the active-set Jacobian I - W_x D; the map is
    piecewise linear, so Newton terminates finitely under nondegeneracy.
    Every other column (all columns of other activations, and those where
    Newton stalls) restarts from zero under damped Picard steps with type-II
    Anderson mixing of depth 1 (Walker & Ni, SIAM J. Numer. Anal. 2011),
    whose weight has a closed form per column.  Columns leave the iteration
    as they converge.
    """
    n, B = Q.shape
    X = np.zeros((n, B))
    if n == 0 or B == 0:
        return X, 0
    W, phi = net.W_x, net.activation
    live = np.arange(B)
    sweeps = 0
    if cfg.acceleration == "newton" and phi.kind == "relu":
        S = Ql = Q
        eye = np.eye(n)
        for sweeps in range(_NEWTON_SWEEPS + 1):
            R = S - W @ relu(S) - Ql
            # |relu(s) - relu(W relu(s) + q)| <= |R|, so done columns meet tol
            done = np.abs(R).max(axis=0) <= 0.1 * cfg.tol
            X[:, live[done]] = relu(S[:, done])
            live, S, Ql, R = live[~done], S[:, ~done], Ql[:, ~done], R[:, ~done]
            if live.size == 0:
                return X, sweeps
            if sweeps == _NEWTON_SWEEPS:
                break
            J = eye - W * (S > 0).T[:, None, :]     # one Jacobian per column
            try:
                S = S - np.linalg.solve(J, R.T[:, :, None])[:, :, 0].T
            except np.linalg.LinAlgError:
                break
    Ql = Q[:, live]
    Xl = np.zeros((n, live.size))
    prev = None           # (G, R) of the previous sweep
    for k in range(cfg.max_iters + 1):
        R = phi(W @ Xl + Ql) - Xl
        res = np.abs(R).max(axis=0)
        done = res <= cfg.tol
        if done.any():
            X[:, live[done]] = Xl[:, done]
            keep = ~done
            if not keep.any():
                return X, sweeps + k
            live = live[keep]
            Xl, Ql, R = (a.compress(keep, axis=1) for a in (Xl, Ql, R))
            if prev is not None:
                prev = tuple(a.compress(keep, axis=1) for a in prev)
        if k == cfg.max_iters:
            break
        G = Xl + _DAMPING * R     # the damped Picard step
        if prev is None:
            Xl = G
        else:
            # type-II Anderson of depth 1: w minimizes ||R - w dR||_2 per
            # column; where dR = 0 or the step overflows it is not finite
            dG, dR = G - prev[0], R - prev[1]
            with np.errstate(all="ignore"):
                w = np.einsum("ik,ik->k", dR, R) / np.einsum("ik,ik->k", dR, dR)
                Xl = G - dG * w
            bad = ~np.isfinite(Xl).all(axis=0)
            Xl[:, bad] = G[:, bad]
        prev = (G, R)
    raise NonConvergence(cfg.max_iters, float(np.max(res)))


def evaluate(
    net: ImplicitNetwork, u: np.ndarray, config: FixedPointConfig | None = None
) -> EvalResult:
    """Solve the implicit state equation at input u and return (g, x, iterations).

    The returned x satisfies ||x - phi(W_x x + W_u u + b)||_inf <= config.tol.
    """
    u = np.asarray(u, dtype=float).reshape(net.n_u)
    G, X, iters = evaluate_batch(net, u[:, None], config)
    return EvalResult(G[:, 0], X[:, 0], iters)


def evaluate_batch(
    net: ImplicitNetwork, U: np.ndarray, config: FixedPointConfig | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate many inputs at once; U has one input per column.

    Returns (G, X, iterations) with G of shape (n_g, B) and X of shape (n, B);
    every column of X meets the residual tolerance of config.
    """
    cfg = config or FixedPointConfig()
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != net.n_u:
        raise DimensionMismatch(f"U must be (n_u, B), got {U.shape}")
    B = U.shape[1]
    X, iters = None, 0
    if net.fixed_point_hint is not None:
        X = np.empty((net.n, B))
        for j in range(B):
            X[:, j] = np.asarray(net.fixed_point_hint(U[:, j]), dtype=float).reshape(net.n)
            if net.residual(X[:, j], U[:, j]) > cfg.tol:
                X = None
                break
    if X is None:
        X, iters = _fixed_points(net, net.W_u @ U + net.b[:, None], cfg)
    G = net.W_fx @ X + net.W_fu @ U + net.b_f[:, None]
    return G, X, iters


_NETWORK_FIELDS = ("n", "n_u", "n_g", "activation", "W_x", "W_u", "W_fx", "W_fu", "b", "b_f")


def save_network(net: ImplicitNetwork, path: str) -> None:
    """Write the network as a structured-text (JSON) document, floats with
    full round-trip precision."""
    doc = {
        "n": net.n,
        "n_u": net.n_u,
        "n_g": net.n_g,
        "activation": net.activation.kind,
        "W_x": net.W_x.tolist(),
        "W_u": net.W_u.tolist(),
        "W_fx": net.W_fx.tolist(),
        "W_fu": net.W_fu.tolist(),
        "b": net.b.tolist(),
        "b_f": net.b_f.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_network(path: str) -> ImplicitNetwork:
    """Read a network document written by save_network; validates the schema."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as ex:
            raise SchemaError(f"not a valid structured-text document: {ex}") from None
    if not isinstance(doc, dict):
        raise SchemaError("network document must be a mapping")
    missing = [k for k in _NETWORK_FIELDS if k not in doc]
    extra = [k for k in doc if k not in _NETWORK_FIELDS]
    if missing or extra:
        raise SchemaError(
            f"network document keys mismatch: missing {missing}, unexpected {extra}"
        )
    dims = {}
    for k in ("n", "n_u", "n_g"):
        v = doc[k]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise SchemaError(f"field {k!r} must be a nonnegative integer")
        dims[k] = v
    activation = Activation(doc["activation"])
    n, n_u, n_g = dims["n"], dims["n_u"], dims["n_g"]
    return ImplicitNetwork(
        W_x=_as_matrix(doc["W_x"], n, n, "W_x"),
        W_u=_as_matrix(doc["W_u"], n, n_u, "W_u"),
        W_fx=_as_matrix(doc["W_fx"], n_g, n, "W_fx"),
        W_fu=_as_matrix(doc["W_fu"], n_g, n_u, "W_fu"),
        b=_as_vector(doc["b"], n, "b"),
        b_f=_as_vector(doc["b_f"], n_g, "b_f"),
        activation=activation,
    )
