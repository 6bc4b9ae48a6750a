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
iteration; mpc.qp_to_implicit_network attaches one only when given
attach_hint=True, which no shipped flow passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonConvergence, SchemaError


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
    with Anderson mixing.  tol bounds the residual of every returned state.
    """

    tol: float = 1e-10
    acceleration: str = "newton"

    def __post_init__(self):
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol!r}")
        if self.acceleration not in ("newton", "anderson"):
            raise ValueError(f"unknown acceleration {self.acceleration!r}")


# Picard steps are x + _DAMPING (phi(W_x x + q) - x), at most _PICARD_SWEEPS
# of them; Newton takes at most _NEWTON_SWEEPS steps before the columns where
# it stalls go to Picard.
_DAMPING = 0.5
_PICARD_SWEEPS = 100_000
_NEWTON_SWEEPS = 60


def _as_array(obj, shape: tuple[int, ...], name: str) -> np.ndarray:
    """obj as a float array of exactly the given shape, or SchemaError (not
    numeric) or DimensionMismatch (another shape) naming the field.  An empty
    obj fits any empty shape, as JSON writes every empty array as []."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as ex:
        raise SchemaError(f"field {name!r} is not a numeric array: {ex}") from None
    if arr.size == 0 == math.prod(shape):
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise DimensionMismatch(f"field {name!r}: expected shape {shape}, got {arr.shape}")
    return arr


def _field_shapes(n: int, n_u: int, n_g: int) -> dict[str, tuple[int, ...]]:
    """The documented shape of each array field of ImplicitNetwork."""
    return {"W_x": (n, n), "W_u": (n, n_u), "W_fx": (n_g, n), "W_fu": (n_g, n_u),
            "b": (n,), "b_f": (n_g,)}


def _size(obj, axis: int) -> int:
    """The size of an unchecked array-like along axis, 1 for a scalar; the
    shape check that follows then names obj if it is not a matrix."""
    return np.shape(obj)[axis] if np.ndim(obj) else 1


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
        # n, n_u and n_g are read off W_x, W_u and W_fx, which are checked
        # first; every field must then have exactly its documented shape
        n, n_u, n_g = _size(self.W_x, 0), _size(self.W_u, -1), _size(self.W_fx, 0)
        for name, shape in _field_shapes(n, n_u, n_g).items():
            arr = _as_array(getattr(self, name), shape, name)
            if not np.all(np.isfinite(arr)):
                raise SchemaError(f"{name} contains non-finite entries")
            setattr(self, name, arr)

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
    for k in range(_PICARD_SWEEPS + 1):
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
        if k == _PICARD_SWEEPS:
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
    raise NonConvergence(_PICARD_SWEEPS, float(np.max(res)))


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
    shapes = _field_shapes(dims["n"], dims["n_u"], dims["n_g"])
    return ImplicitNetwork(
        **{name: _as_array(doc[name], shape, name) for name, shape in shapes.items()},
        activation=activation,
    )
