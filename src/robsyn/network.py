"""Implicit neural networks with slope-restricted activations.

A network here is the implicit model

    x = phi(W_x x + W_u u + b),        f(u) = W_fx x + W_fu u + b_f,

where phi acts elementwise and every component has secant slopes in
[slope_lo, slope_hi] = [0, 1].  The fixed point x is computed by damped
Picard iteration, optionally Anderson-accelerated, or by a semismooth
Newton method specialized to ReLU.  Networks produced from a QP (see the
mpc module) may carry an exact fixed-point hint that bypasses iteration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonConvergence, SchemaError


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def abs_via_relu(x: np.ndarray) -> np.ndarray:
    """|x| written as relu(x) + relu(-x), the identity behind the 1-norm encoding."""
    return relu(x) + relu(-x)


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
    """An elementwise activation with certified secant-slope bounds.

    slope_lo/slope_hi bound every secant (phi(a) - phi(b)) / (a - b); all
    shipped activations satisfy [0, 1].
    """

    kind: str
    slope_lo: float = 0.0
    slope_hi: float = 1.0
    fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.fn is not None:
            return np.asarray(self.fn(x), dtype=float)
        try:
            return _SHIPPED_ACTIVATIONS[self.kind](np.asarray(x, dtype=float))
        except KeyError:
            raise SchemaError(f"unknown activation kind {self.kind!r}") from None

    @staticmethod
    def relu() -> "Activation":
        return Activation("relu")

    @staticmethod
    def tanh() -> "Activation":
        return Activation("tanh")

    @staticmethod
    def sigmoid_shifted() -> "Activation":
        return Activation("sigmoid_shifted")

    @staticmethod
    def custom(
        fn: Callable[[np.ndarray], np.ndarray],
        slope_lo: float = 0.0,
        slope_hi: float = 1.0,
    ) -> "Activation":
        """Wrap a user-sampled elementwise function; not serializable."""
        return Activation("custom", slope_lo, slope_hi, fn)


@dataclass
class FixedPointConfig:
    """Controls the fixed-point solve in evaluate / evaluate_batch.

    acceleration is one of "none" (plain damped Picard), "anderson"
    (depth-limited Anderson mixing on the damped map), or "newton"
    (semismooth Newton, ReLU networks only).
    """

    tol: float = 1e-10
    max_iters: int = 100_000
    damping: float = 0.5
    acceleration: str = "anderson"
    anderson_depth: int = 5

    def __post_init__(self):
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.acceleration not in ("none", "anderson", "newton"):
            raise ValueError(f"unknown acceleration {self.acceleration!r}")
        if self.anderson_depth < 1:
            raise ValueError("anderson_depth must be at least 1")


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

    def output(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.W_fx @ x + self.W_fu @ u + self.b_f

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


def _picard_anderson(net: ImplicitNetwork, q: np.ndarray, cfg: FixedPointConfig):
    """Damped Picard iteration on x -> phi(W_x x + q), Anderson-mixed if asked."""
    n = net.n
    phi = net.activation
    alpha = cfg.damping
    x = np.zeros(n)
    depth = cfg.anderson_depth if cfg.acceleration == "anderson" else 0
    X_hist: list[np.ndarray] = []
    F_hist: list[np.ndarray] = []
    for k in range(cfg.max_iters):
        fx = phi(net.W_x @ x + q)
        r = fx - x
        res = float(np.max(np.abs(r))) if n else 0.0
        if res <= cfg.tol:
            return x, k
        if depth > 0:
            X_hist.append(x.copy())
            F_hist.append(r.copy())
            if len(X_hist) > depth + 1:
                X_hist.pop(0)
                F_hist.pop(0)
            m = len(X_hist) - 1
            if m >= 1:
                # type-II Anderson: minimize || r_k + dR w ||_2 over history window
                dR = np.stack([F_hist[i + 1] - F_hist[i] for i in range(m)], axis=1)
                dX = np.stack([X_hist[i + 1] - X_hist[i] for i in range(m)], axis=1)
                try:
                    w, *_ = np.linalg.lstsq(
                        dR.T @ dR + 1e-12 * np.eye(m), -dR.T @ r, rcond=None
                    )
                    x_new = x + alpha * r + (dX + alpha * dR) @ w
                    if np.all(np.isfinite(x_new)):
                        x = x_new
                        continue
                except np.linalg.LinAlgError:
                    pass
        x = x + alpha * r
    fx = phi(net.W_x @ x + q)
    res = float(np.max(np.abs(fx - x))) if n else 0.0
    if res <= cfg.tol:
        return x, cfg.max_iters
    raise NonConvergence(cfg.max_iters, res)


def _newton_relu_batch(net: ImplicitNetwork, Qmat: np.ndarray, cfg: FixedPointConfig):
    """Semismooth Newton on s = W_x relu(s) + q, batched over columns of Qmat.

    The map is piecewise linear, so Newton with the active-set generalized
    Jacobian I - W_x D terminates finitely under nondegeneracy; a damped
    Picard sweep mops up columns where it stalls.
    """
    if net.activation.kind != "relu":
        raise ValueError("newton acceleration requires a ReLU activation")
    n, B = Qmat.shape[0], Qmat.shape[1]
    if n == 0:
        return np.zeros((0, B)), 0
    W = net.W_x
    S = Qmat.copy()
    eye = np.eye(n)
    live = np.arange(B)
    iters = 0
    for _ in range(60):
        if live.size == 0:
            break
        iters += 1
        Sl = S[:, live]
        R = Sl - W @ relu(Sl) - Qmat[:, live]
        res = np.max(np.abs(R), axis=0)
        done = res <= 0.1 * cfg.tol
        if np.any(done):
            live = live[~done]
            if live.size == 0:
                break
            Sl = S[:, live]
            R = R[:, ~done]
        act = (Sl > 0).astype(float)                # (n, k)
        J = eye[None, :, :] - W[None, :, :] * act.T[:, None, :]
        try:
            step = np.linalg.solve(J, -R.T[:, :, None])[:, :, 0].T
        except np.linalg.LinAlgError:
            break
        S[:, live] = Sl + step
    X = relu(S)
    # contract check against the undamped map, per column
    R = X - relu(W @ X + Qmat)
    bad = np.where(np.max(np.abs(R), axis=0) > cfg.tol)[0] if B else np.array([], int)
    for j in bad:
        sub = replace(cfg, acceleration="anderson")
        X[:, j], extra = _picard_anderson(net, Qmat[:, j], sub)
        iters += extra
    return X, iters


def evaluate(
    net: ImplicitNetwork, u: np.ndarray, config: FixedPointConfig | None = None
) -> EvalResult:
    """Solve the implicit state equation at input u and return (g, x, iterations).

    The returned x satisfies ||x - phi(W_x x + W_u u + b)||_inf <= config.tol.
    """
    cfg = config or FixedPointConfig()
    u = np.asarray(u, dtype=float).reshape(net.n_u)
    if net.fixed_point_hint is not None:
        x = np.asarray(net.fixed_point_hint(u), dtype=float).reshape(net.n)
        if net.residual(x, u) <= cfg.tol:
            return EvalResult(net.output(x, u), x, 0)
        # hint disagreed with the network; fall through to iteration
    q = net.W_u @ u + net.b
    if cfg.acceleration == "newton":
        X, iters = _newton_relu_batch(net, q.reshape(net.n, 1), cfg)
        x = X[:, 0]
    else:
        x, iters = _picard_anderson(net, q, cfg)
    return EvalResult(net.output(x, u), x, iters)


def evaluate_batch(
    net: ImplicitNetwork, U: np.ndarray, config: FixedPointConfig | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate many inputs at once; U has one input per column.

    Returns (G, X, iterations) with G of shape (n_g, B) and X of shape (n, B).
    Matches per-input evaluate to within the residual tolerance.
    """
    cfg = config or FixedPointConfig()
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != net.n_u:
        raise DimensionMismatch(f"U must be (n_u, B), got {U.shape}")
    B = U.shape[1]
    if net.fixed_point_hint is not None:
        X = np.empty((net.n, B))
        ok = True
        for j in range(B):
            X[:, j] = np.asarray(net.fixed_point_hint(U[:, j]), dtype=float).reshape(net.n)
            if net.residual(X[:, j], U[:, j]) > cfg.tol:
                ok = False
                break
        if ok:
            G = net.W_fx @ X + net.W_fu @ U + net.b_f[:, None]
            return G, X, 0
    Qmat = net.W_u @ U + net.b[:, None]
    if cfg.acceleration == "newton" and net.activation.kind == "relu":
        X, iters = _newton_relu_batch(net, Qmat, cfg)
    else:
        X = np.empty((net.n, B))
        iters = 0
        for j in range(B):
            X[:, j], it = _picard_anderson(net, Qmat[:, j], cfg)
            iters = max(iters, it)
    G = net.W_fx @ X + net.W_fu @ U + net.b_f[:, None]
    return G, X, iters


_NETWORK_FIELDS = ("n", "n_u", "n_g", "activation", "W_x", "W_u", "W_fx", "W_fu", "b", "b_f")


def save_network(net: ImplicitNetwork, path: str) -> None:
    """Write the network as a structured-text (JSON) document.

    Floats are written with full round-trip precision; custom activations
    carry a callable and cannot be serialized.
    """
    if net.activation.kind not in _SHIPPED_ACTIVATIONS:
        raise SchemaError(
            f"activation kind {net.activation.kind!r} is not serializable"
        )
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
    kind = doc["activation"]
    if kind not in _SHIPPED_ACTIVATIONS:
        raise SchemaError(f"unknown activation kind {kind!r}")
    n, n_u, n_g = dims["n"], dims["n_u"], dims["n_g"]
    net = ImplicitNetwork(
        W_x=_as_matrix(doc["W_x"], n, n, "W_x"),
        W_u=_as_matrix(doc["W_u"], n, n_u, "W_u"),
        W_fx=_as_matrix(doc["W_fx"], n_g, n, "W_fx"),
        W_fu=_as_matrix(doc["W_fu"], n_g, n_u, "W_fu"),
        b=_as_vector(doc["b"], n, "b"),
        b_f=_as_vector(doc["b_f"], n_g, "b_f"),
        activation=Activation(kind),
    )
    return net
