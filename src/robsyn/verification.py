"""Empirical validation of certificates and tolerance sweeps.

Certificates come out of a lifted relaxation, so every claim they make should
be falsifiable by sampling: input pairs are drawn from the certified pair
set with a bias toward its boundary (where violations would show first), the
certified bound is compared against the actual output gap, and the multiplier
nonnegativity lemma backing the relaxation is stress-tested on random
networks.  The sweep runs synthesis across a list of weight tolerances and
records how the certified bound trades off against similarity, one row per
tolerance, never aborting on a failed row.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import Infeasible, NumericalFailure, RobsynError
from .multipliers import Dims, InputPairSet, MultiplierSet
from .multipliers import build_omega_g_check, build_omega_u, build_omega_z_check
from .network import Activation, FixedPointConfig, ImplicitNetwork, evaluate_batch
from .synthesis import (
    ObjectiveWeights,
    RobustnessCertificate,
    SimilarityTolerances,
    SynthesisProblem,
    synthesize,
)


@dataclass(frozen=True)
class SampleSpec:
    """How to draw input pairs for an empirical check.

    u1 is uniform over base_box in every coordinate; the difference vector
    points uniformly on the sphere and is scaled to the pair set boundary,
    with boundary_fraction of the draws placed just inside it (radius factor
    uniform in [0.95, 1]) and the rest pulled inward by a Beta(5, 1) factor
    so the interior still gets coverage.
    """

    num_pairs: int = 1000
    base_box: tuple[float, float] = (-5.0, 5.0)
    boundary_fraction: float = 0.5
    violation_tol: float = 1e-6

    def __post_init__(self):
        if self.num_pairs < 1:
            raise ValueError("num_pairs must be at least 1")
        if not 0.0 <= self.boundary_fraction <= 1.0:
            raise ValueError("boundary_fraction must lie in [0, 1]")
        if self.base_box[0] > self.base_box[1]:
            raise ValueError("base_box must be ordered (lo, hi)")


def sample_input_pairs(
    input_set: InputPairSet,
    n_u: int,
    spec: SampleSpec | None = None,
    seed: int | np.random.Generator = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (U1, U2) with every difference inside the pair set exactly."""
    spec = spec or SampleSpec()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    N = spec.num_pairs
    dirs = rng.standard_normal((N, n_u))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    dirs /= norms[:, None]
    l1 = np.sum(np.abs(dirs), axis=1)
    l2 = np.linalg.norm(dirs, axis=1)
    scale = np.minimum(
        np.divide(input_set.eps_u1, l1, out=np.full(N, np.inf), where=l1 > 0),
        np.divide(math.sqrt(input_set.eps_u2), l2, out=np.full(N, np.inf), where=l2 > 0),
    )
    scale[~np.isfinite(scale)] = 0.0
    n_boundary = int(round(spec.boundary_fraction * N))
    t = np.empty(N)
    t[:n_boundary] = rng.uniform(0.95, 1.0, size=n_boundary)
    t[n_boundary:] = rng.beta(5.0, 1.0, size=N - n_boundary)
    diff = dirs * (scale * t)[:, None]
    # exact membership despite rounding
    over1 = np.sum(np.abs(diff), axis=1) > input_set.eps_u1
    over2 = np.sum(diff * diff, axis=1) > input_set.eps_u2
    diff[over1 | over2] *= 1.0 - 1e-12
    lo, hi = spec.base_box
    U1 = rng.uniform(lo, hi, size=(N, n_u))
    return U1, U1 + diff


@dataclass
class EmpiricalCheck:
    """Outcome of comparing a certificate against sampled output gaps."""

    num_pairs: int
    violations: int
    worst_margin: float
    max_lhs: float
    empirical_gamma_lb: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def empirical_bound_check(
    network: ImplicitNetwork,
    certificate: RobustnessCertificate,
    spec: SampleSpec | None = None,
    seed: int | np.random.Generator = 0,
    config: FixedPointConfig | None = None,
) -> EmpiricalCheck:
    """Sample pairs from the certificate's own input set and compare the
    1-norm output gap against the certified bound.

    worst_margin is min(bound - gap) over the sample (negative means a
    violation beyond rounding); empirical_gamma_lb is the largest constant
    term that the sample proves necessary given the certified gain terms.
    """
    spec = spec or SampleSpec()
    U1, U2 = sample_input_pairs(certificate.input_set, network.n_u, spec, seed)
    G1 = evaluate_batch(network, U1.T, config)[0]
    G2 = evaluate_batch(network, U2.T, config)[0]
    diff = U2 - U1
    lhs = np.sum(np.abs(G2 - G1), axis=0)
    rhs = (
        certificate.gamma
        + certificate.gamma_u1 * np.sum(np.abs(diff), axis=1)
        + certificate.gamma_u2 * np.sum(diff * diff, axis=1)
    )
    margin = rhs - lhs
    gamma_lb = lhs - (rhs - certificate.gamma)
    return EmpiricalCheck(
        num_pairs=spec.num_pairs,
        violations=int(np.sum(margin < -spec.violation_tol)),
        worst_margin=float(np.min(margin)),
        max_lhs=float(np.max(lhs)),
        empirical_gamma_lb=float(np.max(gamma_lb)),
    )


@dataclass
class LemmaSuiteResult:
    num_networks: int
    pairs_per_network: int
    min_normalized_slack: float
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _batch_states(net: ImplicitNetwork, U: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Plain Picard over a whole batch (inputs as rows), returning states as rows.

    Only valid for contractive networks (spectral norm of W_x strictly below
    one times the slope bound); the suite generator guarantees that, and the
    vectorized loop keeps 200 networks x 2000 solves cheap for every
    activation kind, not just relu.
    """
    Q = U @ net.W_u.T + net.b
    X = np.zeros_like(Q, shape=(U.shape[0], net.n))
    for _ in range(2000):
        X_new = net.activation(X @ net.W_x.T + Q)
        if np.max(np.abs(X_new - X)) <= tol:
            return X_new
        X = X_new
    return X


def lemma_property_suite(
    num_networks: int = 200,
    pairs_per_network: int = 1000,
    max_state_dim: int = 8,
    seed: int = 0,
    slack_tol: float = 1e-8,
) -> LemmaSuiteResult:
    """Stress-test the nonnegativity lemma behind the relaxation.

    For random well-posed networks, random nonnegative multipliers and
    random input pairs from a random pair set, each of the three multiplier
    forms (state slope, output split, input set) evaluated on the realized
    incremental vector must be nonnegative up to slack_tol * (1 + |p|^2).
    """
    rng = np.random.default_rng(seed)
    activations = [Activation.relu(), Activation.tanh(), Activation.sigmoid_shifted()]
    worst = math.inf
    failures = 0
    for _ in range(num_networks):
        n = int(rng.integers(1, max_state_dim + 1))
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
        X1 = _batch_states(net, U1)
        X2 = _batch_states(net, U2)
        Zt = X2 - X1
        Ut = U2 - U1
        Gt = Zt @ net.W_fx.T + Ut @ net.W_fu.T
        P = np.concatenate(
            [
                np.maximum(Gt, 0.0),
                np.maximum(-Gt, 0.0),
                np.maximum(Ut, 0.0),
                np.maximum(-Ut, 0.0),
                Zt,
                Ut,
                np.ones((pairs_per_network, 1)),
            ],
            axis=1,
        )
        norm2 = np.sum(P * P, axis=1)
        for omega in (Oz, Og, Ou):
            s = np.einsum("ki,ij,kj->k", P, omega, P)
            normalized = s / (1.0 + norm2)
            worst = min(worst, float(np.min(normalized)))
            failures += int(np.sum(normalized < -slack_tol))
    return LemmaSuiteResult(
        num_networks=num_networks,
        pairs_per_network=pairs_per_network,
        min_normalized_slack=worst,
        failures=failures,
    )


@dataclass
class SweepRow:
    eps: float
    gamma: float
    gamma_u1: float
    gamma_u2: float
    objective: float
    status: str
    empirical_max_lhs: float
    max_weight_deviation: float


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)

    COLUMNS = (
        "eps",
        "gamma",
        "gamma_u1",
        "gamma_u2",
        "objective",
        "status",
        "empirical_max_lhs",
        "max_weight_deviation",
    )

    def write_csv(self, path: str, timestamp: bool = True) -> None:
        with open(path, "w", newline="") as fh:
            if timestamp:
                fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.COLUMNS)
            for r in self.rows:
                writer.writerow(
                    [
                        f"{r.eps:.17g}",
                        f"{r.gamma:.17g}",
                        f"{r.gamma_u1:.17g}",
                        f"{r.gamma_u2:.17g}",
                        f"{r.objective:.17g}",
                        r.status,
                        f"{r.empirical_max_lhs:.17g}",
                        f"{r.max_weight_deviation:.17g}",
                    ]
                )

    def write_gnuplot(self, path: str, timestamp: bool = True) -> None:
        """Two-column (eps, gamma) whitespace file for direct plotting."""
        with open(path, "w") as fh:
            if timestamp:
                fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
            fh.write("# eps gamma\n")
            for r in self.rows:
                if math.isfinite(r.gamma):
                    fh.write(f"{r.eps:.17g} {r.gamma:.17g}\n")


def max_weight_deviation(net: ImplicitNetwork, ref: ImplicitNetwork) -> float:
    """Largest entrywise difference across the four weight blocks."""
    return max(
        float(np.max(np.abs(net.W_x - ref.W_x))) if ref.W_x.size else 0.0,
        float(np.max(np.abs(net.W_u - ref.W_u))) if ref.W_u.size else 0.0,
        float(np.max(np.abs(net.W_fx - ref.W_fx))) if ref.W_fx.size else 0.0,
        float(np.max(np.abs(net.W_fu - ref.W_fu))) if ref.W_fu.size else 0.0,
    )


def _sweep_one(args) -> SweepRow:
    (network, input_set, eps, fix_gains, weights, backend, spec, seed) = args
    problem = SynthesisProblem(
        network=network,
        input_set=input_set,
        tolerances=SimilarityTolerances.uniform(eps),
        weights=weights,
        fixed_gamma_u1=0.0 if fix_gains else None,
        fixed_gamma_u2=0.0 if fix_gains else None,
    )
    nan = math.nan
    try:
        sol = synthesize(problem, backend=backend)
    except Infeasible:
        return SweepRow(eps, nan, nan, nan, nan, "infeasible", nan, nan)
    except (NumericalFailure, RobsynError) as exc:
        return SweepRow(eps, nan, nan, nan, nan, f"failed: {exc}", nan, nan)
    cert = sol.certificate
    check = empirical_bound_check(sol.network, cert, spec, seed)
    return SweepRow(
        eps=eps,
        gamma=cert.gamma,
        gamma_u1=cert.gamma_u1,
        gamma_u2=cert.gamma_u2,
        objective=cert.objective_value,
        status=sol.status_label,
        empirical_max_lhs=check.max_lhs,
        max_weight_deviation=max_weight_deviation(sol.network, network),
    )


def sweep_tolerance(
    network: ImplicitNetwork,
    input_set: InputPairSet,
    eps_values,
    fix_gains: bool = True,
    weights: ObjectiveWeights | None = None,
    backend: str = "bundled",
    spec: SampleSpec | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Synthesize across tolerances and record the bound/similarity tradeoff.

    With fix_gains (the default) the input-dependent bound coefficients are
    pinned to zero so gamma alone tracks the tradeoff.  Rows that fail keep
    their error in the status column instead of aborting the sweep.  jobs > 1
    distributes rows over processes (the network's fixed-point hint, if any,
    is dropped for the workers since closures do not cross processes).
    """
    weights = weights or ObjectiveWeights()
    spec = spec or SampleSpec()
    eps_values = [float(e) for e in eps_values]
    args = [
        (network.with_hint(None), input_set, eps, fix_gains, weights, backend, spec, seed)
        for eps in eps_values
    ]
    if jobs > 1 and len(args) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, args))
    else:
        rows = [_sweep_one(a) for a in args]
    return SweepResult(rows=rows)
