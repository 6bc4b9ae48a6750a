"""Empirical validation of certificates and tolerance sweeps.

Certificates come out of a lifted relaxation, so every claim they make should
be falsifiable by sampling: input pairs are drawn from the certified pair
set with a bias toward its boundary (where violations would show first), the
certified bound is compared against the actual output gap, and the multiplier
nonnegativity lemma backing the relaxation is stress-tested on random
networks.  Each check reads the package's own definitions, on stacks of
pairs: the pair set (InputPairSet.contains), the bound
(RobustnessCertificate.bound) and p (multipliers.assemble_p).  The sweep
solves the caller's SynthesisProblem, under the caller's SolverOptions,
across a list of uniform weight tolerances and records how the certified
bound trades off against similarity, one row per tolerance, never aborting
on a failed row.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
from dataclasses import astuple, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial

import numpy as np

from .conic import SolverOptions
from .errors import Infeasible, RobsynError, check_count
from .multipliers import Dims, InputPairSet, MultiplierSet, assemble_p
from .multipliers import build_omega_g_check, build_omega_u, build_omega_z_check
from .network import Activation, FixedPointConfig, ImplicitNetwork, evaluate_batch
from .synthesis import RobustnessCertificate, SimilarityTolerances, SynthesisProblem, synthesize


_BOUNDARY_FRACTION = 0.5    # of the sampled pairs, see SampleSpec
_VIOLATION_TOL = 1e-6       # see empirical_bound_check
_LEMMA_MAX_STATES = 8       # states of the lemma suite's random networks
_LEMMA_SLACK_TOL = 1e-8     # see lemma_property_suite


@dataclass(frozen=True)
class SampleSpec:
    """How to draw input pairs for an empirical check.

    u1 is uniform over base_box in every coordinate; the difference vector
    points uniformly on the sphere and is scaled to the pair set boundary,
    with _BOUNDARY_FRACTION of the draws placed just inside it (radius factor
    uniform in [0.95, 1]) and the rest pulled inward by a Beta(5, 1) factor
    so the interior still gets coverage.
    """

    num_pairs: int = 1000
    base_box: tuple[float, float] = (-5.0, 5.0)

    def __post_init__(self):
        check_count(self.num_pairs, "num_pairs")
        if len(self.base_box) != 2:
            raise ValueError(f"base_box must be a pair (lo, hi), got {self.base_box!r}")
        if not all(math.isfinite(end) for end in self.base_box):
            raise ValueError(f"base_box ends must be finite, got {self.base_box!r}")
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
    n_boundary = int(round(_BOUNDARY_FRACTION * N))
    t = np.empty(N)
    t[:n_boundary] = rng.uniform(0.95, 1.0, size=n_boundary)
    t[n_boundary:] = rng.beta(5.0, 1.0, size=N - n_boundary)
    diff = dirs * (scale * t)[:, None]
    # exact membership despite rounding
    diff[~input_set.contains(diff)] *= 1.0 - 1e-12
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
) -> EmpiricalCheck:
    """Sample pairs from the certificate's own input set and compare the
    1-norm output gap against the certified bound.

    worst_margin is min(bound - gap) over the sample (below -_VIOLATION_TOL
    means a violation beyond rounding); empirical_gamma_lb is the largest
    constant term that the sample proves necessary given the certified gain
    terms.
    """
    spec = spec or SampleSpec()
    U1, U2 = sample_input_pairs(certificate.input_set, network.n_u, spec, seed)
    G1 = evaluate_batch(network, U1.T)[0]
    G2 = evaluate_batch(network, U2.T)[0]
    lhs = np.sum(np.abs(G2 - G1), axis=0)
    rhs = certificate.bound(U2 - U1)
    margin = rhs - lhs
    gamma_lb = lhs - (rhs - certificate.gamma)
    return EmpiricalCheck(
        num_pairs=spec.num_pairs,
        violations=int(np.sum(margin < -_VIOLATION_TOL)),
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


def lemma_property_suite(
    num_networks: int = 200,
    pairs_per_network: int = 1000,
    seed: int = 0,
) -> LemmaSuiteResult:
    """Stress-test the nonnegativity lemma behind the relaxation.

    For random well-posed networks, random nonnegative multipliers and
    random input pairs from a random pair set, each of the three multiplier
    forms (state slope, output split, input set) evaluated on the realized
    incremental vector must be nonnegative up to _LEMMA_SLACK_TOL (1 + |p|^2).
    """
    rng = np.random.default_rng(seed)
    activations = [Activation.relu(), Activation.tanh(), Activation.sigmoid_shifted()]
    # the realized vectors must be exact well below _LEMMA_SLACK_TOL
    solve = FixedPointConfig(tol=1e-12)
    worst = math.inf
    failures = 0
    for _ in range(num_networks):
        n = int(rng.integers(1, _LEMMA_MAX_STATES + 1))
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
        P = assemble_p(net, U1, U2, solve)
        norm2 = np.sum(P * P, axis=1)
        for omega in (Oz, Og, Ou):
            s = np.einsum("ki,ij,kj->k", P, omega, P)
            normalized = s / (1.0 + norm2)
            worst = min(worst, float(np.min(normalized)))
            failures += int(np.sum(normalized < -_LEMMA_SLACK_TOL))
    return LemmaSuiteResult(
        num_networks=num_networks,
        pairs_per_network=pairs_per_network,
        min_normalized_slack=worst,
        failures=failures,
    )


def open_artifact(path: str, timestamp: bool):
    """A text file opened for writing with LF line endings; unless timestamp
    is False, its first line is a '# generated <UTC time>' comment."""
    fh = open(path, "w", newline="")
    if timestamp:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    return fh


def write_csv(path: str, columns, rows, timestamp: bool = True) -> None:
    """A CSV artifact (see open_artifact) of a header row and one line per
    row: floats printed with 17 significant digits, other values as str."""
    with open_artifact(path, timestamp) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


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

    COLUMNS = tuple(f.name for f in fields(SweepRow))

    def write_csv(self, path: str, timestamp: bool = True) -> None:
        write_csv(path, self.COLUMNS, [astuple(r) for r in self.rows], timestamp)

    def write_gnuplot(self, path: str, timestamp: bool = True) -> None:
        """Two-column (eps, gamma) whitespace file for direct plotting."""
        with open_artifact(path, timestamp) as fh:
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


def _sweep_one(problem: SynthesisProblem, options, spec, seed, eps: float) -> SweepRow:
    nan = math.nan
    try:
        sol = synthesize(replace(problem, tolerances=SimilarityTolerances.uniform(eps)), options)
    except Infeasible:
        return SweepRow(eps, nan, nan, nan, nan, "infeasible", nan, nan)
    except RobsynError as exc:
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
        max_weight_deviation=max_weight_deviation(sol.network, problem.network),
    )


def sweep_tolerance(
    problem: SynthesisProblem,
    eps_values,
    options: SolverOptions | None = None,
    spec: SampleSpec | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Synthesize across tolerances and record the bound/similarity tradeoff.

    Each row solves the given problem, with every tolerance set to the row's
    eps, under the given solver options; everything else (pair set,
    weights, pinned gains, strictness_shift, t_floor) is the problem's.  To
    let gamma alone track the tradeoff, pin both gains to zero in the
    problem.  Rows that fail keep their error in the status column instead
    of aborting the sweep.  jobs > 1 distributes rows over processes (the
    network's fixed-point hint, if any, is dropped for every row since
    closures do not cross processes).
    """
    problem = replace(problem, network=problem.network.with_hint(None))
    solve_row = partial(_sweep_one, problem, options, spec or SampleSpec(), seed)
    eps_values = [float(e) for e in eps_values]
    if jobs > 1 and len(eps_values) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(solve_row, eps_values))
    else:
        rows = [solve_row(eps) for eps in eps_values]
    return SweepResult(rows=rows)
