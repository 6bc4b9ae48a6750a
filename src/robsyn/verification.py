"""Empirical validation of certificates and tolerance sweeps.

Certificates come out of a lifted relaxation, so every claim they make should
be falsifiable by sampling: input pairs are drawn from the certified pair
set with a bias toward its boundary (where violations would show first) and
the certified bound is compared against the actual output gap.  The check
reads the package's own definitions, on stacks of pairs: the pair set
(InputPairSet.contains) and the bound (RobustnessCertificate.bound).  The
sweep solves the caller's SynthesisProblem, under the caller's SolverOptions,
across a list of uniform weight tolerances and records how the certified
bound trades off against similarity, one SweepRow per tolerance, never
aborting on a failed row.  The module reads and writes no files: the CLI
writes the rows as its artifacts.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .conic import SolverOptions
from .errors import Infeasible, RobsynError, check_count, check_number
from .multipliers import InputPairSet
from .network import ImplicitNetwork, evaluate_batch
from .synthesis import RobustnessCertificate, SimilarityTolerances, SynthesisProblem, synthesize


_BOUNDARY_FRACTION = 0.5    # of the sampled pairs, see SampleSpec
_VIOLATION_TOL = 1e-6       # see empirical_bound_check


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
        for i, end in enumerate(self.base_box):
            check_number(end, f"base_box[{i}]", "any")
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
class SweepRow:
    eps: float
    gamma: float
    gamma_u1: float
    gamma_u2: float
    objective: float
    status: str
    empirical_max_lhs: float
    max_weight_deviation: float


def max_weight_deviation(net: ImplicitNetwork, ref: ImplicitNetwork) -> float:
    """Largest entrywise difference across the four weight blocks."""
    return max(
        float(np.max(np.abs(net.W_x - ref.W_x))) if ref.W_x.size else 0.0,
        float(np.max(np.abs(net.W_u - ref.W_u))) if ref.W_u.size else 0.0,
        float(np.max(np.abs(net.W_fx - ref.W_fx))) if ref.W_fx.size else 0.0,
        float(np.max(np.abs(net.W_fu - ref.W_fu))) if ref.W_fu.size else 0.0,
    )


def _sweep_one(problem: SynthesisProblem, options, spec, seed,
               tolerances: SimilarityTolerances) -> SweepRow:
    eps, nan = float(tolerances.w_x), math.nan
    try:
        sol = synthesize(replace(problem, tolerances=tolerances), options)
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
) -> list[SweepRow]:
    """Synthesize across tolerances and record the bound/similarity tradeoff.

    Returns one row per eps, in order.  Each row solves the given problem,
    with every tolerance set to the row's eps, under the given solver
    options; everything else (the network, the pair set and the pinned
    gains) is the problem's.  Every eps is checked, as SimilarityTolerances
    checks it, before the first row is solved.  To let gamma alone track
    the tradeoff, pin both gains to zero in the problem.  Rows that fail
    keep their error in the status column instead of aborting the sweep.  jobs, an integer of at least 1, is the number of processes the
    rows are distributed over (the network's fixed-point hint, if any, is
    dropped for every row since closures do not cross processes).
    """
    check_count(jobs, "jobs")
    problem = replace(problem, network=problem.network.with_hint(None))
    grid = [SimilarityTolerances.uniform(eps) for eps in eps_values]
    solve_row = partial(_sweep_one, problem, options, spec or SampleSpec(), seed)
    if jobs > 1 and len(grid) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(solve_row, grid))
    return [solve_row(tolerances) for tolerances in grid]
