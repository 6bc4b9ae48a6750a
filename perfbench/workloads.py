"""The benchmark's workloads: how each builds its inputs, what one operation
is, and how each operation's output is checked.

Why these four: the paper-MPC synthesis at 1e-5 spends its time in the
dense per-iteration KKT work of one solve; at 1e-1 the fallback ladder
throws away a whole 80-iteration solve before the capped rung succeeds;
the analysis program has 35 variables against the same 47x47 block, so its
iterations are bound by the PSD-block scaling work; the corpus of small
random networks is where network evaluation, sampling and per-call set-up
of assembly and solver count.
"""

from __future__ import annotations

import numpy as np

import checks
from robsyn.conic import SolverOptions
from robsyn.mpc import (
    condense_qp,
    qp_to_implicit_network,
    reference_mpc_problem,
    solve_qp_oracle,
)
from robsyn.multipliers import InputPairSet
from robsyn.network import Activation, FixedPointConfig, ImplicitNetwork, evaluate_batch
from robsyn.synthesis import (
    SimilarityTolerances,
    SynthesisProblem,
    analyze_network,
    synthesize,
)
from robsyn.verification import SampleSpec, empirical_bound_check

PAIR_SET = InputPairSet(1.0, 1.0)

# The MPC inputs saturate at |v| = 10.  Over this box about seven draws in
# ten saturate some input of the horizon; over the program's default box
# (-5, 5) none do, and the certificate would be tested on the linear piece
# of the MPC law only.
MPC_BOX = (-50.0, 50.0)
MPC_PAIRS = 256
MIN_SATURATED_SHARE = 0.25

NEWTON = FixedPointConfig(acceleration="newton")

# The corpus is one fixed draw, not a draw per seed: about one random
# instance in 130 (3 of 400 seen) comes back from the relaxed-margin rung
# with a positive lmi_margin, so a per-seed draw would fail a different
# share of its operations on each seed.  The seed picks the sampled pairs.
CORPUS_SEED = 0
CORPUS_SIZE = 23
CORPUS_TOLERANCE = (0.0, 0.25)
CORPUS_PAIRS = 200      # pairs of the operation's own empirical_bound_check
CORPUS_CHECK_PAIRS = 50  # pairs the benchmark evaluates on its own
CORPUS_BOX = (-5.0, 5.0)

# A healthy ReLU network whose strict rung ends with lmi_margin +8.2e-10 at
# the default 1e-7 solver tolerances; the margin rule sends it on to the
# relaxed rung, which returns +6.08e-8.  Kept as a counted failure.
KEPT = {
    "network_seed": 2001,
    "dims": (4, 1, 3),
    "eps_u1": 0.30895101776147704,
    "eps_u2": 1.6960883112507026,
    "tolerance": 0.19926735718801156,
}

# The relaxed rung's margin is 5e-8; a positive top eigenvalue up to this
# level is the named fault, anything above it is not.
RELAXED_LEVEL = 1e-7


def random_network(seed, n, n_u, n_g, activation, contraction=0.9):
    """Random network with ||W_x||_2 <= contraction < 1, hence well posed."""
    rng = np.random.default_rng(seed)
    W_x = rng.standard_normal((n, n))
    norm = np.linalg.norm(W_x, 2)
    if norm > 0:
        W_x *= contraction / max(norm, contraction)
    return ImplicitNetwork(
        W_x=W_x,
        W_u=rng.standard_normal((n, n_u)),
        W_fx=rng.standard_normal((n_g, n)),
        W_fu=rng.standard_normal((n_g, n_u)),
        b=rng.standard_normal(n),
        b_f=rng.standard_normal(n_g),
        activation=activation,
    )


def _pinned(net, eps_u1, eps_u2, tolerance, pinned):
    gain = 0.0 if pinned else None
    return SynthesisProblem(
        network=net,
        input_set=InputPairSet(eps_u1, eps_u2),
        tolerances=SimilarityTolerances.uniform(tolerance),
        fixed_gamma_u1=gain,
        fixed_gamma_u2=gain,
    )


def corpus_problems() -> list[SynthesisProblem]:
    """CORPUS_SIZE random instances, then the kept one.

    n <= 4, n_u and n_g <= 3; activations alternate ReLU, ReLU, tanh, tanh
    and the gains are pinned on every other instance, so each pairing of
    activation and pinning occurs.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    kinds = (Activation.relu(), Activation.tanh())
    problems = []
    for k in range(CORPUS_SIZE):
        n, n_u, n_g = (int(v) for v in rng.integers(1, (5, 4, 4)))
        net = random_network(int(rng.integers(2**31)), n, n_u, n_g, kinds[(k // 2) % 2])
        eps_u1, eps_u2 = (float(v) for v in rng.uniform(0.3, 2.0, size=2))
        tolerance = float(rng.uniform(*CORPUS_TOLERANCE))
        problems.append(_pinned(net, eps_u1, eps_u2, tolerance, pinned=k % 2 == 1))
    kept = random_network(KEPT["network_seed"], *KEPT["dims"], Activation.relu())
    problems.append(
        _pinned(kept, KEPT["eps_u1"], KEPT["eps_u2"], KEPT["tolerance"], pinned=True)
    )
    return problems


def _network_outputs(net, U):
    """Outputs (by columns) of a synthesized network at the rows of U, with
    the failures of its fixed-point solve."""
    config = NEWTON if net.activation.kind == "relu" else None
    G, X, _ = evaluate_batch(net, U.T, config)
    res = checks.fixed_point_residual(net, X, U.T)
    if not res <= checks.RESIDUAL_TOL:
        return G, [checks.Failure("residual", res, "fixed-point solve not converged")]
    return G, []


def _check_sampled_pairs(sol, U1, U2):
    G1, bad1 = _network_outputs(sol.network, U1)
    G2, bad2 = _network_outputs(sol.network, U2)
    return bad1 + bad2 + checks.check_pairs(G1, G2, U1, U2, checks.Certificate.of(sol))


def _named_fault_only(failures) -> bool:
    """True when the only failure is a positive top eigenvalue at the level
    of the relaxed margin."""
    return (
        len(failures) == 1
        and failures[0].check == "eigenvalue"
        and failures[0].value <= RELAXED_LEVEL
    )


class _Mpc:
    """Shared set-up of the three paper-MPC workloads."""

    expected_to_fail = False

    def setup(self, seed, span):
        with span("mpc.build"):
            qp = condense_qp(reference_mpc_problem())
            net = qp_to_implicit_network(qp, attach_hint=False)
        return {"seed": seed, "qp": qp, "net": net}

    def prepare(self, st):
        """Reference values of the checks, outside set-up and operations."""
        rng = np.random.default_rng([st["seed"], 1])
        st["U1"], st["U2"] = checks.sample_pairs(
            rng, st["net"].n_u, MPC_PAIRS, MPC_BOX, PAIR_SET.eps_u1, PAIR_SET.eps_u2
        )
        qp = st["qp"]
        V1 = np.array([solve_qp_oracle(qp, w).v for w in st["U1"]]).T
        V2 = np.array([solve_qp_oracle(qp, w).v for w in st["U2"]]).T
        st["oracle"] = (V1, V2)
        limit = qp.v_bound * (1.0 - 1e-9)
        saturated = np.any(np.abs(V1) >= limit, axis=0) | np.any(np.abs(V2) >= limit, axis=0)
        st["saturated_share"] = float(np.mean(saturated))

    def run_failures(self, st):
        share = st["saturated_share"]
        if share < MIN_SATURATED_SHARE:
            return [checks.Failure("saturation", share, "too few sampled pairs saturate the MPC")]
        return []

    def classify(self, index, failures):
        """'pass', 'named' (the named fault, expected) or 'unexpected'."""
        if not failures:
            return "pass"
        if self.expected_to_fail and _named_fault_only(failures):
            return "named"
        return "unexpected"


class MpcSynthesis(_Mpc):
    def __init__(self, tolerance, options):
        self.tolerance = tolerance
        self.options = options

    def prepare(self, st):
        super().prepare(st)
        ref = analyze_network(st["net"], PAIR_SET, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0)
        st["gamma_ref"] = ref.certificate.gamma

    def round(self, st):
        problem = _pinned(
            st["net"], PAIR_SET.eps_u1, PAIR_SET.eps_u2, self.tolerance, pinned=True
        )

        def op(span):
            with span("synthesis.synthesize"):
                return synthesize(problem, self.options)

        return [op]

    def check(self, st, index, sol, first):
        cert = checks.Certificate.of(sol)
        failures = checks.check_certificate(sol.network, st["net"], cert, self.tolerance)
        failures += _check_sampled_pairs(sol, st["U1"], st["U2"])
        if sol.solver_result.detail != "":
            failures.append(
                checks.Failure("clean", sol.solver_result.iterations, sol.solver_result.detail)
            )
        if not cert.gamma <= (1 - 1e-4) * st["gamma_ref"]:
            failures.append(
                checks.Failure(
                    "gain", cert.gamma / st["gamma_ref"], "gamma not below analysis gamma"
                )
            )
        if first:
            again = analyze_network(
                sol.network, PAIR_SET, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0
            ).certificate.gamma
            if not abs(again - cert.gamma) <= 1e-4 * cert.gamma:
                failures.append(
                    checks.Failure("reanalysis", again, "re-analysis certifies another gamma")
                )
        return failures


class MpcAnalysis(_Mpc):
    # The relaxed-margin rung returns lmi_margin +5.03e-8 for the
    # structurally marginal MPC network, so every operation fails the
    # eigenvalue check.
    expected_to_fail = True

    def round(self, st):
        def op(span):
            with span("synthesis.analyze_network"):
                return analyze_network(
                    st["net"], PAIR_SET, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0
                )

        return [op]

    def check(self, st, index, sol, first):
        cert = checks.Certificate.of(sol)
        failures = checks.check_certificate(sol.network, st["net"], cert, 0.0)
        V1, V2 = st["oracle"]
        return failures + checks.check_pairs(V1, V2, st["U1"], st["U2"], cert)


class Corpus:
    def setup(self, seed, span):
        return {"seed": seed, "problems": corpus_problems()}

    def prepare(self, st):
        seed = st["seed"]
        st["pairs"] = []
        st["check_seeds"] = []
        for k, problem in enumerate(st["problems"]):
            rng = np.random.default_rng([seed, 2, k])
            s = problem.input_set
            st["pairs"].append(
                checks.sample_pairs(
                    rng, problem.network.n_u, CORPUS_CHECK_PAIRS, CORPUS_BOX, s.eps_u1, s.eps_u2
                )
            )
            st["check_seeds"].append(int(np.random.SeedSequence([seed, 3, k]).generate_state(1)[0]))

    def run_failures(self, st):
        return []

    def round(self, st):
        spec = SampleSpec(num_pairs=CORPUS_PAIRS, base_box=CORPUS_BOX)

        def make(problem, check_seed):
            def op(span):
                with span("synthesis.synthesize"):
                    sol = synthesize(problem)
                with span("verification.check", pairs=spec.num_pairs):
                    found = empirical_bound_check(sol.network, sol.certificate, spec, check_seed)
                return sol, found

            return op

        return [make(p, s) for p, s in zip(st["problems"], st["check_seeds"])]

    def check(self, st, index, out, first):
        sol, found = out
        problem = st["problems"][index]
        cert = checks.Certificate.of(sol)
        failures = checks.check_certificate(
            sol.network, problem.network, cert, problem.tolerances.w_x
        )
        failures += _check_sampled_pairs(sol, *st["pairs"][index])
        if found.violations:
            failures.append(
                checks.Failure(
                    "own-check", found.violations, "empirical_bound_check found violations"
                )
            )
        return failures

    def classify(self, index, failures):
        if not failures:
            return "pass"
        if index == CORPUS_SIZE and _named_fault_only(failures):
            return "named"
        return "unexpected"


WORKLOADS = {
    "mpc-fine": MpcSynthesis(1e-5, SolverOptions(feas_tol=1e-8, gap_tol=1e-8)),
    "mpc-coarse": MpcSynthesis(1e-1, None),
    "mpc-analyze": MpcAnalysis(),
    "corpus": Corpus(),
}
