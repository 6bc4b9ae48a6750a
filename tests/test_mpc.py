"""Tests for the MPC condensing bridge.

The condensed quadratic/linear terms are checked against a direct rollout of
the dynamics (independent oracle), the QP oracle against its own KKT
conditions, and the bridge network against the QP oracle on a state grid.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import robsyn.network
from robsyn import evaluate, evaluate_batch
from robsyn.errors import DimensionMismatch, NonPositiveDefinite, SingularH
from robsyn.mpc import (
    CondensedQP,
    MpcProblem,
    condense_qp,
    qp_to_implicit_network,
    reference_mpc_problem,
    simulate_closed_loop,
    solve_qp_oracle,
)
from robsyn.multipliers import InputPairSet
from robsyn.verification import SampleSpec, sample_input_pairs
from helpers import rollout_cost


def random_problem(seed: int, n_x=2, n_v=1, horizon=4) -> MpcProblem:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_x, n_x))
    A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n_x, n_v))
    Mq = rng.standard_normal((n_x, n_x))
    Mp = rng.standard_normal((n_x, n_x))
    Mr = rng.standard_normal((n_v, n_v))
    return MpcProblem(
        A=A,
        B=B,
        Q=Mq @ Mq.T + 0.1 * np.eye(n_x),
        P=Mp @ Mp.T + 0.1 * np.eye(n_x),
        R=Mr @ Mr.T + 0.1 * np.eye(n_v),
        horizon=horizon,
        v_bound=float(rng.uniform(0.5, 3.0)),
    )


class TestCondense:
    def test_horizon_one_quadratic_term_is_btpb_plus_r(self):
        # with N = 1 the only state cost is x_1' P x_1, so H = B'PB + R
        prob = reference_mpc_problem()
        prob1 = MpcProblem(
            A=prob.A, B=prob.B, Q=prob.Q, R=prob.R, P=prob.P, horizon=1, v_bound=10.0
        )
        qp = condense_qp(prob1)
        assert qp.H.shape == (1, 1)
        assert qp.H[0, 0] == pytest.approx(4.6852 + 1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_cost_matches_rollout(self, seed):
        prob = random_problem(seed, n_x=3, n_v=2, horizon=5)
        qp = condense_qp(prob)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(5):
            w0 = rng.standard_normal(prob.n_x)
            v = rng.standard_normal(qp.n_dec)
            direct = rollout_cost(prob, w0, v)
            assert qp.total_cost(v, w0) == pytest.approx(direct, rel=1e-11, abs=1e-11)

    def test_reference_shapes_and_symmetry(self):
        qp = condense_qp(reference_mpc_problem())
        assert qp.H.shape == (10, 10)
        assert qp.F.shape == (10, 2)
        assert qp.G.shape == (20, 10)
        assert np.array_equal(qp.H, qp.H.T)
        assert np.all(np.linalg.eigvalsh(qp.H) > 0)
        assert np.all(qp.c == 1.0)
        assert np.all(qp.S_w == 0.0)

    def test_constraint_rows_encode_the_box(self):
        prob = reference_mpc_problem()
        qp = condense_qp(prob)
        v = np.full(qp.n_dec, prob.v_bound)
        assert np.max(qp.G @ v - qp.c) == pytest.approx(0.0, abs=1e-14)
        assert np.max(qp.G @ (1.01 * v) - qp.c) > 0

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            MpcProblem(
                A=np.eye(2), B=np.zeros((3, 1)), Q=np.eye(2), R=np.eye(1),
                P=np.eye(2), horizon=3, v_bound=1.0,
            )
        with pytest.raises(DimensionMismatch):
            MpcProblem(
                A=np.eye(2), B=np.zeros((2, 1)), Q=np.array([[1.0, 0.5], [0.0, 1.0]]),
                R=np.eye(1), P=np.eye(2), horizon=3, v_bound=1.0,
            )
        with pytest.raises(ValueError):
            MpcProblem(
                A=np.eye(2), B=np.zeros((2, 1)), Q=np.eye(2), R=np.eye(1),
                P=np.eye(2), horizon=0, v_bound=1.0,
            )

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            # a 1-D B is not read as a column, nor a scalar R as 1x1
            ("B", np.array([0.0, 1.0]), "field 'B': expected shape (2, 2), got (2,)"),
            ("R", 1.0, "field 'R': expected shape (1, 1), got ()"),
            ("Q", np.eye(3), "field 'Q': expected shape (2, 2), got (3, 3)"),
            # a plant without inputs condenses to a QP in no variables
            ("B", np.zeros((2, 0)), "B must have a column, got shape (2, 0)"),
            ("B", [], "B must have a column, got shape (0,)"),
        ],
        ids=["B-1d", "R-scalar", "Q-size", "B-no-column", "B-empty"],
    )
    def test_matrices_must_have_exactly_their_shapes(self, field, value, expected):
        ref = reference_mpc_problem()
        fields = dict(A=ref.A, B=ref.B, Q=ref.Q, R=ref.R, P=ref.P, horizon=3, v_bound=1.0)
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(expected)}$"):
            MpcProblem(**{**fields, field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("horizon", 2.5, "horizon must be an integer"),
            ("horizon", True, "horizon must be an integer"),
            ("v_bound", math.nan, "v_bound must be positive"),
            ("v_bound", math.inf, "v_bound must be positive"),
        ],
        ids=str,
    )
    def test_validation_names_a_bad_scalar(self, field, value, message):
        # unchecked, a fractional horizon fails later in condense_qp with a
        # TypeError and a NaN bound in scipy; an infinite bound never
        # saturates; True, an Integral to Python, would build horizon 1
        with pytest.raises(ValueError, match=rf"^{message}.*, got {value!r}$"):
            dataclasses.replace(reference_mpc_problem(), **{field: value})


class TestQpOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_kkt_residual_small(self, seed):
        prob = random_problem(seed)
        qp = condense_qp(prob)
        rng = np.random.default_rng(2000 + seed)
        w = rng.uniform(-5, 5, size=prob.n_x)
        sol = solve_qp_oracle(qp, w)
        assert sol.kkt_residual <= 1e-8
        assert np.all(sol.multipliers >= 0)
        assert np.max(np.abs(sol.v)) <= qp.v_bound * (1 + 1e-9)

    def test_unconstrained_interior_solution(self):
        # tiny state: analytic optimum -H^{-1} F w lies inside the box
        prob = reference_mpc_problem()
        qp = condense_qp(prob)
        w = np.array([0.05, -0.05])
        sol = solve_qp_oracle(qp, w)
        expected = -np.linalg.solve(qp.H, qp.F @ w)
        np.testing.assert_allclose(sol.v, expected, atol=1e-10)
        assert np.all(sol.multipliers == 0)

    def test_zero_state_gives_zero_input(self):
        qp = condense_qp(reference_mpc_problem())
        sol = solve_qp_oracle(qp, np.zeros(2))
        assert np.all(sol.v == 0)
        assert np.all(sol.multipliers == 0)

    def test_saturation_activates_for_large_state(self):
        prob = reference_mpc_problem()
        qp = condense_qp(prob)
        sol = solve_qp_oracle(qp, np.array([40.0, -40.0]))
        assert np.max(np.abs(sol.v)) == pytest.approx(prob.v_bound, abs=1e-9)
        assert np.max(sol.multipliers) > 0
        assert sol.kkt_residual <= 1e-8

    def test_optimality_against_perturbations(self):
        prob = reference_mpc_problem()
        qp = condense_qp(prob)
        w = np.array([3.0, -2.0])
        sol = solve_qp_oracle(qp, w)
        base = qp.total_cost(sol.v, w)
        rng = np.random.default_rng(7)
        for _ in range(200):
            other = np.clip(
                sol.v + rng.standard_normal(qp.n_dec) * 0.1, -qp.v_bound, qp.v_bound
            )
            assert qp.total_cost(other, w) >= base - 1e-9

    def test_indefinite_quadratic_term_raises(self):
        qp = condense_qp(reference_mpc_problem())
        bad = CondensedQP(
            H=qp.H - 20.0 * np.eye(qp.n_dec), F=qp.F, E=qp.E, G=qp.G, c=qp.c,
            S_w=qp.S_w, v_bound=qp.v_bound, n_x=qp.n_x, n_v=qp.n_v,
            horizon=qp.horizon,
        )
        with pytest.raises(NonPositiveDefinite):
            solve_qp_oracle(bad, np.zeros(2))

    def test_singular_quadratic_term_raises(self):
        qp = condense_qp(reference_mpc_problem())
        bad = CondensedQP(
            H=np.zeros_like(qp.H), F=qp.F, E=qp.E, G=qp.G, c=qp.c, S_w=qp.S_w,
            v_bound=qp.v_bound, n_x=qp.n_x, n_v=qp.n_v, horizon=qp.horizon,
        )
        with pytest.raises(SingularH):
            solve_qp_oracle(bad, np.zeros(2))


class TestBridgeNetwork:
    def test_dimensions(self):
        qp = condense_qp(reference_mpc_problem())
        net = qp_to_implicit_network(qp)
        assert (net.n, net.n_u, net.n_g) == (20, 2, 10)

    def test_network_state_is_half_the_multipliers(self):
        qp = condense_qp(reference_mpc_problem())
        net = qp_to_implicit_network(qp, attach_hint=False)
        sol = solve_qp_oracle(qp, np.array([2.0, -3.0]))
        x_hat = sol.multipliers / 2.0
        res = net.residual(x_hat, np.array([2.0, -3.0]))
        assert np.max(np.abs(res)) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_network_output_matches_oracle_without_hint(self, seed):
        prob = random_problem(seed, horizon=3)
        qp = condense_qp(prob)
        net = qp_to_implicit_network(qp, attach_hint=False)
        rng = np.random.default_rng(3000 + seed)
        w = rng.uniform(-4, 4, size=prob.n_x)
        sol = solve_qp_oracle(qp, w)
        out = evaluate(net, w)
        np.testing.assert_allclose(out.g, sol.v, atol=1e-6)

    def test_default_evaluation_matches_oracle_on_saturated_inputs(self, monkeypatch):
        # over (-50, 50) most draws saturate the input, where Anderson-mixed
        # Picard needs thousands of sweeps; the default solves them by Newton,
        # and the Picard budget is cut to 3000 sweeps so a fall back to Picard
        # cannot pass slowly
        monkeypatch.setattr(robsyn.network, "_PICARD_SWEEPS", 3000)
        qp = condense_qp(reference_mpc_problem())
        net = qp_to_implicit_network(qp, attach_hint=False)
        spec = SampleSpec(num_pairs=200, base_box=(-50.0, 50.0))
        U = sample_input_pairs(InputPairSet(1.0, 1.0), 2, spec, 0)[0]
        G = evaluate_batch(net, U.T)[0]
        oracle = np.stack([solve_qp_oracle(qp, u).v for u in U], axis=1)
        np.testing.assert_allclose(G, oracle, rtol=0, atol=1e-9)

    def test_hint_short_circuits_iteration(self):
        qp = condense_qp(reference_mpc_problem())
        net = qp_to_implicit_network(qp, attach_hint=True)
        out = evaluate(net, np.array([1.0, -1.0]))
        assert out.iterations == 0
        sol = solve_qp_oracle(qp, np.array([1.0, -1.0]))
        np.testing.assert_allclose(out.g, sol.v, atol=1e-9)

    def test_cost_identity_through_the_network(self):
        prob = reference_mpc_problem()
        qp = condense_qp(prob)
        net = qp_to_implicit_network(qp, attach_hint=False)
        rng = np.random.default_rng(11)
        for _ in range(10):
            w = rng.uniform(-5, 5, size=2)
            g = evaluate(net, w).g
            direct = rollout_cost(prob, w, g)
            assert qp.total_cost(g, w) == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_singular_h_raises_at_bridge_time(self):
        qp = condense_qp(reference_mpc_problem())
        bad = CondensedQP(
            H=np.zeros_like(qp.H), F=qp.F, E=qp.E, G=qp.G, c=qp.c, S_w=qp.S_w,
            v_bound=qp.v_bound, n_x=qp.n_x, n_v=qp.n_v, horizon=qp.horizon,
        )
        with pytest.raises(SingularH):
            qp_to_implicit_network(bad)

    def test_bridge_and_oracle_agree_on_a_nearly_singular_h(self):
        # positive definite to Cholesky, singular to the eigenvalue test
        qp = condense_qp(reference_mpc_problem())
        H = np.diag(np.r_[1.0, np.full(qp.n_dec - 2, 0.5), 5e-13])
        bad = CondensedQP(
            H=H, F=qp.F, E=qp.E, G=qp.G, c=qp.c, S_w=qp.S_w,
            v_bound=qp.v_bound, n_x=qp.n_x, n_v=qp.n_v, horizon=qp.horizon,
        )
        with pytest.raises(SingularH):
            solve_qp_oracle(bad, np.zeros(2))
        with pytest.raises(SingularH):
            qp_to_implicit_network(bad)


class TestClosedLoop:
    def test_regulates_to_origin(self):
        prob = reference_mpc_problem()
        W, V = simulate_closed_loop(prob, np.array([1.0, -1.0]), steps=30)
        assert W.shape == (31, 2)
        assert V.shape == (30, 1)
        assert np.linalg.norm(W[-1]) <= 1e-6

    def test_network_controller_reproduces_oracle_loop(self):
        prob = reference_mpc_problem()
        net = qp_to_implicit_network(condense_qp(prob), attach_hint=False)
        W_ref, V_ref = simulate_closed_loop(prob, np.array([2.0, 1.0]), steps=15)
        W_net, V_net = simulate_closed_loop(
            prob,
            np.array([2.0, 1.0]),
            steps=15,
            controller=lambda w: evaluate(net, w).g,
        )
        np.testing.assert_allclose(W_net, W_ref, atol=1e-7)
        np.testing.assert_allclose(V_net, V_ref, atol=1e-7)

    def test_inputs_respect_saturation(self):
        prob = reference_mpc_problem()
        W, V = simulate_closed_loop(prob, np.array([25.0, -25.0]), steps=10)
        assert np.max(np.abs(V)) <= prob.v_bound * (1 + 1e-9)
        assert np.max(np.abs(V)) == pytest.approx(prob.v_bound, rel=1e-6)
