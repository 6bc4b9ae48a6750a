"""Tests for the samplers, the empirical checks and the tolerance sweep."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lemma_property_suite, random_well_posed_network
from robsyn.multipliers import InputPairSet
from robsyn.network import Activation, ImplicitNetwork
from robsyn.conic import SolverOptions
from robsyn.synthesis import (
    RobustnessCertificate,
    SimilarityTolerances,
    SynthesisProblem,
    analyze_network,
    synthesize,
)
from robsyn.verification import (
    SampleSpec,
    SweepResult,
    SweepRow,
    empirical_bound_check,
    sample_input_pairs,
    sweep_tolerance,
)


def binding_fraction(diff, pairset):
    l1 = np.sum(np.abs(diff), axis=1) / pairset.eps_u1
    l2 = np.sqrt(np.sum(diff * diff, axis=1) / pairset.eps_u2)
    return np.maximum(l1, l2)


class TestSampler:
    def test_shapes_and_exact_membership(self):
        U = InputPairSet(1.0, 0.5)
        spec = SampleSpec(num_pairs=500)
        U1, U2 = sample_input_pairs(U, 3, spec, seed=11)
        assert U1.shape == (500, 3) and U2.shape == (500, 3)
        diff = U2 - U1
        assert np.all(np.sum(np.abs(diff), axis=1) <= U.eps_u1)
        assert np.all(np.sum(diff * diff, axis=1) <= U.eps_u2)

    def test_boundary_half_sits_near_the_boundary(self):
        U = InputPairSet(2.0, 3.0)
        spec = SampleSpec(num_pairs=400)
        U1, U2 = sample_input_pairs(U, 4, spec, seed=2)
        frac = binding_fraction(U2 - U1, U)
        assert np.all(frac[:200] >= 0.95 - 1e-9)
        assert np.all(frac[:200] <= 1.0)

    def test_interior_half_reaches_inward(self):
        U = InputPairSet(2.0, 3.0)
        spec = SampleSpec(num_pairs=400)
        U1, U2 = sample_input_pairs(U, 4, spec, seed=2)
        frac = binding_fraction(U2 - U1, U)
        assert np.min(frac[200:]) < 0.7
        assert 0.6 < np.mean(frac[200:]) < 0.99

    def test_base_box_respected(self):
        spec = SampleSpec(num_pairs=200, base_box=(-2.0, 1.0))
        U1, _ = sample_input_pairs(InputPairSet(1.0, 1.0), 2, spec, seed=0)
        assert np.all(U1 >= -2.0) and np.all(U1 <= 1.0)

    def test_reproducible(self):
        a = sample_input_pairs(InputPairSet(1.0, 1.0), 2, seed=5)
        b = sample_input_pairs(InputPairSet(1.0, 1.0), 2, seed=5)
        c = sample_input_pairs(InputPairSet(1.0, 1.0), 2, seed=6)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_zero_radius_collapses_pairs(self):
        U1, U2 = sample_input_pairs(InputPairSet(0.0, 0.0), 3, seed=1)
        np.testing.assert_array_equal(U1, U2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(num_pairs=0)
        with pytest.raises(ValueError):
            SampleSpec(base_box=(1.0, -1.0))
        # anything but a pair: not later, in sample_input_pairs' unpacking
        for box in ((0.0, 1.0, 2.0), (1.0,)):
            with pytest.raises(ValueError, match="base_box must be a pair"):
                SampleSpec(base_box=box)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_box", (math.nan, 1.0)),
            ("base_box", (-1.0, math.nan)),
            ("base_box", (-math.inf, 1.0)),
            ("base_box", (-1.0, math.inf)),
        ],
        ids=str,
    )
    def test_spec_rejects_non_finite_values(self, field, value):
        # uniform draws over a box with a NaN or infinite end are not finite
        with pytest.raises(ValueError, match=rf"{field}.*finite"):
            SampleSpec(**{field: value})

    def test_spec_rejects_a_non_integer_count(self):
        # not later, in numpy's shapes
        with pytest.raises(ValueError, match="num_pairs must be an integer, got 2.5"):
            SampleSpec(num_pairs=2.5)
        # bool is an Integral, but True is no count
        with pytest.raises(ValueError, match="num_pairs must be an integer, got True"):
            SampleSpec(num_pairs=True)

    @settings(max_examples=25, deadline=None)
    @given(
        eps1=st.floats(1e-3, 10.0),
        eps2=st.floats(1e-3, 10.0),
        n_u=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_membership_is_exact_for_any_radii(self, eps1, eps2, n_u, seed):
        U = InputPairSet(eps1, eps2)
        U1, U2 = sample_input_pairs(U, n_u, SampleSpec(num_pairs=64), seed=seed)
        diff = U2 - U1
        assert np.all(np.sum(np.abs(diff), axis=1) <= eps1)
        assert np.all(np.sum(diff * diff, axis=1) <= eps2)


class TestEmpiricalCheck:
    def setup_method(self):
        self.net = random_well_posed_network(7, n=2, n_u=2, n_g=1)
        self.U = InputPairSet(1.0, 1.0)

    def test_valid_certificate_passes(self):
        cert = analyze_network(self.net, self.U).certificate
        out = empirical_bound_check(self.net, cert, SampleSpec(num_pairs=400), seed=3)
        assert out.ok
        assert out.violations == 0
        assert out.worst_margin >= -1e-6
        assert out.max_lhs > 0
        assert out.empirical_gamma_lb <= cert.gamma + 1e-6
        assert out.num_pairs == 400

    def test_null_certificate_fails(self):
        cert = RobustnessCertificate(
            gamma=0.0,
            gamma_u1=0.0,
            gamma_u2=0.0,
            input_set=self.U,
            lmi_margin=0.0,
            objective_value=0.0,
        )
        out = empirical_bound_check(self.net, cert, SampleSpec(num_pairs=300), seed=3)
        assert not out.ok
        assert out.violations > 0
        assert out.worst_margin < 0
        # with zero gain terms the lower bound is just the largest gap
        assert out.empirical_gamma_lb == pytest.approx(out.max_lhs)

    def test_generous_certificate_has_positive_margin(self):
        cert = RobustnessCertificate(
            gamma=1e3,
            gamma_u1=0.0,
            gamma_u2=0.0,
            input_set=self.U,
            lmi_margin=-1.0,
            objective_value=1e3,
        )
        out = empirical_bound_check(self.net, cert, SampleSpec(num_pairs=100), seed=0)
        assert out.ok and out.worst_margin > 0

    @pytest.mark.parametrize("shortfall, violated", [(5e-7, False), (2e-6, True)])
    def test_shortfalls_below_the_threshold_are_rounding(self, shortfall, violated):
        # a certificate below the largest sampled gap by less than 1e-6
        # counts no violation; below it by more, at least one
        spec = SampleSpec(num_pairs=300)
        cert = RobustnessCertificate(
            gamma=0.0,
            gamma_u1=0.0,
            gamma_u2=0.0,
            input_set=self.U,
            lmi_margin=0.0,
            objective_value=0.0,
        )
        gap = empirical_bound_check(self.net, cert, spec, seed=3).max_lhs
        cert = replace(cert, gamma=gap - shortfall, objective_value=gap - shortfall)
        out = empirical_bound_check(self.net, cert, spec, seed=3)
        assert out.worst_margin == pytest.approx(-shortfall, rel=1e-6)
        assert (out.violations > 0) is violated


class TestLemmaSuite:
    def test_small_run_has_no_failures(self):
        out = lemma_property_suite(num_networks=25, pairs_per_network=120, seed=3)
        assert out.ok
        assert out.failures == 0
        assert out.min_normalized_slack >= -1e-8
        assert out.num_networks == 25 and out.pairs_per_network == 120

    def test_seed_changes_draws_but_not_verdict(self):
        a = lemma_property_suite(num_networks=8, pairs_per_network=60, seed=1)
        b = lemma_property_suite(num_networks=8, pairs_per_network=60, seed=2)
        assert a.ok and b.ok
        assert a.min_normalized_slack != b.min_normalized_slack


def sweep_problem(net, U, fix_gains=True, **kw):
    """The problem a sweep solves: each row sets the tolerances, and
    fix_gains pins both gains to zero."""
    gain = 0.0 if fix_gains else None
    return SynthesisProblem(
        net, U, SimilarityTolerances(), fixed_gamma_u1=gain, fixed_gamma_u2=gain, **kw
    )


@pytest.fixture(scope="module")
def seed42_sweep():
    net = random_well_posed_network(42, n=3, n_u=2, n_g=2)
    U = InputPairSet(1.0, 1.0)
    result = sweep_tolerance(
        sweep_problem(net, U), [0.0, 0.05, 0.2], spec=SampleSpec(num_pairs=200), seed=5
    )
    return net, U, result


class TestSweep:
    def test_rows_are_in_input_order_and_optimal(self, seed42_sweep):
        _, _, result = seed42_sweep
        assert [r.eps for r in result.rows] == [0.0, 0.05, 0.2]
        assert all(r.status.startswith("optimal") for r in result.rows)

    def test_gamma_nonincreasing_and_gains_pinned(self, seed42_sweep):
        _, _, result = seed42_sweep
        gammas = [r.gamma for r in result.rows]
        assert gammas[0] + 1e-6 >= gammas[1] >= gammas[2] - 1e-6
        for r in result.rows:
            assert abs(r.gamma_u1) <= 1e-9 and abs(r.gamma_u2) <= 1e-9
            assert r.objective == pytest.approx(r.gamma, abs=1e-9)

    def test_zero_eps_row_matches_analysis(self, seed42_sweep):
        net, U, result = seed42_sweep
        ref = analyze_network(net, U, fixed_gamma_u1=0.0, fixed_gamma_u2=0.0)
        assert result.rows[0].gamma == pytest.approx(
            ref.certificate.gamma, rel=1e-4
        )

    def test_empirical_column_bounded_by_gamma(self, seed42_sweep):
        _, _, result = seed42_sweep
        for r in result.rows:
            assert r.empirical_max_lhs <= r.gamma + 1e-6

    def test_weight_deviation_within_band(self, seed42_sweep):
        _, _, result = seed42_sweep
        assert result.rows[0].max_weight_deviation <= 1e-6
        for r in result.rows:
            assert r.max_weight_deviation <= r.eps + 1e-6

    def test_free_gains_mode_reproduces_frozen_objective(self):
        net = random_well_posed_network(42, n=3, n_u=2, n_g=2)
        result = sweep_tolerance(
            sweep_problem(net, InputPairSet(1.0, 1.0), fix_gains=False),
            [0.0],
            spec=SampleSpec(num_pairs=50),
        )
        r = result.rows[0]
        assert r.objective == pytest.approx(3.275418, abs=2e-4)
        assert r.objective == pytest.approx(r.gamma + r.gamma_u1 + r.gamma_u2, abs=1e-6)

    def test_infeasible_row_does_not_abort(self):
        net = ImplicitNetwork(
            W_x=np.array([[1.5]]),
            W_u=np.array([[1.0]]),
            W_fx=np.array([[1.0]]),
            W_fu=np.array([[0.0]]),
            b=np.zeros(1),
            b_f=np.zeros(1),
            activation=Activation.relu(),
        )
        result = sweep_tolerance(
            sweep_problem(net, InputPairSet(1.0, 1.0)), [1e-6, 3.0], spec=SampleSpec(num_pairs=50)
        )
        assert result.rows[0].status == "infeasible"
        assert math.isnan(result.rows[0].gamma)
        assert result.rows[1].status.startswith("optimal")
        assert math.isfinite(result.rows[1].gamma)

    def test_parallel_rows_match_serial(self):
        # a problem and options off their defaults, which every worker must
        # solve as given: each row is the direct synthesis at its tolerance
        net = random_well_posed_network(3, n=2, n_u=1, n_g=1)
        problem = sweep_problem(net, InputPairSet(1.0, 1.0), strictness_shift=1e-4)
        options = SolverOptions(feas_tol=1e-8, gap_tol=1e-8)
        spec = SampleSpec(num_pairs=40)
        serial = sweep_tolerance(problem, [0.0, 0.1], options, spec=spec, seed=1, jobs=1)
        parallel = sweep_tolerance(problem, [0.0, 0.1], options, spec=spec, seed=1, jobs=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.status == b.status
            assert a.gamma == pytest.approx(b.gamma, abs=1e-9)
            assert a.empirical_max_lhs == pytest.approx(b.empirical_max_lhs, abs=1e-9)
            direct = synthesize(
                replace(problem, tolerances=SimilarityTolerances.uniform(b.eps)), options
            )
            assert b.gamma == direct.certificate.gamma

    def test_csv_roundtrip(self, tmp_path, seed42_sweep):
        _, _, result = seed42_sweep
        path = tmp_path / "sweep.csv"
        result.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# generated ")
        reader = csv.reader(lines[1:])
        header = next(reader)
        assert tuple(header) == SweepResult.COLUMNS
        rows = list(reader)
        assert len(rows) == len(result.rows)
        for parsed, row in zip(rows, result.rows):
            assert float(parsed[0]) == row.eps
            assert float(parsed[1]) == pytest.approx(row.gamma, abs=0)
            assert parsed[5] == row.status

    def test_csv_without_timestamp(self, tmp_path, seed42_sweep):
        _, _, result = seed42_sweep
        path = tmp_path / "sweep.csv"
        result.write_csv(str(path), timestamp=False)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(SweepResult.COLUMNS)

    def test_gnuplot_file(self, tmp_path, seed42_sweep):
        _, _, result = seed42_sweep
        path = tmp_path / "sweep.dat"
        result.write_gnuplot(str(path), timestamp=False)
        lines = path.read_text().splitlines()
        assert lines[0] == "# eps gamma"
        data = [line.split() for line in lines[1:]]
        assert len(data) == len(result.rows)
        for cols, row in zip(data, result.rows):
            assert len(cols) == 2
            assert float(cols[0]) == row.eps
            assert float(cols[1]) == pytest.approx(row.gamma, abs=0)

    def test_gnuplot_skips_unsolved_rows(self, tmp_path):
        nan = math.nan
        result = SweepResult(
            rows=[
                SweepRow(0.1, 2.0, 0.0, 0.0, 2.0, "optimal", 1.5, 0.1),
                SweepRow(0.2, nan, nan, nan, nan, "infeasible", nan, nan),
            ]
        )
        path = tmp_path / "sweep.dat"
        result.write_gnuplot(str(path), timestamp=False)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        cols = lines[1].split()
        assert float(cols[0]) == 0.1 and float(cols[1]) == 2.0
