"""End-to-end tests of the command line front end (in-process main calls)."""

import csv
import json

import numpy as np
import pytest

from helpers import random_well_posed_network
from robsyn import cli
from robsyn.cli import main
from robsyn.mpc import reference_mpc_problem
from robsyn.network import Activation, ImplicitNetwork, load_network, save_network


def write_config(path, **kv):
    path.write_text(json.dumps(kv))
    return str(path)


@pytest.fixture()
def small_net(tmp_path):
    net = random_well_posed_network(3, n=2, n_u=1, n_g=1)
    path = tmp_path / "net.json"
    save_network(net, str(path))
    return net, str(path)


class TestConfigHandling:
    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", bogus=1)
        assert main(["analyze", "--config", cfg]) == 2
        assert "'bogus'" in capsys.readouterr().err

    def test_fix_gains_is_an_unknown_key(self, tmp_path, capsys):
        # the sweep pins gains only through fixed_gamma_u1/u2, as synthesize does
        cfg = write_config(tmp_path / "c.json", fix_gains=True)
        assert main(["sweep", "--config", cfg]) == 2
        assert "unknown config key: 'fix_gains'" in capsys.readouterr().err

    def test_unknown_nested_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", mpc={"zz": 1})
        assert main(["mpc-build", "--config", cfg]) == 2
        assert "'mpc.zz'" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["analyze", "--config", str(path)]) == 2

    def test_uniform_tolerance_excludes_per_block(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tolerances={"uniform": 0.1, "w_x": 0.2})
        assert main(["synthesize", "--config", cfg]) == 2

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        # the reference MPC problem is the mpc section's default, so there is
        # no preset key to name it
        cfg = write_config(tmp_path / "c.json", preset="paper-mpc")
        assert main(["mpc-build", "--config", cfg]) == 2
        assert "unknown config key: 'preset'" in capsys.readouterr().err

    def test_seed_out_of_range_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", seed=2**64)
        assert main(["analyze", "--config", cfg]) == 2

    def test_flag_seed_out_of_range_exits_2(self):
        assert main(["verify", "--seed", str(2**64)]) == 2

    def test_missing_network_file_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", network=str(tmp_path / "missing.json"))
        assert main(["analyze", "--config", cfg]) == 1

    def test_unknown_backend_exits_2(self, tmp_path, small_net):
        _, path = small_net
        cfg = write_config(tmp_path / "c.json", network=path, out=str(tmp_path))
        assert main(["analyze", "--config", cfg, "--backend", "bogus"]) == 2

    @pytest.mark.parametrize(
        "command, config, cert, key",
        [
            ("verify", {}, {"gamma": None}, "'gamma'"),
            ("analyze", {"pairset": {"eps_u1": None}}, None, "'pairset.eps_u1'"),
            ("analyze", {"seed": None}, None, "'seed'"),
            ("analyze", {"solver": {"feas_tol": None}}, None, "'solver.feas_tol'"),
            ("verify", {"base_box": None}, {}, "'base_box'"),
            ("analyze", {"seed": 1.5}, None, "'seed'"),
            ("analyze", {"jobs": 2.5}, None, "'jobs'"),
            ("verify", {"samples": 10.7}, {}, "'samples'"),
            ("simulate", {"steps": 2.5}, None, "'steps'"),
            ("mpc-build", {"mpc": {"horizon": 2.5}}, None, "'mpc.horizon'"),
            ("analyze", {"solver": {"max_iters": 50.5}}, None, "'solver.max_iters'"),
            ("analyze", {"out": 5}, None, "config key 'out' must be a string"),
            ("analyze", {"network": 5}, None, "config key 'network' must be a string"),
            ("verify", {"certificate": 3}, None, "config key 'certificate' must be a string"),
            ("simulate", {"qp": 5}, None, "config key 'qp' must be a string"),
            ("mpc-build", {"base_box": [-5, 0, 5]}, None,
             "config key 'base_box' must be a list of 2 numbers"),
            ("analyze", {"timestamp": "no"}, None, "config key 'timestamp' must be a boolean"),
            ("sweep", {"fixed_gamma_u1": "0"}, None,
             "config key 'fixed_gamma_u1' must be a finite number"),
            ("sweep", {"fixed_gamma_u2": True}, None,
             "config key 'fixed_gamma_u2' must be a finite number"),
            # of the right type but out of range: each command checks every
            # value, by building the object the command that reads it builds
            ("verify", {"samples": 0}, None, "config key 'samples': num_pairs must be at least 1"),
            ("mpc-build", {"base_box": [5, -5]}, None,
             "config key 'base_box': base_box must be ordered (lo, hi)"),
            ("simulate", {"steps": -1}, None, "config key 'steps' must be a nonnegative integer"),
            ("sweep", {"sweep_grid": [1e-3, -1.0]}, None,
             "config key 'sweep_grid': tolerance w_x must be nonnegative"),
            ("verify", {"pairset": {"eps_u1": -1}}, None,
             "config key 'pairset': input pair set radii must be nonnegative"),
            ("synthesize", {"tolerances": {"uniform": -1}}, None,
             "config key 'tolerances': tolerance w_x must be nonnegative"),
            ("sweep", {"solver": {"max_iters": 0}}, None,
             "config key 'solver': max_iters must be at least 1"),
            ("mpc-build", {"weights": {"gamma": -1}}, None,
             "config key 'weights': objective weights must be nonnegative"),
            ("analyze", {"mpc": {"horizon": 0}}, None, "config key 'mpc': horizon must be at least 1"),
            ("sweep", {"jobs": 0}, None, "config key 'jobs' must be a positive integer"),
        ],
    )
    def test_value_of_wrong_type_exits_2(
        self, tmp_path, small_net, capsys, command, config, cert, key
    ):
        _, path = small_net
        if cert is not None:
            doc = dict.fromkeys(cli._CERT_KEYS, 1.0)
            (tmp_path / "certificate.json").write_text(json.dumps({**doc, **cert}))
        cfg = write_config(tmp_path / "c.json", **{"network": path, "out": str(tmp_path), **config})
        assert main([command, "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    def test_every_config_key_has_a_kind_its_default_is_of(self):
        assert cli._KINDS.keys() == cli._DEFAULTS.keys()
        cli._validate_config(cli._DEFAULTS)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, None], [0.0, 1.0]],
            [[1.0, [0.0]], [0.0, 1.0]],
            [[1.0, 0.0], [1.0]],
            "eye",
        ],
        ids=["null-entry", "nested-entry", "ragged-rows", "string"],
    )
    def test_bad_mpc_matrix_exits_2_naming_its_key(self, tmp_path, capsys, matrix):
        cfg = write_config(tmp_path / "c.json", out=str(tmp_path), mpc={"A": matrix})
        assert main(["mpc-build", "--config", cfg]) == 2
        assert "'mpc.A'" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        assert main([]) == 2


class TestMpcBuild:
    def test_default_build_writes_fixture(self, tmp_path, capsys):
        assert main(["mpc-build", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "n=20 n_u=2 n_g=10" in out
        assert "oracle agreement max error" in out
        net = load_network(str(tmp_path / "network.json"))
        assert (net.n, net.n_u, net.n_g) == (20, 2, 10)
        qp = json.loads((tmp_path / "qp.json").read_text())
        assert np.asarray(qp["H"]).shape == (10, 10)
        assert qp["horizon"] == 10 and qp["v_bound"] == 10.0

    def test_horizon_one_prints_condensed_cost(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", mpc={"horizon": 1}, out=str(tmp_path))
        assert main(["mpc-build", "--config", cfg]) == 0
        assert "condensed cost H = 5.6852" in capsys.readouterr().out


class TestSynthesizeAnalyzeVerify:
    def test_synthesize_writes_artifacts(self, tmp_path, small_net, capsys):
        _, path = small_net
        cfg = write_config(
            tmp_path / "c.json",
            network=path,
            out=str(tmp_path),
            tolerances={"uniform": 0.05},
        )
        assert main(["synthesize", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "gamma=" in out and "max_weight_deviation=" in out
        assert (tmp_path / "synthesized_network.json").exists()
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["gamma"] >= 0 and cert["lmi_margin"] < 0

    def test_synthesize_infeasible_exits_3(self, tmp_path, capsys):
        net = ImplicitNetwork(
            W_x=np.array([[1.5]]),
            W_u=np.array([[1.0]]),
            W_fx=np.array([[1.0]]),
            W_fu=np.array([[0.0]]),
            b=np.zeros(1),
            b_f=np.zeros(1),
            activation=Activation.relu(),
        )
        path = tmp_path / "net.json"
        save_network(net, str(path))
        cfg = write_config(
            tmp_path / "c.json",
            network=str(path),
            out=str(tmp_path),
            tolerances={"uniform": 1e-6},
        )
        assert main(["synthesize", "--config", cfg]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_analyze_then_verify_chain(self, tmp_path, small_net, capsys):
        _, path = small_net
        cfg = write_config(tmp_path / "c.json", network=path, out=str(tmp_path), samples=500)
        assert main(["analyze", "--config", cfg]) == 0
        header = (tmp_path / "analysis.csv").read_text().splitlines()
        assert header[0].startswith("# generated ")
        assert header[1] == "gamma,gamma_u1,gamma_u2,objective,lmi_margin"
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "violations=0/500" in out
        assert (tmp_path / "verify.csv").exists()

    def test_analyze_does_not_read_the_tolerances(self, tmp_path, small_net):
        # analysis has no weight freedom, so a tolerance synthesis would
        # reject does not stop it
        _, path = small_net
        cfg = write_config(
            tmp_path / "c.json", network=path, out=str(tmp_path), tolerances={"uniform": -1.0}
        )
        assert main(["analyze", "--config", cfg]) == 0

    def test_verify_exits_1_on_violations(self, tmp_path, small_net):
        _, path = small_net
        cert = {
            "gamma": 0.0,
            "gamma_u1": 0.0,
            "gamma_u2": 0.0,
            "eps_u1": 1.0,
            "eps_u2": 1.0,
            "lmi_margin": 0.0,
            "objective_value": 0.0,
        }
        (tmp_path / "certificate.json").write_text(json.dumps(cert))
        cfg = write_config(tmp_path / "c.json", network=path, out=str(tmp_path), samples=200)
        assert main(["verify", "--config", cfg]) == 1

    def test_verify_rejects_unknown_certificate_key(self, tmp_path, small_net, capsys):
        # strictness_relaxed, which nothing writes, is as unknown as any other
        _, path = small_net
        cfg = write_config(tmp_path / "c.json", network=path, out=str(tmp_path), samples=200)
        assert main(["analyze", "--config", cfg]) == 0
        cert_path = tmp_path / "certificate.json"
        cert = json.loads(cert_path.read_text())
        capsys.readouterr()
        for key, value in (("extra", 2), ("strictness_relaxed", True)):
            cert_path.write_text(json.dumps({**cert, key: value}))
            assert main(["verify", "--config", cfg]) == 2
            assert f"unknown certificate key: {key!r}" in capsys.readouterr().err

    def test_certificate_reads_back_exactly(self, tmp_path, small_net, monkeypatch):
        _, path = small_net
        synthesize, solutions = cli.synthesize, []

        def recording_synthesize(*args, **kwargs):
            solutions.append(synthesize(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(cli, "synthesize", recording_synthesize)
        cfg = write_config(tmp_path / "c.json", network=path, out=str(tmp_path))
        assert main(["analyze", "--config", cfg]) == 0
        loaded = cli._load_certificate(str(tmp_path / "certificate.json"))
        assert loaded == solutions[0].certificate

    def test_verify_deterministic_per_seed(self, tmp_path, small_net):
        _, path = small_net
        cfg = write_config(tmp_path / "c.json", network=path, out=str(tmp_path), samples=300)
        assert main(["analyze", "--config", cfg]) == 0
        assert main(["verify", "--config", cfg, "--no-timestamp", "--seed", "7"]) == 0
        first = (tmp_path / "verify.csv").read_bytes()
        assert main(["verify", "--config", cfg, "--no-timestamp", "--seed", "7"]) == 0
        assert (tmp_path / "verify.csv").read_bytes() == first
        assert main(["verify", "--config", cfg, "--no-timestamp", "--seed", "8"]) == 0
        assert (tmp_path / "verify.csv").read_bytes() != first


class TestSweepAndSimulate:
    def test_sweep_single_zero_matches_analysis(self, tmp_path, small_net):
        _, path = small_net
        cfg = write_config(
            tmp_path / "c.json",
            network=path,
            out=str(tmp_path),
            sweep_grid=[0.0],
            samples=100,
            fixed_gamma_u1=0.0,
            fixed_gamma_u2=0.0,
        )
        assert main(["analyze", "--config", cfg]) == 0
        analysis_gamma = json.loads((tmp_path / "certificate.json").read_text())["gamma"]
        assert main(["sweep", "--config", cfg]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        row = lines[2].split(",")
        assert row[5] == "optimal"
        assert float(row[1]) == pytest.approx(analysis_gamma, rel=1e-4)

    def test_sweep_idempotent_without_timestamp(self, tmp_path, small_net, capsys):
        _, path = small_net
        cfg = write_config(
            tmp_path / "c.json",
            network=path,
            out=str(tmp_path),
            sweep_grid=[0.0, 0.1],
            samples=100,
        )
        assert main(["sweep", "--config", cfg, "--no-timestamp"]) == 0
        assert "wrote 2 sweep rows (2 solved)" in capsys.readouterr().out
        csv1 = (tmp_path / "sweep.csv").read_bytes()
        dat1 = (tmp_path / "sweep.dat").read_bytes()
        assert main(["sweep", "--config", cfg, "--no-timestamp"]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == csv1
        assert (tmp_path / "sweep.dat").read_bytes() == dat1
        assert b"\r" not in csv1

    @pytest.mark.parametrize(
        "config, code, column, expected",
        [
            (
                {"solver": {"max_iters": 1}},
                0,
                "status",
                "failed: solver failed: iteration limit reached",
            ),
            ({"strictness_shift": -1}, 2, None, None),
            ({"fixed_gamma_u1": 0.5}, 0, "gamma_u1", "0.5"),
        ],
        ids=["solver", "strictness_shift", "fixed_gamma_u1"],
    )
    def test_sweep_reads_the_keys_synthesize_reads(
        self, tmp_path, small_net, config, code, column, expected
    ):
        _, path = small_net
        # the sweep reads solver, strictness_shift and fixed_gamma_u1 as synthesize does
        cfg = write_config(
            tmp_path / "c.json",
            network=path,
            out=str(tmp_path),
            sweep_grid=[0.1],
            samples=100,
            **config,
        )
        assert main(["sweep", "--config", cfg, "--no-timestamp"]) == code
        if column is not None:
            with open(tmp_path / "sweep.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            # the status's solver residuals, in parentheses, are not compared
            assert row[column].partition(" (")[0] == expected

    def test_simulate_reference_network_tracks_oracle(self, tmp_path, capsys):
        assert main(["mpc-build", "--out", str(tmp_path)]) == 0
        cfg = write_config(
            tmp_path / "c.json",
            network=str(tmp_path / "network.json"),
            qp=str(tmp_path / "qp.json"),
            out=str(tmp_path),
            steps=5,
        )
        assert main(["simulate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        dev = float(out.split("max trajectory deviation = ")[1].split()[0])
        assert dev <= 1e-6
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[1] == "k,w_ref_0,w_ref_1,w_net_0,w_net_1,v_ref_0,v_net_0"
        assert len(lines) == 2 + 6  # timestamp + header + steps+1 rows
        assert lines[-1].endswith(",,")

    def test_simulate_missing_qp_key_exits_2(self, tmp_path, small_net):
        _, path = small_net
        (tmp_path / "qp.json").write_text(json.dumps({"A": [[1.0]]}))
        cfg = write_config(
            tmp_path / "c.json",
            network=path,
            qp=str(tmp_path / "qp.json"),
            out=str(tmp_path),
        )
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("horizon", 2.7, "qp document key 'horizon' must be an integer"),
            ("A", [[1.0, None], [0.0, 1.0]], "each entry of qp document key 'A'"),
            ("v_bound", "10", "qp document key 'v_bound' must be a finite number"),
        ],
    )
    def test_simulate_checks_qp_fields_by_the_mpc_kinds(
        self, tmp_path, small_net, capsys, key, value, message
    ):
        _, path = small_net
        doc = {**cli._mpc_fields(reference_mpc_problem()), key: value}
        (tmp_path / "qp.json").write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path / "c.json", network=path, qp=str(tmp_path / "qp.json"), out=str(tmp_path)
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_simulate_w0_of_the_wrong_length_exits_2(self, tmp_path, capsys):
        assert main(["mpc-build", "--out", str(tmp_path)]) == 0
        cfg = write_config(tmp_path / "c.json", out=str(tmp_path), w0=[1.0])
        assert main(["simulate", "--config", cfg]) == 2
        assert "config key 'w0' must be a list of 2 numbers" in capsys.readouterr().err

    def test_qp_document_reads_back_the_problem_exactly(self, tmp_path):
        assert main(["mpc-build", "--out", str(tmp_path)]) == 0
        problem = cli._load_mpc_problem(str(tmp_path / "qp.json"))
        ref = reference_mpc_problem()
        for key in ("A", "B", "Q", "R", "P"):
            assert np.array_equal(getattr(problem, key), getattr(ref, key)), key
        assert (problem.horizon, problem.v_bound) == (ref.horizon, ref.v_bound)

    def test_simulate_qp_not_a_mapping_exits_2(self, tmp_path, small_net, capsys):
        _, path = small_net
        (tmp_path / "qp.json").write_text(json.dumps([1, 2]))
        cfg = write_config(
            tmp_path / "c.json",
            network=path,
            qp=str(tmp_path / "qp.json"),
            out=str(tmp_path),
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert "qp document must be a mapping" in capsys.readouterr().err
