"""Tests for the implicit network container, fixed-point evaluation, and
the JSON serialization format."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_well_posed_network
from robsyn.errors import DimensionMismatch, NonConvergence, SchemaError
import robsyn.network
from robsyn.network import (
    Activation,
    FixedPointConfig,
    ImplicitNetwork,
    evaluate,
    evaluate_batch,
    load_network,
    relu,
    save_network,
)


def simple_net(W_x, W_u, W_fx, W_fu, b=None, b_f=None, activation=None):
    W_x = np.atleast_2d(np.asarray(W_x, dtype=float))
    n = W_x.shape[0]
    W_u = np.asarray(W_u, dtype=float).reshape(n, -1)
    W_fx = np.atleast_2d(np.asarray(W_fx, dtype=float))
    n_g = W_fx.shape[0]
    return ImplicitNetwork(
        W_x=W_x,
        W_u=W_u,
        W_fx=W_fx,
        W_fu=np.asarray(W_fu, dtype=float).reshape(n_g, -1),
        b=np.zeros(n) if b is None else b,
        b_f=np.zeros(n_g) if b_f is None else b_f,
        activation=activation or Activation.relu(),
    )


def test_relu_basics():
    x = np.array([-2.0, 0.0, 3.5])
    assert np.array_equal(relu(x), [0.0, 0.0, 3.5])


@pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid_shifted"])
def test_shipped_activation_secants_lie_in_unit_interval(kind):
    """Every secant (phi(a) - phi(b)) / (a - b) lies in [0, 1]: the slope
    restriction the certificate's slope term assumes."""
    phi = getattr(Activation, kind)()
    rng = np.random.default_rng(0)
    for scale in (1e-3, 1e-1, 1.0, 10.0, 30.0):
        a, b = rng.standard_normal((2, 10_000)) * scale
        a, b = a[a != b], b[a != b]
        secants = (phi(a) - phi(b)) / (a - b)
        assert secants.min() >= 0.0 and secants.max() <= 1.0


def test_unknown_activation_kind_is_rejected():
    with pytest.raises(SchemaError, match="^unknown activation kind 'nope'$"):
        Activation("nope")


def test_activation_application():
    assert Activation.relu()(np.array([-1.0, 2.0])).tolist() == [0.0, 2.0]
    assert Activation.tanh()(np.array([0.0])).tolist() == [0.0]
    # shifted logistic is odd and zero at zero
    s = Activation.sigmoid_shifted()
    assert s(np.array([0.0]))[0] == 0.0
    assert np.isclose(s(np.array([3.0]))[0], -s(np.array([-3.0]))[0])


def test_network_dimension_properties():
    net = random_well_posed_network(0, n=3, n_u=2, n_g=4)
    assert (net.n, net.n_u, net.n_g) == (3, 2, 4)


def test_network_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        simple_net([[0.5, 0.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(DimensionMismatch):
        ImplicitNetwork(
            W_x=np.zeros((2, 2)),
            W_u=np.zeros((3, 1)),
            W_fx=np.zeros((1, 2)),
            W_fu=np.zeros((1, 1)),
            b=np.zeros(2),
            b_f=np.zeros(1),
            activation=Activation.relu(),
        )


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("b", np.zeros(3), "field 'b': expected shape (2,), got (3,)"),
        ("b_f", np.zeros(2), "field 'b_f': expected shape (1,), got (2,)"),
        ("b", np.zeros((2, 1)), "field 'b': expected shape (2,), got (2, 1)"),
        # a 1-D W_u is not read as a matrix, so W_u is named, not W_fu
        ("W_u", np.zeros(4), "field 'W_u': expected shape (2, 4), got (4,)"),
        ("W_fx", np.zeros(2), "field 'W_fx': expected shape (2, 2), got (2,)"),
        # the right size is not enough: the shape must match
        ("W_fu", np.zeros((3, 1)), "field 'W_fu': expected shape (1, 3), got (3, 1)"),
    ],
    ids=["b-size", "b_f-size", "b-column", "W_u-1d", "W_fx-1d", "W_fu-transposed"],
)
def test_network_fields_must_have_exactly_their_shapes(field, value, expected):
    # a 2-state, 3-input, 1-output network with one field in another shape
    fields = dict(
        W_x=np.zeros((2, 2)), W_u=np.zeros((2, 3)), W_fx=np.zeros((1, 2)),
        W_fu=np.zeros((1, 3)), b=np.zeros(2), b_f=np.zeros(1),
    )
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(expected)}$"):
        ImplicitNetwork(**{**fields, field: value})


def test_network_rejects_an_activation_that_is_not_one():
    # the kind's name alone is not an Activation, and would fail only at the
    # first evaluation
    with pytest.raises(SchemaError, match="^field 'activation' must be an Activation"):
        simple_net([[0.5]], [[1.0]], [[1.0]], [[0.0]], activation="relu")


def test_network_rejects_nonfinite_weights():
    with pytest.raises(SchemaError):
        simple_net([[np.nan]], [[1.0]], [[1.0]], [[0.0]])


def test_scalar_relu_fixed_point():
    # x = relu(0.5 x + u): for u = 1 the active branch gives x = 2,
    # for u = -1 the inactive branch gives x = 0
    net = simple_net([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    res = evaluate(net, np.array([1.0]))
    assert np.allclose(res.x, [2.0], atol=1e-9)
    assert np.allclose(res.g, [2.0], atol=1e-9)
    res = evaluate(net, np.array([-1.0]))
    assert np.allclose(res.x, [0.0], atol=1e-12)


def test_output_affine_part():
    net = simple_net([[0.0]], [[0.0]], [[2.0]], [[3.0]], b_f=np.array([0.25]))
    res = evaluate(net, np.array([2.0]))
    # x = relu(0) = 0, so g = 3*2 + 0.25
    assert np.allclose(res.g, [6.25])


def test_tanh_fixed_point_residual():
    net = random_well_posed_network(7, n=5, n_u=2, n_g=3, activation=Activation.tanh())
    cfg = FixedPointConfig(tol=1e-12)
    res = evaluate(net, np.array([0.3, -1.1]), cfg)
    assert net.residual(res.x, np.array([0.3, -1.1])) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_newton_matches_picard(seed):
    net = random_well_posed_network(seed, n=6, n_u=3, n_g=2)
    u = np.random.default_rng(seed + 100).standard_normal(3)
    x_newton = evaluate(net, u, FixedPointConfig(acceleration="newton")).x
    x_picard = evaluate(net, u, FixedPointConfig(acceleration="anderson")).x
    assert np.allclose(x_newton, x_picard, atol=1e-8)


def plain_picard(net, U, sweeps=5000):
    """Undamped x <- phi(W_x x + W_u u + b) per column, for contractive nets."""
    Q = net.W_u @ U + net.b[:, None]
    X = np.zeros((net.n, U.shape[1]))
    for _ in range(sweeps):
        X = net.activation(net.W_x @ X + Q)
    return X


def test_evaluate_batch_matches_single():
    # inputs spread over four decades converge after different sweep counts
    U = np.random.default_rng(5).standard_normal((2, 9)) * np.logspace(-2, 2, 9)
    for activation in (Activation.relu(), Activation.tanh()):
        net = random_well_posed_network(3, n=4, n_u=2, n_g=3, activation=activation)
        X_ref = plain_picard(net, U)
        G_ref = net.W_fx @ X_ref + net.W_fu @ U + net.b_f[:, None]
        for acceleration in ("newton", "anderson"):
            cfg = FixedPointConfig(tol=1e-12, acceleration=acceleration)
            counts = {evaluate(net, U[:, k], cfg).iterations for k in range(9)}
            assert len(counts) > 1, (activation.kind, acceleration)
            G, X, iters = evaluate_batch(net, U, cfg)
            assert G.shape == (3, 9) and X.shape == (4, 9)
            np.testing.assert_allclose(X, X_ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(G, G_ref, rtol=0, atol=1e-9)
            assert iters >= max(counts)


def test_fixed_point_hint_is_used():
    calls = []

    def hint(u):
        calls.append(u.copy())
        return np.array([2.0])

    net = simple_net([[0.5]], [[1.0]], [[1.0]], [[0.0]]).with_hint(hint)
    res = evaluate(net, np.array([1.0]))
    assert calls and res.iterations == 0
    assert res.x[0] == 2.0


def test_inaccurate_hint_falls_back_to_solver():
    net = simple_net([[0.5]], [[1.0]], [[1.0]], [[0.0]]).with_hint(
        lambda u: np.array([17.0])
    )
    res = evaluate(net, np.array([1.0]))
    assert np.allclose(res.x, [2.0], atol=1e-9)
    assert res.iterations > 0


def test_divergent_iteration_raises(monkeypatch):
    # x = relu(2x + 1) has no fixed point
    monkeypatch.setattr(robsyn.network, "_PICARD_SWEEPS", 200)
    net = simple_net([[2.0]], [[1.0]], [[1.0]], [[0.0]])
    for acceleration in ("newton", "anderson"):
        cfg = FixedPointConfig(acceleration=acceleration)
        with pytest.raises(NonConvergence) as excinfo:
            evaluate(net, np.array([1.0]), cfg)
        assert excinfo.value.iterations == 200


def test_fixed_point_config_validation():
    assert FixedPointConfig().acceleration == "newton"
    for acceleration in ("turbo", "none"):
        with pytest.raises(ValueError):
            FixedPointConfig(acceleration=acceleration)
    with pytest.raises(ValueError):
        FixedPointConfig(tol=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [("tol", math.inf), ("tol", math.nan), ("tol", 0.0)],
    ids=str,
)
def test_fixed_point_config_rejects_non_finite_and_non_integer_values(field, value):
    # an infinite tol returns the first iterate; a NaN tol never converges,
    # and no float iteration meets a zero one
    with pytest.raises(ValueError, match=rf"{field} must be .*, got {value!r}"):
        FixedPointConfig(**{field: value})


def test_residual_reports_infinity_norm():
    net = simple_net([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    # x = relu(u); at x = 3 with u = 1 the defect is 2
    assert net.residual(np.array([3.0]), np.array([1.0])) == pytest.approx(2.0)


def test_save_load_round_trip_is_exact(tmp_path):
    net = random_well_posed_network(11, n=3, n_u=2, n_g=2)
    # make sure values with no short decimal representation survive
    net.W_x[0, 0] = 1.0 / 3.0
    net.b[0] = np.nextafter(0.1, 1.0)
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    for name in ("W_x", "W_u", "W_fx", "W_fu", "b", "b_f"):
        assert np.array_equal(getattr(net, name), getattr(back, name)), name
    assert back.activation.kind == "relu"


def test_saved_file_has_exact_key_set(tmp_path):
    net = random_well_posed_network(1, n=2, n_u=1, n_g=1)
    path = tmp_path / "net.json"
    save_network(net, path)
    with open(path) as fh:
        payload = json.load(fh)
    assert set(payload) == {
        "n", "n_u", "n_g", "activation", "W_x", "W_u", "W_fx", "W_fu", "b", "b_f",
    }
    assert payload["activation"] == "relu"
    assert payload["n"] == 2


def _write_payload(tmp_path, payload):
    path = tmp_path / "bad.json"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _valid_payload():
    return {
        "n": 1,
        "n_u": 1,
        "n_g": 1,
        "activation": "relu",
        "W_x": [[0.5]],
        "W_u": [[1.0]],
        "W_fx": [[1.0]],
        "W_fu": [[0.0]],
        "b": [0.0],
        "b_f": [0.0],
    }


def test_load_rejects_missing_key(tmp_path):
    payload = _valid_payload()
    del payload["b_f"]
    with pytest.raises(SchemaError, match="b_f"):
        load_network(_write_payload(tmp_path, payload))


def test_load_rejects_extra_key(tmp_path):
    payload = _valid_payload()
    payload["comment"] = "hello"
    with pytest.raises(SchemaError, match="comment"):
        load_network(_write_payload(tmp_path, payload))


def test_load_rejects_unknown_activation(tmp_path):
    payload = _valid_payload()
    payload["activation"] = "gelu"
    with pytest.raises(SchemaError, match="^unknown activation kind 'gelu'$"):
        load_network(_write_payload(tmp_path, payload))
    # a kind that is not a string is named the same way, not a TypeError
    payload["activation"] = ["relu"]
    with pytest.raises(SchemaError, match="^unknown activation kind"):
        load_network(_write_payload(tmp_path, payload))


def test_load_rejects_inconsistent_shapes(tmp_path):
    payload = _valid_payload()
    payload["W_x"] = [[0.5, 0.0]]
    with pytest.raises((SchemaError, DimensionMismatch)):
        load_network(_write_payload(tmp_path, payload))


def test_load_rejects_non_integer_dims(tmp_path):
    payload = _valid_payload()
    payload["n"] = 1.5
    with pytest.raises(SchemaError):
        load_network(_write_payload(tmp_path, payload))


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_network(path)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    n_u=st.integers(1, 3),
    n_g=st.integers(1, 3),
)
def test_round_trip_property(tmp_path_factory, seed, n, n_u, n_g):
    """Serialization never loses a bit for any shape."""
    net = random_well_posed_network(seed, n, n_u, n_g)
    path = tmp_path_factory.mktemp("rt") / "net.json"
    save_network(net, path)
    back = load_network(path)
    for name in ("W_x", "W_u", "W_fx", "W_fu", "b", "b_f"):
        assert np.array_equal(getattr(net, name), getattr(back, name))
