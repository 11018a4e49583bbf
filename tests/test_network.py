import dataclasses
import math

import numpy as np
import pytest

from promil.network import (
    BagForwardTrace,
    NetArch,
    NetParams,
    backward_bag,
    forward_bag,
    init_params,
)


def forward_one(params, x):
    """The prediction for one feature vector, as a bag of one instance."""
    return float(forward_bag(params, x[None, :])[0][0])


def logistic(x):
    """The logistic of a float by its textbook formula, in math."""
    return 1.0 / (1.0 + math.exp(-x))


def logistic_regression_params(w, b=0.0):
    arch = NetArch(input_dim=len(w))
    return NetParams(arch, flat=np.array([*w, b], dtype=np.float64))


def former_backward_bag(params, trace, upstream):
    """The reverse pass as it was when forward_bag kept each hidden layer's
    pre-activation: recompute every pre-activation from the layer inputs
    and take the activation's slope from it (tanh a second time)."""

    def activate_grad(z, kind):
        if kind == "relu":
            return (z > 0.0).astype(np.float64)
        t = np.tanh(z)
        return 1.0 - t * t

    preacts = []
    for a, w, b in zip(trace.layer_inputs[:-1], params.weights, params.biases):
        z = a.dot(w)
        z += b
        preacts.append(z)
    out = NetParams(params.arch)
    c = trace.predictions
    dz = upstream * c
    dz *= 1.0 - c
    dz = dz[:, None]
    for i in range(len(params.weights) - 1, -1, -1):
        trace.layer_inputs[i].T.dot(dz, out=out.weights[i])
        np.add.reduce(dz, axis=0, out=out.biases[i])
        if i > 0:
            da = dz.dot(params.weights[i].T)
            dz = da * activate_grad(preacts[i - 1], params.arch.activation)
    return out, preacts


def signed_zero_params_and_bag(activation, hidden, seed):
    """A net and bag whose first hidden layer has pre-activations of exactly
    -0.0 and +0.0 in row 0: columns 0 and 1 of the first weight matrix are
    -1e-200 and +1e-200, so their products with row 0 (all 1e-200)
    underflow to zeros of those signs, and their biases are -0.0 and 0.0."""
    rng = np.random.default_rng(seed)
    arch = NetArch(input_dim=6, hidden_dims=hidden, activation=activation)
    params = init_params(arch, seed=seed)
    for w in params.weights:
        w += rng.normal(size=w.shape) * 0.3
    for b in params.biases:
        b += rng.normal(size=b.shape) * 0.1
    params.weights[0][:, 0] = -1e-200
    params.weights[0][:, 1] = 1e-200
    params.biases[0][:2] = (-0.0, 0.0)
    bag = rng.normal(size=(12, 6))
    bag[0] = 1e-200
    return params, bag, rng.normal(size=12)


class TestArch:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetArch(input_dim=0)
        with pytest.raises(ValueError):
            NetArch(input_dim=2, hidden_dims=(0,))
        with pytest.raises(ValueError):
            NetArch(input_dim=2, activation="gelu")

    def test_layer_dims(self):
        assert NetArch(input_dim=3, hidden_dims=(5, 2)).layer_dims == (3, 5, 2, 1)
        assert NetArch(input_dim=3).layer_dims == (3, 1)


class TestInit:
    def test_deterministic(self):
        arch = NetArch(input_dim=4, hidden_dims=(8,))
        a = init_params(arch, seed=123)
        b = init_params(arch, seed=123)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_seeds_differ(self):
        arch = NetArch(input_dim=4, hidden_dims=(8,))
        a = init_params(arch, seed=0)
        b = init_params(arch, seed=1)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_logistic_regression_shape(self):
        params = init_params(NetArch(input_dim=5), seed=0)
        assert len(params.weights) == 1
        assert params.weights[0].shape == (5, 1)
        assert params.biases[0].shape == (1,)

    def test_biases_zero(self):
        params = init_params(NetArch(input_dim=3, hidden_dims=(4,)), seed=7)
        for b in params.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))


class TestForward:
    def test_zero_params_give_half(self):
        params = logistic_regression_params([0.0, 0.0])
        assert forward_one(params, np.array([3.0, -4.0])) == 0.5

    def test_logistic_closed_form(self):
        params = logistic_regression_params([1.0, 0.0])
        got = forward_one(params, np.array([2.0, 5.0]))
        assert got == pytest.approx(logistic(2.0), rel=1e-12)
        assert got == pytest.approx(0.880797, abs=1e-6)

    def test_range_strictly_open(self):
        rng = np.random.default_rng(0)
        arch = NetArch(input_dim=3, hidden_dims=(6,), activation="tanh")
        for i in range(100):
            params = init_params(arch, seed=i)
            for w in params.weights:
                w *= 50.0   # push toward saturation on purpose
            x = rng.normal(size=(10, 3)) * 10
            preds, _ = forward_bag(params, x)
            assert np.all(preds > 0.0) and np.all(preds < 1.0)

    def test_extreme_and_nan_logits(self):
        # no floating-point flag is raised on the way: exp neither
        # overflows nor underflows, and the logistic stays a normal float
        logits = np.array([-800.0, -40.0, 0.0, 40.0, 800.0, np.nan])
        params = logistic_regression_params([1.0])
        with np.errstate(all="raise"):
            preds, trace = forward_bag(params, logits[:, None])
            backward_bag(params, trace, np.ones(logits.size))
        finite = preds[:-1]
        assert np.all(finite > 0.0) and np.all(finite < 1.0)
        assert np.isnan(preds[-1])
        for x, c in zip(logits[1:-1], preds[1:-1]):
            assert c == pytest.approx(logistic(x), rel=1e-15, abs=0.0)
        assert preds[0] < 1e-300

    def test_bag_matches_instance_loop(self):
        rng = np.random.default_rng(5)
        arch = NetArch(input_dim=4, hidden_dims=(7, 3))
        params = init_params(arch, seed=2)
        bag = rng.normal(size=(3, 4))
        preds, _ = forward_bag(params, bag)
        for i in range(3):
            assert preds[i] == pytest.approx(forward_one(params, bag[i]), rel=1e-14)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        params = init_params(NetArch(input_dim=2, hidden_dims=(4,)), seed=3)
        bag = rng.normal(size=(6, 2))
        perm = rng.permutation(6)
        preds, _ = forward_bag(params, bag)
        preds_p, _ = forward_bag(params, bag[perm])
        np.testing.assert_allclose(preds_p, preds[perm], rtol=1e-15)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_trace_keeps_one_array_per_layer(self, activation):
        params, bag, _ = signed_zero_params_and_bag(activation, (16, 8), seed=4)
        before = bag.copy()
        preds, trace = forward_bag(params, bag)
        np.testing.assert_array_equal(bag, before)
        assert [f.name for f in dataclasses.fields(BagForwardTrace)] == [
            "layer_inputs", "predictions"]
        assert len(trace.layer_inputs) == len(params.weights)
        assert trace.layer_inputs[0] is bag
        assert trace.predictions is preds
        activate = np.tanh if activation == "tanh" else (lambda z: np.maximum(z, 0.0))
        for i in range(1, len(trace.layer_inputs)):
            z = trace.layer_inputs[i - 1].dot(params.weights[i - 1]) + params.biases[i - 1]
            np.testing.assert_array_equal(trace.layer_inputs[i], activate(z))

    def test_errors(self):
        params = init_params(NetArch(input_dim=3), seed=0)
        with pytest.raises(ValueError):
            forward_bag(params, np.zeros((0, 3)))
        with pytest.raises(ValueError):
            forward_bag(params, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            forward_bag(params, np.zeros(3))


class TestBackward:
    def test_zero_upstream(self):
        params = init_params(NetArch(input_dim=3, hidden_dims=(4,)), seed=1)
        _, trace = forward_bag(params, np.random.default_rng(0).normal(size=(5, 3)))
        grads = backward_bag(params, trace, np.zeros(5))
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_logistic_closed_form(self):
        # single instance, logistic regression: dW = u * c(1-c) * x
        params = logistic_regression_params([0.7, -0.2], b=0.1)
        x = np.array([[1.5, 2.0]])
        c, trace = forward_bag(params, x)
        u = np.array([0.37])
        grads = backward_bag(params, trace, u)
        expect = u[0] * c[0] * (1 - c[0]) * x[0]
        np.testing.assert_allclose(grads.weights[0][:, 0], expect, rtol=1e-12)
        assert grads.biases[0][0] == pytest.approx(u[0] * c[0] * (1 - c[0]), rel=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(), (5,), (16, 8)])
    def test_finite_difference_match(self, activation, hidden):
        rng = np.random.default_rng(42)
        arch = NetArch(input_dim=6, hidden_dims=hidden, activation=activation)
        params = init_params(arch, seed=11)
        for w in params.weights:
            w += rng.normal(size=w.shape) * 0.3
        for b in params.biases:
            b += rng.normal(size=b.shape) * 0.1
        bag = rng.normal(size=(4, 6))
        upstream = rng.normal(size=4)

        def objective():
            preds, _ = forward_bag(params, bag)
            return float(upstream @ preds)

        _, trace = forward_bag(params, bag)
        grads = backward_bag(params, trace, upstream)
        h = 1e-6
        for arrays, garrays in ((params.weights, grads.weights),
                                (params.biases, grads.biases)):
            for arr, garr in zip(arrays, garrays):
                flat, gflat = arr.ravel(), np.asarray(garr).ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = objective()
                    flat[idx] = orig - h
                    down = objective()
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    scale = max(abs(fd), abs(gflat[idx]), 1e-4)
                    assert abs(gflat[idx] - fd) / scale < 1e-4

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(16, 8), (32,)])
    def test_bit_equal_to_former_backward(self, activation, hidden):
        params, bag, upstream = signed_zero_params_and_bag(activation, hidden, seed=9)
        _, trace = forward_bag(params, bag)
        grads = backward_bag(params, trace, upstream)
        expect, preacts = former_backward_bag(params, trace, upstream)
        first = preacts[0][0, :2]
        assert first.tolist() == [0.0, 0.0] and np.signbit(first).tolist() == [True, False]
        for got, want in zip(grads.weights + grads.biases, expect.weights + expect.biases):
            assert got.tobytes() == want.tobytes()

    def test_mismatched_upstream(self):
        params = init_params(NetArch(input_dim=2), seed=0)
        _, trace = forward_bag(params, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            backward_bag(params, trace, np.zeros(4))
