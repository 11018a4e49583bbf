import copy
import math
import re
import tracemalloc

import numpy as np
import pytest

from promil import bernstein
from promil.bagdata import (
    Bag,
    DatasetSplit,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from promil.bernstein import DEFAULT_EPS, level, logit
from promil.heads import HEADS, head_function, score_bags
from promil.network import NetArch, NetParams, backward, forward, init_params
from promil.training import (
    NumericalError,
    TrainConfig,
    SCALAR_ADAM_MAX,
    adam_update,
    bag_cost,
    bag_cost_and_grads,
    bag_step,
    init_train_state,
    train,
)


def make_bag(instances, label, bag_id="b0"):
    return Bag(id=bag_id, instances=np.asarray(instances, dtype=np.float64), label=label)


def tiny_split(qstar=0.3, n=60, seed=0):
    spec = SyntheticSpec(n_bags=n, threshold_qstar=qstar, bag_size_mean=6,
                         bag_size_std=2, class_separation=4.0)
    bags = generate_synthetic(spec, seed)
    return split_dataset(bags, (0.7, 0.3, 0.0), seed)


class TestCost:
    def test_zero_cost_cases(self):
        assert bag_cost(1.0, 1, DEFAULT_EPS)[0] == 0.0
        assert bag_cost(0.0, 0, DEFAULT_EPS)[0] == 0.0

    def test_log_two(self):
        assert bag_cost(0.5, 1, DEFAULT_EPS)[0] == pytest.approx(math.log(2), rel=1e-12)
        assert bag_cost(0.5, 0, DEFAULT_EPS)[0] == pytest.approx(math.log(2), rel=1e-12)

    def test_nonnegative_with_clamped_args(self):
        # scores just outside [0, 1] make the clamp bind at both ends
        rng = np.random.default_rng(0)
        for _ in range(200):
            score = float(rng.uniform(-1e-9, 1.0 + 1e-9))
            y = int(rng.integers(0, 2))
            assert bag_cost(score, y, DEFAULT_EPS)[0] >= 0.0

    def test_y_validation(self):
        with pytest.raises(ValueError):
            bag_cost(0.5, 2, DEFAULT_EPS)
        with pytest.raises(ValueError):
            bag_cost(0.5, 0.5, DEFAULT_EPS)

    def test_gradients(self):
        # where the clamp binds, the cost is flat in the score
        assert bag_cost(1e-9, 1, 1e-7)[1] == 0.0
        assert bag_cost(1.0 - 1e-9, 0, 1e-7)[1] == 0.0
        assert bag_cost(0.5, 1, DEFAULT_EPS)[1] == pytest.approx(-2.0, rel=1e-14)
        assert bag_cost(0.75, 0, DEFAULT_EPS)[1] == pytest.approx(4.0, rel=1e-14)
        rng = np.random.default_rng(1)
        h = 1e-7
        for _ in range(50):
            score = float(rng.uniform(0.05, 0.95))
            y = int(rng.integers(0, 2))
            d_score = bag_cost(score, y, DEFAULT_EPS)[1]
            fd = (bag_cost(score + h, y, DEFAULT_EPS)[0]
                  - bag_cost(score - h, y, DEFAULT_EPS)[0]) / (2 * h)
            assert d_score == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestAdam:
    def cfg(self, **kw):
        return TrainConfig(**kw)

    def test_zero_grad_no_decay_is_identity(self):
        cfg = self.cfg(weight_decay=0.0)
        p = np.array([1.0, -2.0])
        p2, _, _ = adam_update(p, np.zeros(2), (np.zeros(2), np.zeros(2)), cfg, t=1)
        np.testing.assert_array_equal(p2, [1.0, -2.0])

    def test_first_step_is_sign_scaled(self):
        # t=1: m_hat = g, v_hat = g^2, so the step is lr * g/(|g| + eps)
        cfg = self.cfg()
        g = np.array([0.37, -4.2])
        p = np.zeros(2)
        p2, _, _ = adam_update(p, g, (np.zeros(2), np.zeros(2)), cfg, t=1)
        expect = -cfg.learning_rate * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p2, expect, rtol=1e-9)

    def test_repeated_steps_move_against_gradient(self):
        cfg = self.cfg(weight_decay=0.0)
        p = np.array([0.5])
        m, v = np.zeros(1), np.zeros(1)
        prev = p.copy()
        for t in range(1, 6):
            p, m, v = adam_update(p, np.array([1.0]), (m, v), cfg, t)
            assert p[0] < prev[0]
            prev = p.copy()


def textbook_adam_update(param, grad, m, v, cfg, t, decay):
    """Adam as usually written: unscaled moments, both bias corrections
    applied to them, then param -= lr * m_hat / (sqrt(v_hat) + eps)."""
    m[:] = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
    v[:] = cfg.beta2 * v + (1.0 - cfg.beta2) * grad ** 2
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    if decay is not False:
        param[decay] -= cfg.learning_rate * cfg.weight_decay * param[decay]


class TestAdamAgainstTextbook:
    """``adam_update`` keeps the moments pre-scaled and folds the bias
    corrections into the step size and eps; over 2,000 steps it agrees with
    the textbook form to rtol 1e-9 on the parameters and on the moments."""

    @pytest.mark.parametrize("n", [4, 25154])
    @pytest.mark.parametrize("betas", [(0.99, 0.999), (0.9, 0.999), (0.0, 0.0)])
    @pytest.mark.parametrize("decayed", [True, False])
    def test_2000_steps(self, n, betas, decayed):
        cfg = TrainConfig(learning_rate=1e-3, beta1=betas[0], beta2=betas[1],
                          weight_decay=1e-2)
        decay = slice(0, n // 2) if decayed else False
        rng = np.random.default_rng(n)
        # each entry keeps the sign of its gradient, so no moment passes
        # near 0, where a relative tolerance would measure cancellation;
        # the scales span 1e-6 to 1e2, around eps and well above it
        scale = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-6, 2, size=n)
        theta = 10.0 + rng.normal(size=n)
        m, v = np.zeros(n), np.zeros(n)
        want, want_m, want_v = theta.copy(), np.zeros(n), np.zeros(n)
        grads = scale * rng.uniform(0.1, 1.9, size=(7, n))
        for t in range(1, 2001):
            grad = grads[t % 7]
            adam_update(theta, grad, (m, v), cfg, t, decay)
            textbook_adam_update(want, grad, want_m, want_v, cfg, t, decay)
        np.testing.assert_allclose(theta, want, rtol=1e-9, atol=0)
        np.testing.assert_allclose(m * (1.0 - cfg.beta1), want_m, rtol=1e-9, atol=0)
        np.testing.assert_allclose(v * (1.0 - cfg.beta2), want_v, rtol=1e-9, atol=0)
        assert np.abs(theta - 10.0).max() > 0.5   # the run moved the parameters


class TestConfigValidation:
    def test_bad_fields(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=101, max_epochs=100)
        with pytest.raises(ValueError):
            TrainConfig(q_init=1.5)
        with pytest.raises(ValueError):
            TrainConfig(val_metric="f1")


class TestBagStep:
    def test_single_instance_gradient_is_bce(self):
        # n=0: both quantile levels return the lone prediction, so the
        # upstream on it is the BCE derivative -y/c + (1-y)/(1-c)
        cfg = TrainConfig(q_init=0.3, seed=0)
        net = init_params(NetArch(input_dim=2), seed=5)
        net.weights[0][:, 0] = [0.4, -0.3]
        bag = make_bag([[1.0, 2.0]], label=1)
        c = forward(net, bag.instances)[0][0]
        cost, grads, grad_raw = bag_cost_and_grads(net, level(logit(0.3)), bag, cfg)
        assert cost == pytest.approx(-math.log(c), rel=1e-12)
        upstream = -1.0 / c
        expect_w = upstream * c * (1 - c) * bag.instances[0]
        np.testing.assert_allclose(grads.weights[0][:, 0], expect_w, rtol=1e-10)
        assert grad_raw == pytest.approx(0.0, abs=1e-12)

    def test_composed_gradient_finite_difference(self):
        rng = np.random.default_rng(77)
        cfg = TrainConfig(seed=0)
        checked = 0
        for trial in range(24):
            hidden = [(), (5,), (6, 3)][trial % 3]
            act = ("relu", "tanh")[trial % 2]
            arch = NetArch(input_dim=3, hidden_dims=hidden, activation=act)
            net = init_params(arch, seed=trial)
            for w in net.weights:
                w += rng.normal(size=w.shape) * 0.4
            raw = logit(float(rng.uniform(0.1, 0.9)))
            head = ("promil", "promil", "max", "mean")[trial % 4]
            while True:
                bag = make_bag(rng.normal(size=(int(rng.integers(1, 9)), 3)),
                               label=int(rng.integers(0, 2)))
                preds = np.sort(forward(net, bag.instances)[0])
                # max head: keep away from argmax ties where the FD kinks
                if head != "max" or len(preds) == 1 or preds[-1] - preds[-2] > 1e-3:
                    break
            _, grads, grad_raw = bag_cost_and_grads(net, level(raw), bag, cfg, head=head)

            def cost_at():
                return bag_cost_and_grads(net, level(raw), bag, cfg, head=head)[0]

            h = 1e-6
            for arrays, garrays in ((net.weights, grads.weights),
                                    (net.biases, grads.biases)):
                for arr, garr in zip(arrays, garrays):
                    flat, gflat = arr.ravel(), np.asarray(garr).ravel()
                    for idx in range(flat.size):
                        orig = flat[idx]
                        flat[idx] = orig + h
                        up = cost_at()
                        flat[idx] = orig - h
                        down = cost_at()
                        flat[idx] = orig
                        fd = (up - down) / (2 * h)
                        scale = max(abs(fd), abs(gflat[idx]), 1e-4)
                        assert abs(gflat[idx] - fd) / scale < 1e-4, \
                            f"trial {trial} head={head}"
            if head == "promil":
                fd = (bag_cost_and_grads(net, level(raw + h), bag, cfg)[0]
                      - bag_cost_and_grads(net, level(raw - h), bag, cfg)[0]) / (2 * h)
                scale = max(abs(fd), abs(grad_raw), 1e-4)
                assert abs(grad_raw - fd) / scale < 1e-4, f"trial {trial}: raw q"
            checked += 1
        assert checked >= 20

    def test_sort_routing_is_permutation_invariant(self):
        rng = np.random.default_rng(8)
        cfg = TrainConfig(seed=0)
        net = init_params(NetArch(input_dim=2, hidden_dims=(4,)), seed=1)
        for w in net.weights:
            w += rng.normal(size=w.shape) * 0.5
        instances = rng.normal(size=(7, 2))
        q = level(logit(0.35))
        cost0, grads0, graw0 = bag_cost_and_grads(
            net, q, make_bag(instances, 1), cfg)
        perm = rng.permutation(7)
        cost1, grads1, graw1 = bag_cost_and_grads(
            net, q, make_bag(instances[perm], 1), cfg)
        assert cost1 == pytest.approx(cost0, rel=1e-12)
        assert graw1 == pytest.approx(graw0, rel=1e-12)
        for g0, g1 in zip(grads0.weights, grads1.weights):
            np.testing.assert_allclose(g1, g0, rtol=1e-9)

    def test_saturated_positive_bag_barely_moves(self):
        cfg = TrainConfig(q_init=0.3, seed=0, weight_decay=0.0)
        state = init_train_state(NetArch(input_dim=1), cfg)
        state.net.weights[0][0, 0] = 60.0   # predictions pinned at ~1
        before = state.net.weights[0].copy()
        bag = make_bag([[1.0], [1.0], [1.0]], label=1)
        state, cost = bag_step(state, bag, cfg)
        assert cost == pytest.approx(0.0, abs=1e-9)
        assert abs(state.net.weights[0][0, 0] - before[0, 0]) < 2 * cfg.learning_rate

    def test_q_stays_interior(self):
        cfg = TrainConfig(q_init=0.5, seed=0, learning_rate=0.5)
        state = init_train_state(NetArch(input_dim=1), cfg)
        rng = np.random.default_rng(0)
        for i in range(200):
            bag = make_bag(rng.normal(size=(4, 1)), label=int(rng.integers(0, 2)))
            state, _ = bag_step(state, bag, cfg)
            assert 0.0 < level(state.theta.item(-1)) < 1.0


class TestTrainLoop:
    def test_patience_zero_returns_first_epoch(self):
        split = tiny_split()
        cfg = TrainConfig(seed=0, patience=0, max_epochs=10, q_init=0.4)
        model = train(init_train_state(NetArch(input_dim=2), cfg), split, cfg)
        assert model.epochs_run == 1
        assert model.best_epoch == 1
        assert len(model.history) == 1

    def test_deterministic(self):
        split = tiny_split()
        out = []
        for _ in range(2):
            cfg = TrainConfig(seed=3, max_epochs=5, patience=5, q_init="random")
            model = train(init_train_state(NetArch(input_dim=2), cfg), split, cfg)
            out.append(model)
        a, b = out
        assert a.raw_q == b.raw_q
        for wa, wb in zip(a.net.weights, b.net.weights):
            np.testing.assert_array_equal(wa, wb)
        assert [h.train_cost for h in a.history] == [h.train_cost for h in b.history]

    def test_seeds_change_the_run(self):
        split = tiny_split()
        cfg_a = TrainConfig(seed=3, max_epochs=3, patience=3)
        cfg_b = TrainConfig(seed=4, max_epochs=3, patience=3)
        a = train(init_train_state(NetArch(input_dim=2), cfg_a), split, cfg_a)
        b = train(init_train_state(NetArch(input_dim=2), cfg_b), split, cfg_b)
        assert a.raw_q != b.raw_q

    def test_best_snapshot_is_kept(self):
        split = tiny_split()
        cfg = TrainConfig(seed=1, max_epochs=8, patience=8, val_metric="loss")
        model = train(init_train_state(NetArch(input_dim=2), cfg), split, cfg)
        best = min(h.val_loss for h in model.history)
        assert model.best_value == pytest.approx(best)
        assert model.history[model.best_epoch - 1].val_loss == pytest.approx(best)

    def test_model_is_a_copy_of_the_best_epoch(self):
        # the validation AUC peaks at epoch 1, and q moves on after it
        split = tiny_split()
        cfg = TrainConfig(seed=1, max_epochs=6, patience=6, val_metric="auc",
                          learning_rate=0.05)
        state = init_train_state(NetArch(input_dim=2), cfg)
        model = train(state, split, cfg)
        assert model.best_epoch < model.epochs_run
        best = model.history[model.best_epoch - 1]
        assert model.learned_q == best.q
        assert model.learned_q != level(state.theta.item(-1))
        scores = score_bags(model.net, split.validation, "promil", model.learned_q,
                            cfg.eps_clamp)
        total = 0.0
        for score, bag in zip(scores.tolist(), split.validation):
            total += bag_cost(score, bag.label, cfg.eps_clamp)[0]
        assert total / len(split.validation) == best.val_loss
        flat = model.net.flat.copy()
        bag_step(state, split.train[0], cfg)
        np.testing.assert_array_equal(model.net.flat, flat)

    def test_empty_split_rejected(self):
        split = tiny_split()
        cfg = TrainConfig(seed=0)
        state = init_train_state(NetArch(input_dim=2), cfg)
        with pytest.raises(ValueError):
            train(state, DatasetSplit(train=split.train, validation=[]), cfg)

    def test_nan_features_raise_numerical_error(self):
        split = tiny_split()
        bad = copy.deepcopy(split)
        bad.train[0].instances[0, 0] = np.nan
        cfg = TrainConfig(seed=0, max_epochs=2, patience=2)
        state = init_train_state(NetArch(input_dim=2), cfg)
        with pytest.raises(NumericalError):
            train(state, bad, cfg)

    def test_non_finite_step_names_bag_and_leaves_theta(self):
        split = tiny_split()
        bad = copy.deepcopy(split.train[3])
        bad.instances[0, 0] = np.nan
        cfg = TrainConfig(seed=0, max_epochs=2, patience=2)
        state = init_train_state(NetArch(input_dim=2), cfg)
        for bag in split.train[:5]:
            bag_step(state, bag, cfg)
        before = [state.theta.copy(), state.m.copy(), state.v.copy()]
        with pytest.raises(NumericalError, match=rf"bag '{bad.id}' at step 6"):
            bag_step(state, bad, cfg)
        assert state.t == 5
        for was, now in zip(before, (state.theta, state.m, state.v)):
            np.testing.assert_array_equal(now, was)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_gradient_whose_square_overflows_still_steps(self):
        # features near 1e200 against a weight near 1e-200 give moderate
        # predictions and a weight gradient near 1e200: every entry is
        # finite, though its square is not
        cfg = TrainConfig(seed=0, q_init=0.3)
        state = init_train_state(NetArch(input_dim=1), cfg)
        state.net.weights[0][0, 0] = 1e-200
        bag = make_bag([[1e200], [-2e200], [3e200]], label=1)
        _, cost = bag_step(state, bag, cfg)
        assert state.t == 1 and math.isfinite(cost)
        assert np.isfinite(state.grad).all() and not math.isfinite(state.grad.dot(state.grad))
        assert np.isfinite(state.theta).all()

    def test_nan_bag_stops_training_in_its_first_epoch(self):
        split = tiny_split()
        bad = copy.deepcopy(split)
        bad.train[3].instances[0, 0] = np.nan
        cfg = TrainConfig(seed=0, max_epochs=2, patience=2)
        state = init_train_state(NetArch(input_dim=2), cfg)
        with pytest.raises(NumericalError, match=rf"bag '{bad.train[3].id}' at step \d+"):
            train(state, bad, cfg)
        assert state.epoch == 1 and state.t < len(bad.train)

    def test_baseline_heads_train(self):
        split = tiny_split()
        for head in ("max", "mean"):
            cfg = TrainConfig(seed=2, max_epochs=4, patience=4, q_init=0.3)
            model = train(init_train_state(NetArch(input_dim=2), cfg), split, cfg, head=head)
            assert model.head == head
            # baselines never touch the quantile level
            assert model.learned_q == pytest.approx(0.3, rel=1e-12)


class TestSplitChecks:
    """A bag the steps would trip over fails before the first step, with a
    message naming its split and id."""

    def assert_rejected_before_step_one(self, split, match):
        cfg = TrainConfig(seed=0, max_epochs=2, patience=2)
        state = init_train_state(NetArch(input_dim=2), cfg)
        before = state.theta.copy()
        with pytest.raises(ValueError, match=match):
            train(state, split, cfg)
        assert state.t == 0
        np.testing.assert_array_equal(state.theta, before)

    @pytest.mark.parametrize("name", ["train", "validation"])
    def test_wrong_width(self, name):
        split = tiny_split()
        bags = getattr(split, name)
        bags[3] = make_bag(np.zeros((4, 3)), bags[3].label, bag_id="wide")
        self.assert_rejected_before_step_one(
            split, rf"^{name} split: bag wide: instances of shape \(4, 3\)")

    @pytest.mark.parametrize("name", ["train", "validation"])
    def test_label_changed_after_construction(self, name):
        split = tiny_split()
        bag = getattr(split, name)[4]
        bag.label = 2
        self.assert_rejected_before_step_one(
            split, rf"^{name} split: bag {re.escape(bag.id)}: label must be 0 or 1, got 2$")

    def test_instances_that_are_not_float64(self):
        split = tiny_split()
        bag = split.train[2]
        bag.instances = bag.instances.astype(np.float32)
        self.assert_rejected_before_step_one(
            split, rf"^train split: bag {re.escape(bag.id)}: instances of dtype float32")


def former_adam_update(param, grad, moments, cfg, t, decay):
    """The Adam update written out as the reference for the step's update,
    with the moments held divided by (1 - beta1) and (1 - beta2), so that
    any change to ``adam_update``'s roundings fails the reference test."""
    m, v = moments
    c = math.sqrt((1.0 - cfg.beta2 ** t) / (1.0 - cfg.beta2))
    m *= cfg.beta1
    m += grad
    step = np.square(grad)
    v *= cfg.beta2
    v += step
    np.sqrt(v, out=step)
    step += 1e-8 * c
    np.divide(m, step, out=step)
    step *= cfg.learning_rate * c * (1.0 - cfg.beta1) / (1.0 - cfg.beta1 ** t)
    param -= step
    param[decay] *= 1.0 - cfg.learning_rate * cfg.weight_decay


class TestAdamPaths:
    """``adam_update`` takes a vector of at most SCALAR_ADAM_MAX entries in
    Python floats and a longer one in numpy arrays; after every one of
    2,000 steps both hold the bits of ``former_adam_update``.  Each entry's
    gradients keep one scale: 1e-300 (its square underflows), 1e300 (its
    square overflows, after which the entry turns inf or NaN) or one from
    1e-12 to 1e30; a fifth of them are zero."""

    @pytest.mark.parametrize("n", [1, 4, 8, 9, 34])
    @pytest.mark.parametrize("betas", [(0.99, 0.999), (0.0, 0.0), (0.99, 0.0), (0.0, 0.999)])
    @pytest.mark.parametrize("decayed", [True, False])
    def test_2000_steps_bit_for_bit(self, n, betas, decayed):
        assert SCALAR_ADAM_MAX == 8   # so the sizes fall on both sides
        cfg = TrainConfig(learning_rate=1e-3, beta1=betas[0], beta2=betas[1],
                          weight_decay=1e-2)
        decay = slice(0, (n + 1) // 2) if decayed else False
        rng = np.random.default_rng(n)
        # steps that move theta in its last bits need scales near eps and above
        scale = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-12, 30, size=n)
        if n > 1:
            scale[0], scale[-1] = 1e-300, 1e300
        grads = scale * rng.uniform(0.1, 1.9, size=(2000, n))
        grads[rng.random(size=grads.shape) < 0.2] = 0.0
        theta = rng.normal(size=n)
        m, v = np.zeros(n), np.zeros(n)
        want, want_m, want_v = theta.copy(), np.zeros(n), np.zeros(n)
        # every step's theta, m and v, on each side
        got_steps, want_steps = np.empty((2, 2000, 3, n))
        with np.errstate(all="ignore"):
            for t, grad in enumerate(grads, 1):
                adam_update(theta, grad, (m, v), cfg, t, decay)
                former_adam_update(want, grad, (want_m, want_v), cfg, t, decay)
                got_steps[t - 1] = theta, m, v
                want_steps[t - 1] = want, want_m, want_v
        # the same bits wherever the reference is not NaN; a NaN's sign and
        # payload are not compared
        nan = np.isnan(want_steps)
        np.testing.assert_array_equal(np.isnan(got_steps), nan)
        np.testing.assert_array_equal(got_steps[~nan].view(np.uint64),
                                      want_steps[~nan].view(np.uint64))
        if n > 1:   # the largest entry went non-finite, the others did not
            assert not np.isfinite(theta[-1] * v[-1])
            assert np.isfinite(theta[:-1]).all()


def reference_step(arch, theta, moments, t, bag, cfg, head):
    """One step composed from the public pieces; returns (cost, whether the
    clamp bound on the bag's predictions)."""
    net = NetParams(arch=arch, flat=theta[:-1])
    q = level(float(theta[-1]))
    preds, layer_inputs = forward(net, bag.instances)
    score, dscore_dpreds, dscore_dq = head_function(head)(preds, q, cfg.eps_clamp)
    cost, upstream = bag_cost(score, int(bag.label), cfg.eps_clamp)
    grads = backward(net, layer_inputs, preds, upstream * dscore_dpreds, NetParams(arch))
    grad = np.append(grads.flat, upstream * dscore_dq * q * (1.0 - q))
    assert math.isfinite(cost) and np.isfinite(grad).all()
    decayed = slice(0, sum(w.size for w in NetParams(arch).weights))
    former_adam_update(theta, grad, moments, cfg, t, decayed)
    return cost, bool(preds.min() < cfg.eps_clamp)


class TestStepAgainstReference:
    """``bag_step`` against a step composed from forward, the head
    table's per-bag entry, bag_cost, backward and the Adam update
    written out: theta, m and v agree bit for bit over 300 steps."""

    def bags(self):
        # plain bags, bags whose large features saturate the scaled-up
        # network so that predictions fall below eps, and bags of one
        # instance (n = 0)
        rng = np.random.default_rng(2)
        bags = []
        for i in range(12):
            n = int(rng.integers(2, 40))
            bags.append(make_bag(0.05 * rng.normal(size=(n, 2)), i % 2, f"plain{i}"))
            bags.append(make_bag(10.0 * rng.normal(size=(n, 2)), i % 2, f"saturated{i}"))
        bags += [make_bag(rng.normal(size=(1, 2)), y, f"single{y}") for y in (0, 1)]
        return bags

    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("hidden, activation", [((), "relu"), ((8,), "relu"), ((8,), "tanh")])
    def test_300_steps(self, head, hidden, activation):
        arch = NetArch(input_dim=2, hidden_dims=hidden, activation=activation)
        cfg = TrainConfig(seed=4, q_init=0.3, learning_rate=1e-2)
        state = init_train_state(arch, cfg)
        for w in state.net.weights[:-1]:
            w *= 50.0
        state.net.weights[-1] *= 200.0
        theta, m, v = state.theta.copy(), state.m.copy(), state.v.copy()
        bags = self.bags()
        order = np.random.default_rng(5).integers(len(bags), size=300)
        clamped = []
        for t, i in enumerate(order.tolist(), 1):
            _, cost = bag_step(state, bags[i], cfg, head)
            want, bound = reference_step(arch, theta, (m, v), t, bags[i], cfg, head)
            assert cost == want, f"step {t}"
            clamped.append(bound)
        assert state.t == 300
        for got, want in ((state.theta, theta), (state.m, m), (state.v, v)):
            np.testing.assert_array_equal(got, want)
        assert 0 < sum(clamped) < 300
        assert {bags[i].id for i in order.tolist()} >= {"single0", "single1"}


def test_per_length_rows_stay_within_their_bound(tmp_path):
    # 160 distinct bag lengths up to 10,001: one stored row per length would
    # hold 6.4 MB; the store keeps at most ROW_CACHE_FLOATS numbers (1 MiB)
    rng = np.random.default_rng(3)
    lengths = np.unique(np.linspace(1, 10001, 160).astype(int))
    bags = [Bag(id=f"t{i}", instances=rng.normal(size=(n, 1)), label=i % 2, split="train")
            for i, n in enumerate(lengths.tolist())]
    bags += [Bag(id=f"v{i}", instances=rng.normal(size=(5, 1)), label=i % 2,
                 split="validation") for i in range(4)]
    path = str(tmp_path / "d.npz")
    save_dataset(path, bags)
    loaded = load_dataset(path)[0]
    split = DatasetSplit(train=[b for b in loaded if b.split == "train"],
                         validation=[b for b in loaded if b.split == "validation"])
    naive_bytes = 8 * int((lengths + 1).sum())
    bound_bytes = 8 * bernstein.ROW_CACHE_FLOATS
    assert naive_bytes > 6 * bound_bytes
    cfg = TrainConfig(seed=0, max_epochs=1, patience=1)
    state = init_train_state(NetArch(input_dim=1), cfg)
    bernstein._tables(int(lengths.max()))
    bernstein._LENGTH_ROWS.clear()
    tracemalloc.start()
    try:
        train(state, split, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.t == len(lengths)
    stored = sum(rows[0].size for rows in bernstein._LENGTH_ROWS.values())
    assert 0 < stored <= bernstein.ROW_CACHE_FLOATS
    # the bound plus one step's arrays on the largest bag
    assert peak < 3 * bound_bytes
