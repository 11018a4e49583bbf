import numpy as np
import pytest

from promil.bagdata import Bag
from promil.bernstein import DEFAULT_EPS, estimate_quantile, quantile_value_grad
from promil.heads import HEADS, UNSTABLE_SORT_MIN, decide, head_function, score_bags
from promil.network import NetArch, init_params


def score_bag(preds, head, q, eps=DEFAULT_EPS):
    """One bag's score: the first value of the head's per-bag function."""
    return head_function(head)(preds, q, eps)[0]


def score_emptied_bag(head):
    """Score, on the one scoring path, a bag whose instances were replaced
    by an empty array after it was built."""
    bag = Bag(id="hollow", instances=np.array([[0.2], [0.6]]), label=0)
    bag.instances = np.empty((0, 1))
    return score_bags(init_params(NetArch(1), 0), [bag], head, 0.5, DEFAULT_EPS)


class TestPromilScore:
    def test_constant_list(self):
        bs = score_bag(np.full(5, 0.9), "promil", q=0.3)
        assert bs == pytest.approx(0.9, abs=1e-12)
        # flip identity: the complemented bag at level 1-q scores 1 - 0.9
        assert estimate_quantile(np.full(5, 0.1), 0.7) == pytest.approx(0.1, abs=1e-12)

    def test_single_prediction(self):
        bs = score_bag(np.array([0.2]), "promil", q=0.7)
        assert bs == pytest.approx(0.2, abs=1e-14)
        assert estimate_quantile(np.array([0.8]), 0.3) == pytest.approx(1.0 - bs,
                                                                        abs=1e-14)

    def test_sorts_before_estimating(self):
        preds = np.array([0.1, 0.9, 0.5])
        bs = score_bag(preds, "promil", q=0.25)
        want = estimate_quantile(np.array([0.1, 0.5, 0.9]), 0.25)
        assert bs == pytest.approx(want, rel=1e-14)
        # the sort permutation is [0, 2, 1]: the k-th weight goes back to
        # the prediction that sorted into place k
        _, dpreds, _ = head_function("promil")(preds, 0.25, DEFAULT_EPS)
        _, w, _ = quantile_value_grad(np.array([0.1, 0.5, 0.9]), 0.25, DEFAULT_EPS)
        np.testing.assert_array_equal(dpreds, w[[0, 2, 1]])

    def test_stable_sort_routes_tied_weights(self):
        # the sort is stable: the tied 0.1s keep their order, so the weights
        # of sorted places 0..3 go back to predictions 1, 3, 0, 2
        raw = np.array([0.5, 0.1, 0.9, 0.1])
        _, dpreds, _ = head_function("promil")(raw, 0.3, DEFAULT_EPS)
        _, w, _ = quantile_value_grad(np.array([0.1, 0.1, 0.5, 0.9]), 0.3, DEFAULT_EPS)
        np.testing.assert_array_equal(dpreds[[1, 3, 0, 2]], w)
        assert w[0] != w[1]

    @pytest.mark.parametrize("ties", [0, 1, 300])
    def test_big_bag_routes_as_the_stable_sort(self, ties):
        # above UNSTABLE_SORT_MIN an unstable sort is tried first; planted
        # ties must still route the weights as the stable sort does
        rng = np.random.default_rng(ties)
        raw = rng.uniform(size=UNSTABLE_SORT_MIN + 500)
        at = rng.choice(raw.size, size=2 * ties, replace=False)
        raw[at[ties:]] = raw[at[:ties]]
        perm = raw.argsort(kind="stable")
        if ties:
            ranked = raw[raw.argsort()]
            assert not (ranked[1:] > ranked[:-1]).all()
        value, w, dq = quantile_value_grad(raw[perm], 0.3, DEFAULT_EPS)
        want = np.empty(raw.size)
        want[perm] = w
        got = head_function("promil")(raw, 0.3, DEFAULT_EPS)
        assert (got[0], got[2]) == (value, dq)
        np.testing.assert_array_equal(got[1], want)
        if ties == 300:   # the unstable sort alone would route them otherwise
            assert not np.array_equal(raw.argsort(), perm)

    def test_flip_identity(self):
        # c_{1-q}(1 - p) = 1 - c_q(p): the complemented bag at the flipped level
        preds = np.array([0.15, 0.7, 0.4, 0.9])
        bs = score_bag(preds, "promil", q=0.2)
        flipped = estimate_quantile(np.sort(1.0 - preds), 0.8)
        assert flipped == pytest.approx(1.0 - bs, rel=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(size=11)
        for head in ("promil", "max", "mean"):
            base = score_bag(preds, head, q=0.35)
            for _ in range(5):
                shuffled = rng.permutation(preds)
                got = score_bag(shuffled, head, q=0.35)
                assert got == pytest.approx(base, rel=1e-12)

    def test_bounded_by_extremes(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            preds = rng.uniform(size=int(rng.integers(1, 30)))
            q = float(rng.uniform(0.02, 0.98))
            bs = score_bag(preds, "promil", q)
            assert preds.min() - 1e-7 <= bs <= preds.max() + 1e-12

    def test_limit_behavior(self):
        rng = np.random.default_rng(2)
        preds = rng.uniform(size=9)
        assert score_bag(preds, "promil", q=1e-9) == pytest.approx(preds.max(), abs=1e-6)
        assert score_bag(preds, "promil", q=1 - 1e-9) == pytest.approx(preds.min(), abs=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="bag hollow: instances of shape"):
            score_emptied_bag("promil")


class TestBaselineScores:
    # max and mean do not depend on q
    def test_max(self):
        assert score_bag(np.array([0.1, 0.9, 0.5]), "max", 0.5) == 0.9
        assert score_bag(np.array([0.42]), "max", 0.5) == 0.42

    def test_max_equals_limit_at_zero(self):
        preds = np.array([0.3, 0.8, 0.05])
        assert score_bag(preds, "max", 0.5) == estimate_quantile(np.sort(preds), 0)

    def test_mean(self):
        assert score_bag(np.array([0.2, 0.4]), "mean", 0.5) == pytest.approx(0.3, abs=1e-15)
        assert score_bag(np.full(7, 0.13), "mean", 0.5) == pytest.approx(0.13, abs=1e-15)

    def test_mean_matches_quantile_for_pairs(self):
        # n=1, q=0.5 gives weights (1/2, 1/2): the estimator is the mean
        preds = np.array([0.2, 0.4])
        assert score_bag(preds, "mean", 0.5) == pytest.approx(
            estimate_quantile(preds, 0.5), rel=1e-14
        )

    def test_empty_raises(self):
        for head in ("max", "mean"):
            with pytest.raises(ValueError, match="bag hollow: instances of shape"):
                score_emptied_bag(head)


class TestDecide:
    def test_strict_threshold(self):
        assert decide(0.51) == 1
        assert decide(0.5) == 0
        assert decide(0.0) == 0
        assert decide(1.0) == 1

    def test_max_head_reproduces_standard_assumption(self):
        # with oracle instance predictions, decide(max) is "any instance positive"
        rng = np.random.default_rng(3)
        for _ in range(50):
            hidden = rng.integers(0, 2, size=int(rng.integers(1, 12)))
            preds = np.where(hidden == 1, 0.95, 0.03)
            assert decide(score_bag(preds, "max", 0.5)) == int(hidden.any())

    def test_applies_to_a_whole_array(self):
        scores = np.array([0.51, 0.5, 0.0, 1.0, np.nan])
        np.testing.assert_array_equal(decide(scores), [1, 0, 0, 1, 0])
        assert decide(scores).dtype == np.int64


class TestHeadTable:
    @pytest.mark.parametrize("size", [1, 2, 30, 10001])
    @pytest.mark.parametrize("head", HEADS)
    def test_value_with_and_without_grads_is_bitwise_equal(self, head, size):
        preds = np.random.default_rng(size).uniform(1e-3, 1.0 - 1e-3, size=size)
        fn = head_function(head)
        value, dpreds, dq = fn(preds, 0.3, DEFAULT_EPS)
        assert type(value) is float
        assert score_bag(preds, head, q=0.3) == value
        assert dpreds.shape == preds.shape
        assert dq == 0.0 or head == "promil"

    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("q, eps, message", [
        (0.0, DEFAULT_EPS, "got 0.0"), (1.5, DEFAULT_EPS, "got 1.5"),
        (np.nan, DEFAULT_EPS, "got nan"), (0.3, -1.0, "eps must be a finite number > 0, got -1.0"),
        (0.3, np.inf, "got inf"),
    ])
    def test_level_and_clamp_checked_for_every_head(self, head, q, eps, message):
        bags = [Bag(id="b", instances=np.array([[0.2], [0.6]]), label=0)]
        with pytest.raises(ValueError, match=message):
            score_bags(init_params(NetArch(1), 0), bags, head, q, eps)

    @pytest.mark.parametrize("head", HEADS)
    def test_level_is_required(self, head):
        # max and mean do not depend on q, but every head is given one
        bags = [Bag(id="b", instances=np.array([[0.5]]), label=0)]
        with pytest.raises(TypeError):
            score_bags(init_params(NetArch(1), 0), bags, head)

    def test_unknown_head_rejected(self):
        with pytest.raises(ValueError, match="head must be one of"):
            head_function("median")
