import numpy as np
import pytest

from promil.bernstein import estimate_quantile, estimate_quantile_limit
from promil.heads import decide, max_score, mean_score, promil_score, score_bag


class TestPromilScore:
    def test_constant_list(self):
        bs = promil_score(np.full(5, 0.9), q=0.3)
        assert bs.score == pytest.approx(0.9, abs=1e-12)
        # flip identity: the complemented bag at level 1-q scores 1 - 0.9
        assert estimate_quantile(np.full(5, 0.1), 0.7) == pytest.approx(0.1, abs=1e-12)

    def test_single_prediction(self):
        bs = promil_score(np.array([0.2]), q=0.7)
        assert bs.score == pytest.approx(0.2, abs=1e-14)
        assert estimate_quantile(np.array([0.8]), 0.3) == pytest.approx(1.0 - bs.score,
                                                                        abs=1e-14)

    def test_sorts_before_estimating(self):
        bs = promil_score(np.array([0.1, 0.9, 0.5]), q=0.25)
        want = estimate_quantile(np.array([0.1, 0.5, 0.9]), 0.25)
        assert bs.score == pytest.approx(want, rel=1e-14)
        np.testing.assert_array_equal(bs.permutation, [0, 2, 1])

    def test_flip_identity(self):
        # c_{1-q}(1 - p) = 1 - c_q(p): the complemented bag at the flipped level
        preds = np.array([0.15, 0.7, 0.4, 0.9])
        bs = promil_score(preds, q=0.2)
        flipped = estimate_quantile(np.sort(1.0 - preds), 0.8)
        assert flipped == pytest.approx(1.0 - bs.score, rel=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(size=11)
        for head in ("promil", "max", "mean"):
            base = score_bag(preds, head, q=0.35)
            for _ in range(5):
                shuffled = rng.permutation(preds)
                got = score_bag(shuffled, head, q=0.35)
                assert got.score == pytest.approx(base.score, rel=1e-12)

    def test_bounded_by_extremes(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            preds = rng.uniform(size=int(rng.integers(1, 30)))
            q = float(rng.uniform(0.02, 0.98))
            bs = promil_score(preds, q)
            assert preds.min() - 1e-7 <= bs.score <= preds.max() + 1e-12

    def test_limit_behavior(self):
        rng = np.random.default_rng(2)
        preds = rng.uniform(size=9)
        assert promil_score(preds, q=1e-9).score == pytest.approx(preds.max(), abs=1e-6)
        assert promil_score(preds, q=1 - 1e-9).score == pytest.approx(preds.min(), abs=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            promil_score(np.array([]), q=0.5)


class TestBaselineScores:
    def test_max(self):
        assert max_score(np.array([0.1, 0.9, 0.5])).score == 0.9
        assert max_score(np.array([0.42])).score == 0.42

    def test_max_equals_limit_at_zero(self):
        preds = np.array([0.3, 0.8, 0.05])
        assert max_score(preds).score == estimate_quantile_limit(np.sort(preds), 0)

    def test_mean(self):
        assert mean_score(np.array([0.2, 0.4])).score == pytest.approx(0.3, abs=1e-15)
        assert mean_score(np.full(7, 0.13)).score == pytest.approx(0.13, abs=1e-15)

    def test_mean_matches_quantile_for_pairs(self):
        # n=1, q=0.5 gives weights (1/2, 1/2): the estimator is the mean
        preds = np.array([0.2, 0.4])
        assert mean_score(preds).score == pytest.approx(
            estimate_quantile(preds, 0.5), rel=1e-14
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            max_score(np.array([]))
        with pytest.raises(ValueError):
            mean_score(np.array([]))


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
            assert decide(max_score(preds).score) == int(hidden.any())
